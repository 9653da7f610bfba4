"""End-to-end command line tests (exit codes, files, determinism)."""

import json
from pathlib import Path

import numpy as np
import pytest
from conftest import run_fresh_python

from nospillover import fileio
from nospillover.cases import CASES
from nospillover.cli import main
from nospillover.pencil import T_EVEN, StructuredPencil
from nospillover.randomgen import plant_problem


def run(args):
    return main([str(a) for a in args])


def problems_of_two_sizes(tmp_path):
    """Problems of n=8 and n=10, and the delta file solved from the n=10 one."""
    small, big, delta = tmp_path / "small.json", tmp_path / "big.json", tmp_path / "d.json"
    for n, prob in ((8, small), (10, big)):
        assert run(["random", "--seed", 7, "--n", n, "--p", 2,
                    "--class", "hermitian", "--out", prob]) == 0
    assert run(["solve", "--input", big, "--out", delta]) == 0
    return small, big, delta


class TestSolve:
    def test_reference_quadratic_problem(self, tmp_path):
        # the bundled Hermitian example expressed as a problem file
        case = CASES["herm-6.1"]
        pf = fileio.ProblemFile(
            structure="hermitian",
            m=case.m,
            k=case.k,
            change=fileio.PairBlock(eigenvalues=np.array(case.lam_change)),
            targets=fileio.PairBlock(eigenvalues=np.array(case.lam_target)),
            parameters={"z1": case.z1, "z2": case.z2},
            quadratic=True,
        )
        prob = tmp_path / "prob.json"
        out = tmp_path / "delta.json"
        fileio.save_problem(prob, pf)
        assert run(["solve", "--input", prob, "--out", out]) == 0
        doc = json.loads(out.read_text())
        cert = doc["certificate"]
        assert cert["pass"]
        assert cert["spillover_residual"] <= 1e-11
        dm = fileio.load_delta(out).delta_m
        dev = np.abs(dm - case.printed_delta_m).max() / np.abs(
            case.printed_delta_m
        ).max()
        assert dev <= 5e-4

    def test_unchanged_targets_zero_delta(self, tmp_path):
        planted = plant_problem(1, 6, 2, "hermitian")
        pf = fileio.ProblemFile(
            structure="hermitian",
            m=planted.pencil.m,
            k=planted.pencil.k,
            change=fileio.PairBlock(x=planted.change.x, lam=planted.change.lam),
            targets=fileio.PairBlock(lam=planted.change.lam),
        )
        prob = tmp_path / "prob.json"
        out = tmp_path / "delta.json"
        fileio.save_problem(prob, pf)
        assert run(["solve", "--input", prob, "--out", out]) == 0
        back = fileio.load_delta(out)
        dm, dk = back.delta_m, back.delta_k
        assert np.abs(dm).max() <= 1e-12
        assert np.abs(dk).max() <= 1e-12

    def test_singular_gramian_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4))
        m = a - a.T
        b = rng.standard_normal((4, 4))
        k = b + b.T
        pencil = StructuredPencil(m, k, T_EVEN)
        eigs = pencil.eig()
        x = eigs[0].vector.reshape(-1, 1)  # x^T M x = 0: G is singular
        pf = fileio.ProblemFile(
            structure="t-even",
            m=m,
            k=k,
            change=fileio.PairBlock(x=x, lam=np.array([[eigs[0].value]])),
            targets=fileio.PairBlock(lam=np.array([[2.0 * eigs[0].value]])),
        )
        prob = tmp_path / "prob.json"
        fileio.save_problem(prob, pf)
        code = run(["solve", "--input", prob, "--out", tmp_path / "d.json"])
        assert code == 3
        assert "SingularG" in capsys.readouterr().err

    def test_schema_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["solve", "--input", bad, "--out", tmp_path / "d.json"]) == 2

    def test_unstructured_path(self, tmp_path):
        planted = plant_problem(3, 6, 2, "symmetric")
        pf = fileio.ProblemFile(
            structure="unstructured",
            m=planted.pencil.m,
            k=planted.pencil.k,
            change=fileio.PairBlock(x=planted.change.x, lam=planted.change.lam),
            targets=fileio.PairBlock(lam=planted.target_lam),
            fixed=fileio.PairBlock(x=planted.fixed.x, lam=planted.fixed.lam),
        )
        prob = tmp_path / "prob.json"
        out = tmp_path / "delta.json"
        fileio.save_problem(prob, pf)
        assert run(["solve", "--input", prob, "--out", out, "--unstructured"]) == 0
        # a dense delta file; nothing else in it is larger than n x p
        doc = json.loads(out.read_text())
        assert doc["format"] == 1 and "factors" not in doc
        arrays = [v for v in doc["provenance"].values() if isinstance(v, list)]
        n, p = planted.change.x.shape
        assert arrays and all(np.size(v) // 2 <= n * p for v in arrays)

    def test_unstructured_needs_fixed_exit_3(self, tmp_path):
        planted = plant_problem(4, 5, 2, "symmetric")
        pf = fileio.ProblemFile(
            structure="unstructured",
            m=planted.pencil.m,
            k=planted.pencil.k,
            change=fileio.PairBlock(x=planted.change.x, lam=planted.change.lam),
            targets=fileio.PairBlock(lam=planted.target_lam),
        )
        prob = tmp_path / "prob.json"
        fileio.save_problem(prob, pf)
        assert run(["solve", "--input", prob, "--out", tmp_path / "d.json"]) == 3

    @pytest.mark.parametrize(
        "structure, m, k, lam_change, lam_target, definite",
        [
            # mu = -k/m = 1, 4, 9; lambda^2 = mu
            ("hermitian", np.diag([1.0, -1.0, 2.0]), np.diag([-1.0, 4.0, -18.0]),
             [1.0], [1.5], "M"),
            # mu = -k/m = i, -0.5i, 2/3 i
            ("star-even", np.diag([1j, 2j, 3j]), np.diag([1.0, -1.0, 2.0]),
             [np.sqrt(0.5) * (1 + 1j)], [1 + 1j], "K"),
        ],
        ids=["hermitian-indefinite-m", "star-even-indefinite-k"],
    )
    def test_indefinite_quadratic_exit_3(
        self, tmp_path, capsys, structure, m, k, lam_change, lam_target, definite
    ):
        pf = fileio.ProblemFile(
            structure=structure,
            m=m,
            k=k,
            change=fileio.PairBlock(eigenvalues=np.array(lam_change, dtype=complex)),
            targets=fileio.PairBlock(eigenvalues=np.array(lam_target, dtype=complex)),
            quadratic=True,
        )
        prob = tmp_path / "prob.json"
        fileio.save_problem(prob, pf)
        assert run(["solve", "--input", prob, "--out", tmp_path / "d.json"]) == 3
        err = capsys.readouterr().err
        assert f"error: NotPositiveDefinite: {definite} must be positive definite" in err

    def test_quadratic_solve_loads_no_scipy_optimize(self, tmp_path):
        """A passing quadratic solve settles its assignment without scipy.optimize."""
        case = CASES["herm-6.1"]
        pf = fileio.ProblemFile(
            structure="hermitian",
            m=case.m,
            k=case.k,
            change=fileio.PairBlock(eigenvalues=np.array(case.lam_change)),
            targets=fileio.PairBlock(eigenvalues=np.array(case.lam_target)),
            parameters={"z1": case.z1, "z2": case.z2},
            quadratic=True,
        )
        prob = tmp_path / "prob.json"
        fileio.save_problem(prob, pf)
        code = (
            "import sys\n"
            "from nospillover.cli import main\n"
            f"rc = main(['solve', '--input', {str(prob)!r}, '--out', {str(tmp_path / 'd.json')!r}])\n"
            "assert rc == 0, rc\n"
            "loaded = [m for m in sys.modules if m.startswith('scipy.optimize')]\n"
            "assert not loaded, loaded\n"
        )
        proc = run_fresh_python(code)
        assert proc.returncode == 0, proc.stderr


class TestVerify:
    def test_round_trip_verify(self, tmp_path):
        planted = plant_problem(5, 6, 2, "hermitian")
        pf = fileio.ProblemFile(
            structure="hermitian",
            m=planted.pencil.m,
            k=planted.pencil.k,
            change=fileio.PairBlock(x=planted.change.x, lam=planted.change.lam),
            targets=fileio.PairBlock(lam=planted.target_lam),
            parameters={"t": 0.2},
        )
        prob = tmp_path / "prob.json"
        delta = tmp_path / "delta.json"
        fileio.save_problem(prob, pf)
        assert run(["solve", "--input", prob, "--out", delta]) == 0
        # pairs file: targets are the change vectors with the new lambda,
        # fixed is the hidden complementary pair
        pairs = tmp_path / "pairs.json"
        doc = {
            "format": 1,
            "targets": {
                "x": fileio.encode_matrix(planted.change.x),
                "lambda": fileio.encode_matrix(planted.target_lam),
            },
            "fixed": {
                "x": fileio.encode_matrix(planted.fixed.x),
                "lambda": fileio.encode_matrix(planted.fixed.lam),
            },
        }
        pairs.write_text(json.dumps(doc))
        assert (
            run(["verify", "--pencil", prob, "--delta", delta, "--pairs", pairs])
            == 0
        )

    def test_fixed_only_pairs_catch_spillover(self, tmp_path, capsys):
        prob, delta = tmp_path / "prob.json", tmp_path / "delta.json"
        assert run(["random", "--seed", 4, "--n", 8, "--p", 2,
                    "--class", "star-even", "--out", prob]) == 0
        assert run(["solve", "--input", prob, "--out", delta]) == 0
        doc = json.loads(delta.read_text())
        # U^star X_f = 0 keeps the fixed pair; a changed right factor breaks it
        doc["factors"]["right"][0][0][0] += 1e-3
        delta.write_text(json.dumps(doc))
        capsys.readouterr()
        verify = ["verify", "--pencil", prob, "--delta", delta, "--pairs"]
        assert run(verify + [str(prob) + ".fixed.json"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL"
        empty = tmp_path / "empty.json"
        empty.write_text('{"format": 1}')
        assert run(verify + [empty]) == 2

    def test_format_1_delta_still_verifies(self, capsys):
        # written by the dense writer that preceded delta format 2
        data = Path(__file__).parent / "data"
        prob, delta = data / "star-even-n8.json", data / "star-even-n8.format1.delta.json"
        doc = json.loads(delta.read_text())
        assert doc["format"] == 1
        back = fileio.load_delta(delta)
        dm, dk = back.delta_m, back.delta_k
        assert np.array_equal(dm, fileio.decode_matrix(doc["delta_m"], "delta_m"))
        assert np.array_equal(dk, fileio.decode_matrix(doc["delta_k"], "delta_k"))
        assert run(["verify", "--pencil", prob, "--delta", delta,
                    "--pairs", str(prob) + ".fixed.json"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"

    def test_delta_of_other_size_exit_2(self, tmp_path, capsys):
        small, big, delta = problems_of_two_sizes(tmp_path)
        dense = Path(__file__).parent / "data" / "star-even-n8.format1.delta.json"
        for pencil, delta_file, pairs in ((small, delta, f"{small}.fixed.json"),
                                          (big, dense, f"{big}.fixed.json")):
            capsys.readouterr()
            assert run(["verify", "--pencil", pencil, "--delta", delta_file,
                        "--pairs", pairs]) == 2
            err = capsys.readouterr().err
            assert "delta file" in err and "n=10" in err and "n=8" in err

    def test_pairs_of_other_size_exit_2(self, tmp_path, capsys):
        small, big, delta = problems_of_two_sizes(tmp_path)
        capsys.readouterr()
        assert run(["verify", "--pencil", big, "--delta", delta,
                    "--pairs", f"{small}.fixed.json"]) == 2
        err = capsys.readouterr().err
        assert "pairs file" in err and "n=8" in err and "n=10" in err

    def test_corrupted_delta_fails(self, tmp_path):
        planted = plant_problem(6, 5, 2, "hermitian")
        pf = fileio.ProblemFile(
            structure="hermitian",
            m=planted.pencil.m,
            k=planted.pencil.k,
            change=fileio.PairBlock(x=planted.change.x, lam=planted.change.lam),
            targets=fileio.PairBlock(lam=planted.target_lam),
        )
        prob = tmp_path / "prob.json"
        delta = tmp_path / "delta.json"
        fileio.save_problem(prob, pf)
        run(["solve", "--input", prob, "--out", delta])
        doc = json.loads(delta.read_text())
        doc["factors"]["khat"][0][0] = [1.0, 1.0]  # corrupt one entry
        delta.write_text(json.dumps(doc))
        pairs = tmp_path / "pairs.json"
        pairs.write_text(
            json.dumps(
                {
                    "format": 1,
                    "targets": {
                        "x": fileio.encode_matrix(planted.change.x),
                        "lambda": fileio.encode_matrix(planted.target_lam),
                    },
                }
            )
        )
        assert (
            run(["verify", "--pencil", prob, "--delta", delta, "--pairs", pairs])
            == 1
        )


class TestReproduce:
    @pytest.mark.parametrize("case_id", list(CASES))
    def test_each_case_passes(self, case_id, capsys):
        assert run(["reproduce", case_id]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out


class TestRandom:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(["random", "--seed", 9, "--n", 7, "--p", 2,
                    "--class", "hermitian", "--out", a]) == 0
        assert run(["random", "--seed", 9, "--n", 7, "--p", 2,
                    "--class", "hermitian", "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert Path(str(a) + ".fixed.json").read_bytes() == Path(
            str(b) + ".fixed.json"
        ).read_bytes()

    @pytest.mark.parametrize(
        "klass,n,p",
        [
            ("symmetric", 6, 3),
            ("hermitian", 8, 3),
            ("t-odd", 7, 2),
            ("star-odd", 6, 2),
            ("t-even", 8, 2),
            ("star-even", 6, 2),
            ("star-shh", 8, 3),
            ("t-shh", 8, 2),
        ],
    )
    def test_generated_problem_solves_and_verifies(self, tmp_path, capsys, klass, n, p):
        prob = tmp_path / "prob.json"
        delta = tmp_path / "delta.json"
        assert run(["random", "--seed", 11, "--n", n, "--p", p,
                    "--class", klass, "--out", prob]) == 0
        assert run(["solve", "--input", prob, "--out", delta]) == 0
        capsys.readouterr()
        # the documented round trip: verify against the hidden fixed pair
        assert run(["verify", "--pencil", prob, "--delta", delta,
                    "--pairs", str(prob) + ".fixed.json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("spillover residual") and lines[-1] == "PASS"
        # certify against the hidden fixed pair
        pf = fileio.load_problem(prob)
        hidden = fileio.load_pairs(str(prob) + ".fixed.json")["fixed"]
        back = fileio.load_delta(delta)
        m1, k1 = pf.m + back.delta_m, pf.k + back.delta_k
        from nospillover.linalg import fnorm

        res = fnorm(m1 @ hidden.x @ hidden.lam + k1 @ hidden.x)
        assert res <= 1e-9 * (fnorm(m1) * (1 + fnorm(hidden.lam)) + fnorm(k1))

    @pytest.mark.parametrize("klass,p", [("star-shh", 3), ("t-shh", 2)])
    def test_shh_solve_prints_structure_of_j_pencil(self, tmp_path, capsys, klass, p):
        prob = tmp_path / "prob.json"
        assert run(["random", "--seed", 11, "--n", 8, "--p", p,
                    "--class", klass, "--out", prob]) == 0
        capsys.readouterr()
        assert run(["solve", "--input", prob, "--out", tmp_path / "delta.json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [ln.split()[0] for ln in lines if ln.startswith("structure[")]
        assert names == ["structure[jm_updated_skew]", "structure[jk_updated_sym]"]
        assert all(float(ln.split()[1]) <= 1e-12 for ln in lines if ln.startswith("structure["))
        assert lines[-1] == "PASS"

    @pytest.mark.parametrize("klass", ["hermitian", "star-shh"])
    def test_delta_file_is_small(self, tmp_path, klass):
        # the rank-p factors of an n=120 update, not two dense 120 x 120 matrices
        prob, delta = tmp_path / "prob.json", tmp_path / "delta.json"
        assert run(["random", "--seed", 7, "--n", 120, "--p", 4,
                    "--class", klass, "--out", prob]) == 0
        assert run(["solve", "--input", prob, "--out", delta]) == 0
        assert json.loads(delta.read_text())["format"] == 2
        assert delta.stat().st_size < 100_000

    def test_bad_class_exit_2(self, tmp_path):
        assert run(["random", "--seed", 1, "--n", 6, "--p", 2,
                    "--class", "nope", "--out", tmp_path / "x.json"]) == 2


class TestTolOverride:
    def test_loose_tolerance_turns_failure_into_pass(self, tmp_path):
        planted = plant_problem(7, 5, 2, "hermitian")
        pf = fileio.ProblemFile(
            structure="hermitian",
            m=planted.pencil.m,
            k=planted.pencil.k,
            change=fileio.PairBlock(x=planted.change.x, lam=planted.change.lam),
            targets=fileio.PairBlock(lam=planted.target_lam),
        )
        prob = tmp_path / "prob.json"
        delta = tmp_path / "delta.json"
        fileio.save_problem(prob, pf)
        run(["solve", "--input", prob, "--out", delta])
        doc = json.loads(delta.read_text())
        doc["factors"]["khat"][0][0][0] += 1e-4
        delta.write_text(json.dumps(doc))
        pairs = tmp_path / "pairs.json"
        pairs.write_text(
            json.dumps(
                {
                    "format": 1,
                    "targets": {
                        "x": fileio.encode_matrix(planted.change.x),
                        "lambda": fileio.encode_matrix(planted.target_lam),
                    },
                }
            )
        )
        strict = run(["verify", "--pencil", prob, "--delta", delta, "--pairs", pairs])
        loose = run(["verify", "--pencil", prob, "--delta", delta,
                     "--pairs", pairs, "--tol", 1.0])
        assert strict == 1 and loose == 0
