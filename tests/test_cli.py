"""End-to-end command line tests (exit codes, files, determinism)."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import fresh_python_env, run_fresh_python, same_values

from nospillover import fileio, randomgen
from nospillover.cases import CASES, run_case
from nospillover.cli import main
from nospillover.errors import NotEigenpair
from nospillover.linalg import TAU_STRUCT
from nospillover.pencil import T_EVEN, StructuredPencil
from nospillover.randomgen import RANDOM_CLASSES, plant_problem


DATA = Path(__file__).parent / "data"


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


def mislabelled_problem(tmp_path):
    """A hermitian problem file relabelled symmetric, with the delta file and
    fixed pairs of the correctly labelled one."""
    prob, bad, delta = tmp_path / "prob.json", tmp_path / "bad.json", tmp_path / "d.json"
    assert run(["random", "--seed", 7, "--n", 8, "--p", 2,
                "--class", "hermitian", "--out", prob]) == 0
    assert run(["solve", "--input", prob, "--out", delta]) == 0
    doc = json.loads(prob.read_text())
    doc["structure"] = "symmetric"
    bad.write_text(json.dumps(doc))
    return bad, delta, f"{prob}.fixed.json"


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

    def test_structure_not_matching_pencil_exit_3(self, tmp_path, capsys):
        bad, _, _ = mislabelled_problem(tmp_path)
        capsys.readouterr()
        assert run(["solve", "--input", bad, "--out", tmp_path / "out.json"]) == 3
        assert "error: NotStructured: pencil does not have symmetric structure" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("klass", RANDOM_CLASSES)
    def test_unstructured_core_fails_the_certificate(self, tmp_path, capsys, klass):
        # one rule for every class: a core that breaks the structure is no
        # precondition error but a failed certificate, exit 1
        prob, bad = tmp_path / "prob.json", tmp_path / "bad.json"
        assert run(["random", "--seed", 11, "--n", 8, "--p", 2,
                    "--class", klass, "--out", prob]) == 0
        pf = fileio.load_problem(prob)
        p = pf.change.lam.shape[0]
        pf.parameters = {"z1": np.eye(p) + np.triu(np.ones((p, p)), 1)}
        fileio.save_problem(bad, pf)
        capsys.readouterr()
        assert run(["solve", "--input", bad, "--out", tmp_path / "d.json"]) == 1
        lines = capsys.readouterr().out.splitlines()
        structure = [float(ln.split()[1]) for ln in lines if ln.startswith("structure[")]
        assert lines[-1] == "FAIL" and max(structure) > TAU_STRUCT

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

    @pytest.mark.parametrize("second", ["mhat", "strategy"])
    def test_quadratic_file_with_two_core_sources_exit_3(self, tmp_path, capsys, second):
        doc = json.loads((DATA / "herm-6.1.quadratic.json").read_text())
        params = doc["parameters"]
        params[second] = params["z1"] if second == "mhat" else "psd-minimal"
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps(doc))
        assert run(["solve", "--input", prob, "--out", tmp_path / "d.json"]) == 3
        assert "error: BadParameters: the core comes from one of" in capsys.readouterr().err
        assert not (tmp_path / "d.json").exists()

    def test_t_shh_file_runs_the_library_update(self, tmp_path):
        prob, delta = tmp_path / "prob.json", tmp_path / "d.json"
        assert run(["random", "--seed", 7, "--n", 8, "--p", 2,
                    "--class", "t-shh", "--out", prob]) == 0
        assert run(["solve", "--input", prob, "--out", delta]) == 0
        doc = json.loads(delta.read_text())
        assert doc["provenance"]["method"] == "t-shh"
        # the real parts are kept: every imaginary part is +0.0
        imag = [z[1] for f in doc["factors"].values() for row in f for z in row]
        assert imag == [0.0] * len(imag) and not np.signbit(imag).any()

    def test_complex_t_shh_pencil_exit_3(self, tmp_path, capsys):
        prob, bad = tmp_path / "prob.json", tmp_path / "bad.json"
        assert run(["random", "--seed", 7, "--n", 8, "--p", 2,
                    "--class", "t-shh", "--out", prob]) == 0
        doc = json.loads(prob.read_text())
        # M + 1e-3i J^T S with S skew (S[0, 1] = 1) is still T-SHH, and complex
        doc["m"][4][1][1] += 1e-3
        doc["m"][5][0][1] -= 1e-3
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["solve", "--input", bad, "--out", tmp_path / "d.json"]) == 3
        assert capsys.readouterr().err == "error: ComplexInput: T-SHH update needs a real pencil\n"
        assert not (tmp_path / "d.json").exists()

    @pytest.mark.parametrize("token", ["NaN", "1e400"])
    def test_non_finite_problem_entry_exit_3(self, tmp_path, capsys, token):
        # stdlib json reads both tokens (1e400 as inf); the pencil refuses them
        doc = json.loads((DATA / "star-even-n8.json").read_text())
        doc["m"][0][0][0] = "TOKEN"
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps(doc).replace('"TOKEN"', token))
        capsys.readouterr()
        assert run(["solve", "--input", prob, "--out", tmp_path / "d.json"]) == 3
        assert capsys.readouterr().err == "error: NonFiniteEntries: M contains NaN or Inf entries\n"

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        capsys.readouterr()
        assert run(["solve", "--input", bad, "--out", tmp_path / "d.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: cannot read problem file: 'utf-8' codec can't decode")

    def test_quadratic_solve_loads_no_scipy(self, tmp_path):
        """A passing quadratic solve runs on numpy alone: the eigendata and
        the spectrum oracle come from the Hermitian-definite reduction."""
        prob = DATA / "herm-6.1.quadratic.json"
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
        # the checked-in problem is the herm-6.1 reference case, and the
        # writer writes its values
        again = tmp_path / "again.json"
        fileio.save_problem(again, pf)
        assert same_values(json.loads(again.read_text()), json.loads(prob.read_text()))
        out = tmp_path / "d.json"
        code = (
            "import sys\n"
            "from nospillover.cli import main\n"
            f"rc = main(['solve', '--input', {str(prob)!r}, '--out', {str(out)!r}])\n"
            "assert rc == 0, rc\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n"
        )
        proc = run_fresh_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "PASS"
        spectrum = json.loads(out.read_text())["certificate"]["spectrum"]
        assert spectrum["oracle"] == "definite" and spectrum["unmatched"] == 0


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

    @pytest.mark.parametrize("klass", ["star-shh", "t-shh"])
    def test_tampered_shh_core_fails(self, tmp_path, capsys, klass):
        # U^star X_f = 0 hides a changed core from the spillover residual;
        # the structure residuals of J L(lambda) still see it
        prob, delta = tmp_path / "prob.json", tmp_path / "delta.json"
        assert run(["random", "--seed", 11, "--n", 8, "--p", 2,
                    "--class", klass, "--out", prob]) == 0
        assert run(["solve", "--input", prob, "--out", delta]) == 0
        verify = ["verify", "--pencil", prob, "--delta", delta,
                  "--pairs", f"{prob}.fixed.json"]
        capsys.readouterr()
        assert run(verify) == 0
        names = [ln.split()[0] for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("structure[")]
        assert names == ["structure[jm_updated_skew]", "structure[jk_updated_sym]"]
        doc = json.loads(delta.read_text())
        khat = fileio.decode_matrix(doc["factors"]["khat"], "khat")
        doc["factors"]["khat"] = fileio.encode_matrix(khat + 0.5 * np.triu(np.ones_like(khat), 1))
        delta.write_text(json.dumps(doc))
        assert run(verify) == 1
        lines = capsys.readouterr().out.splitlines()
        sym = [float(ln.split()[1]) for ln in lines if ln.startswith("structure[jk_updated_sym]")]
        assert sym[0] > 1e-3 and lines[-1] == "FAIL"

    def test_structure_not_matching_pencil_exit_3(self, tmp_path, capsys):
        bad, delta, pairs = mislabelled_problem(tmp_path)
        capsys.readouterr()
        assert run(["verify", "--pencil", bad, "--delta", delta, "--pairs", pairs]) == 3
        assert "error: NotStructured: pencil does not have symmetric structure" in (
            capsys.readouterr().err
        )

    def test_format_1_delta_still_verifies(self, capsys):
        # written by the dense writer that preceded delta format 2
        prob, delta = DATA / "star-even-n8.json", DATA / "star-even-n8.format1.delta.json"
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
        dense = DATA / "star-even-n8.format1.delta.json"
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

    def test_pencil_of_unequal_sizes_exit_2(self, tmp_path, capsys):
        small, big, delta = problems_of_two_sizes(tmp_path)
        doc = json.loads(small.read_text())
        doc["k"] = json.loads(big.read_text())["k"]  # n=8 m, n=10 k
        pencil = tmp_path / "pencil.json"
        pencil.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--pencil", pencil, "--delta", delta,
                    "--pairs", f"{big}.fixed.json"]) == 2
        err = capsys.readouterr().err
        assert "schema error: m and k must be square matrices of equal size" in err

    def test_pairs_lambda_not_fitting_x_exit_2(self, tmp_path, capsys):
        small, big, delta = problems_of_two_sizes(tmp_path)
        pairs = tmp_path / "pairs.json"
        doc = json.loads(Path(f"{big}.fixed.json").read_text())
        doc["fixed"]["lambda"] = [row[:-1] for row in doc["fixed"]["lambda"][:-1]]
        pairs.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--pencil", big, "--delta", delta, "--pairs", pairs]) == 2
        err = capsys.readouterr().err
        assert "schema error: fixed.lambda is 7 x 7, but fixed.x has 8 columns" in err

    @pytest.mark.parametrize("flag, what", [("--pencil", "pencil"), ("--delta", "delta"),
                                            ("--pairs", "pairs")])
    def test_non_utf8_file_exit_2(self, tmp_path, capsys, flag, what):
        prob, delta = tmp_path / "prob.json", tmp_path / "d.json"
        assert run(["random", "--seed", 7, "--n", 8, "--p", 2,
                    "--class", "hermitian", "--out", prob]) == 0
        assert run(["solve", "--input", prob, "--out", delta]) == 0
        args = {"--pencil": prob, "--delta": delta, "--pairs": f"{prob}.fixed.json"}
        args[flag] = tmp_path / "bad.json"
        args[flag].write_bytes(b"\xff\xfe{}")
        capsys.readouterr()
        assert run(["verify", *(x for item in args.items() for x in item)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"schema error: cannot read {what} file: 'utf-8' codec can't decode")

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


# the report lines after the residuals of each case, with the numbers masked
REPORT_TAIL = {
    "herm-6.1": ["structure dM hermitian", "structure dK hermitian",
                 "structure updated M tag", "structure updated K tag",
                 "min eig delta_m", "min eig delta_k"],
    "odd-6.2": ["structure dM hermitian", "structure dK skew-hermitian",
                "structure updated M tag", "structure updated K tag", "min eig delta_m"],
    "even-6.3": ["structure dM skew-hermitian", "structure dK hermitian",
                 "structure updated M tag", "structure updated K tag", "min eig delta_k"],
    "shh-7": ["structure J dM skew-hermitian", "structure J dK hermitian"],
}


class TestReproduce:
    @pytest.mark.parametrize("case_id", list(CASES))
    def test_each_case_passes(self, case_id, capsys):
        assert run(["reproduce", case_id]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_brief_report_lines(self, capsys):
        assert run(["reproduce", "all", "--brief"]) == 0
        masked = re.sub(r"-?\d+(\.\d+)?e[+-]\d+", "#", capsys.readouterr().out)
        expected = []
        for case_id, tail in REPORT_TAIL.items():
            expected += [
                f"case {case_id}",
                "  max scaled deviation dM: # (bound #)",
                "  max scaled deviation dK: # (bound #)",
                "  spillover residual:      # (published #, bound #)",
                "  target residual:         #",
                *(f"  {label}: #" for label in tail),
                "  PASS",
            ]
        assert masked.splitlines() == expected

    def test_closed_stdout_exits_141_quietly(self):
        # the reader is gone before the first write, as for `reproduce all | head -n 1`
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "nospillover.cli", "reproduce", "herm-6.1", "--brief"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=fresh_python_env(),
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_reproduce_loads_no_json_library(self):
        # fileio imports json and orjson where a file is first read or written;
        # scipy's own imports bring json in during reproduce, but not orjson
        code = (
            "import io, sys, contextlib\n"
            "from nospillover.cli import main\n"
            "loaded = [m for m in ('json', 'orjson') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['reproduce', 'all', '--brief']) == 0\n"
            "assert 'orjson' not in sys.modules\n"
        )
        proc = run_fresh_python(code)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("case_id", list(CASES))
    def test_residuals_are_the_certificates(self, case_id):
        report = run_case(case_id)
        assert report.certificate.passed
        assert report.spillover == report.certificate.spillover_residual
        assert report.target_residual == report.certificate.target_residual
        # a failing certificate fails the case, whatever the printed-matrix bounds
        failing = dataclasses.replace(report.certificate, tol_defl=0.0)
        assert not dataclasses.replace(report, certificate=failing).passed

    @pytest.mark.parametrize("case_id, far", [("herm-6.1", 30j), ("shh-7", 5 + 5j)])
    def test_unmatched_change_value_is_not_an_eigenpair(self, monkeypatch, case_id, far):
        # the quadratic and the SHH cases match wanted values the same way
        case = CASES[case_id]
        monkeypatch.setitem(CASES, case_id, dataclasses.replace(
            case, lam_change=(far,) + case.lam_change[1:]))
        with pytest.raises(NotEigenpair, match="no computed eigenvalue matches"):
            run_case(case_id)


class TestRandom:
    @pytest.mark.parametrize("klass", RANDOM_CLASSES)
    def test_deterministic_bytes(self, tmp_path, klass):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run(["random", "--seed", 9, "--n", 8, "--p", 2,
                        "--class", klass, "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert Path(str(a) + ".fixed.json").read_bytes() == Path(
            str(b) + ".fixed.json"
        ).read_bytes()

    def test_random_loads_no_scipy(self, tmp_path):
        """Planting runs on numpy alone: the instance is assembled from its
        eigenbasis, with no QZ."""
        code = (
            "import sys\n"
            "from nospillover.cli import main\n"
            "from nospillover.randomgen import RANDOM_CLASSES\n"
            "for klass in RANDOM_CLASSES:\n"
            f"    out = {str(tmp_path)!r} + '/' + klass + '.json'\n"
            "    rc = main(['random', '--seed', '7', '--n', '12', '--p', '2',\n"
            "               '--class', klass, '--out', out])\n"
            "    assert rc == 0, (klass, rc)\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n"
        )
        proc = run_fresh_python(code)
        assert proc.returncode == 0, proc.stderr
        assert len(list(tmp_path.glob("*.fixed.json"))) == len(RANDOM_CLASSES)

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

    @pytest.mark.parametrize("klass", ["star-shh", "t-shh"])
    def test_odd_n_for_shh_exit_3(self, tmp_path, capsys, klass):
        out = tmp_path / "x.json"
        assert run(["random", "--seed", 1, "--n", 7, "--p", 2,
                    "--class", klass, "--out", out]) == 3
        assert "error: BadParameters: SHH instances need even n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("klass", ["star-shh", "t-shh"])
    def test_no_fixed_pair_left_exit_3(self, tmp_path, capsys, klass):
        # at n=2 every split changes the whole spectrum: no attempt is accepted
        assert run(["random", "--seed", 1, "--n", 2, "--p", 2,
                    "--class", klass, "--out", tmp_path / "x.json"]) == 3
        assert "error: BadParameters: could not plant" in capsys.readouterr().err

    @pytest.mark.parametrize("klass", ["t-odd", "t-even"])
    def test_odd_p_at_even_n_exit_3(self, tmp_path, capsys, monkeypatch, klass):
        # lambda pairs with -lambda and no value is its own partner: refused
        # before any attempt runs its QZ
        monkeypatch.setattr(randomgen, "_plant", None)
        assert run(["random", "--seed", 1, "--n", 8, "--p", 3,
                    "--class", klass, "--out", tmp_path / "x.json"]) == 3
        err = capsys.readouterr().err
        assert f"error: BadParameters: {klass} instances at even n need even p" in err

    def test_t_odd_odd_p_at_odd_n(self, tmp_path):
        # at odd n the skew-symmetric K has a zero eigenvalue, its own partner
        assert run(["random", "--seed", 1, "--n", 9, "--p", 3,
                    "--class", "t-odd", "--out", tmp_path / "x.json"]) == 0

    @pytest.mark.parametrize("p", [0, -1])
    def test_star_shh_without_change_values_exit_3(self, tmp_path, capsys, monkeypatch, p):
        monkeypatch.setattr(randomgen, "_plant", None)
        assert run(["random", "--seed", 1, "--n", 8, "--p", p,
                    "--class", "star-shh", "--out", tmp_path / "x.json"]) == 3
        assert "error: BadParameters: star-shh instances need p >= 1" in capsys.readouterr().err

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
