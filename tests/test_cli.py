"""End-to-end command line tests (exit codes, files, determinism)."""

import ast
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import fresh_python_env, run_fresh_python, same_values, t_shh_shape

from nospillover import cli, dispatch, fileio, randomgen
from nospillover.cases import CASES, run_case
from nospillover.cli import main
from nospillover.errors import NotEigenpair, SchemaError
from nospillover.linalg import TAU_STRUCT
from nospillover.pencil import T_EVEN, StructuredPencil
from nospillover.randomgen import RANDOM_CLASSES, plant_problem
from nospillover.shh import t_shh_mhat
from nospillover.special import solve_quadratic
from nospillover.structured import core_from_parameters


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


def unstructured_problem(tmp_path, klass, n, p):
    """A ``random`` file of class ``klass`` (seed 7) relabelled unstructured,
    with its fixed pair merged in and no parameters, as tmp_path/prob.json;
    its pairs are still at tmp_path/prob.json.fixed.json."""
    prob = tmp_path / "prob.json"
    assert run(["random", "--seed", 7, "--n", n, "--p", p, "--class", klass, "--out", prob]) == 0
    doc = json.loads(prob.read_text())
    doc.update(structure="unstructured", parameters=None,
               fixed=json.loads(Path(f"{prob}.fixed.json").read_text())["fixed"])
    prob.write_text(json.dumps(doc))
    return prob


def with_parameters(tmp_path, source, **params):
    """The herm-6.1 quadratic fixture (``source`` None) or a ``random`` file
    of class ``source`` (seed 7, n=8, p=2), with ``params`` set in its
    parameters, as tmp_path/prob.json."""
    prob = tmp_path / "prob.json"
    if source is None:
        doc = json.loads((DATA / "herm-6.1.quadratic.json").read_text())
    else:
        assert run(["random", "--seed", 7, "--n", 8, "--p", 2,
                    "--class", source, "--out", prob]) == 0
        doc = json.loads(prob.read_text())
    doc["parameters"].update(params)
    prob.write_text(json.dumps(doc))
    return prob


def refused(tmp_path, capsys, prob, code):
    """The stderr of a ``solve`` of ``prob`` that exits ``code`` and writes no
    delta file."""
    capsys.readouterr()
    assert run(["solve", "--input", prob, "--out", tmp_path / "d.json"]) == code
    assert not (tmp_path / "d.json").exists()
    return capsys.readouterr().err


# the z1 of the herm-6.1 fixture: a diagonal, [re, im] per entry
_DIAG = [[0.0, 0.0], [0.021592, 0.0]]


class TestSolve:
    def test_reference_quadratic_problem(self, tmp_path):
        # the bundled Hermitian example's own problem file
        case = CASES["herm-6.1"]
        prob = tmp_path / "prob.json"
        out = tmp_path / "delta.json"
        fileio.save_problem(prob, case.problem())
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
        assert run(["solve", "--input", prob, "--out", out]) == 0
        # the factors of a rank-p update, with a p x 2p core; the provenance holds no copy
        doc = json.loads(out.read_text())
        assert doc["format"] == 2 and "delta_m" not in doc
        n, p = planted.change.x.shape
        shapes = [np.shape(doc["factors"][key])[:2] for key in fileio._FACTOR_NAMES]
        assert shapes == [(n, p), (p, 2 * p), (p, 2 * p), (2 * p, n)]
        assert doc["provenance"] == {"method": "general-family"}

    def test_unstructured_delta_file_is_small(self, tmp_path):
        # as for the structured classes: n=120 factors, not two dense 120 x 120 matrices
        prob, delta = unstructured_problem(tmp_path, "t-odd", 120, 4), tmp_path / "delta.json"
        assert run(["solve", "--input", prob, "--out", delta]) == 0
        assert json.loads(delta.read_text())["format"] == 2
        assert delta.stat().st_size < 100_000

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

    @pytest.mark.parametrize(
        "second",
        ["mhat", "strategy", "hermitian+z1", "star-even+mhat", "t-shh+t"],
    )
    def test_quadratic_file_with_two_core_sources_exit_3(self, tmp_path, capsys, second):
        # next to the fixture's z1 and z2, a random file's t, or a t-shh file's mhat
        source, _, key = second.rpartition("+")
        value = {"t": 0.25, "strategy": "psd-minimal"}.get(key, _DIAG)
        prob = with_parameters(tmp_path, source or None, **{key: value})
        err = refused(tmp_path, capsys, prob, 3)
        assert "error: BadParameters: the core comes from one of" in err

    @pytest.mark.parametrize(
        "source, key, value",
        [
            (None, "t", 0.25),
            ("hermitian", "strategy", "psd-minimal"),
            ("star-even", "slack", 1.0),
        ],
        ids=["quadratic+t", "hermitian+strategy", "star-even+slack"],
    )
    def test_parameter_its_path_does_not_take_exit_2(self, tmp_path, capsys, source, key, value):
        prob = with_parameters(tmp_path, source, **{key: value})
        err = refused(tmp_path, capsys, prob, 2)
        assert re.fullmatch(f"schema error: a [a-z-]+ file reads no parameters.{key}\n", err)

    @pytest.mark.parametrize(
        "params, message",
        [({"strategy": "foo"}, "unknown strategy 'foo'"),
         ({"strategy": "psd-minimal", "slack": -1.0}, "slack must be nonnegative")],
        ids=["unknown-strategy", "negative-slack"],
    )
    def test_bad_quadratic_strategy_exit_3(self, tmp_path, capsys, params, message):
        doc = json.loads((DATA / "herm-6.1.quadratic.json").read_text())
        doc["parameters"] = params
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps(doc))
        assert f"error: BadParameters: {message}" in refused(tmp_path, capsys, prob, 3)

    @pytest.mark.parametrize(
        "key, value",
        [("t", "abc"), ("t", [1, 2]), ("quad_alpha", 5), ("num_quadruples", "x")],
        ids=["t-string", "t-list", "quad_alpha-number", "num_quadruples-string"],
    )
    def test_malformed_parameter_exit_2(self, tmp_path, capsys, key, value):
        prob = with_parameters(tmp_path, "hermitian", **{key: value})
        assert parameter_error(key) in refused(tmp_path, capsys, prob, 2)

    def test_core_of_other_size_exit_3(self, tmp_path, capsys):
        # the random file's t with a 3 x 3 target Lambda for its 2 change columns
        prob = with_parameters(tmp_path, "hermitian")
        doc = json.loads(prob.read_text())
        doc["targets"]["lambda"] = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
        prob.write_text(json.dumps(doc))
        err = refused(tmp_path, capsys, prob, 3)
        assert "error: DimensionMismatch: G, Lambda_c, Lambda_a must all be p x p" in err

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
            "# the spectrum match's assignment test imports no numpy.ma\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        proc = run_fresh_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "PASS"
        spectrum = json.loads(out.read_text())["certificate"]["spectrum"]
        assert spectrum["oracle"] == "definite" and spectrum["unmatched"] == 0


# every solve path: unstructured, quadratic, and the structured path of each structure
SOLVE_PATHS = ("unstructured", "quadratic") + RANDOM_CLASSES
# a value of each JSON type of fileio.PARAMETERS, and of the types the
# removed keys had, and values of other types
VALID = {"number": 0.25, "string": "psd-minimal", "matrix": _DIAG, "integer": 1,
         "list of numbers": [0.5]}
WRONG = {"number": ["0.25", True], "string": [5, True], "matrix": ["x", True],
         "integer": [1.9, "1", True], "list of numbers": ["12", [True], 5]}


@pytest.fixture(scope="module")
def path_docs(tmp_path_factory):
    """A problem document of each solve path: a ``random`` file (seed 7,
    n=8, p=2) of each structure, the herm-6.1 quadratic fixture, and the
    symmetric file relabelled ``unstructured``, with no parameters."""
    tmp = tmp_path_factory.mktemp("paths")
    docs = {"quadratic": json.loads((DATA / "herm-6.1.quadratic.json").read_text())}
    for klass in RANDOM_CLASSES:
        assert run(["random", "--seed", 7, "--n", 8, "--p", 2,
                    "--class", klass, "--out", tmp / f"{klass}.json"]) == 0
        docs[klass] = json.loads((tmp / f"{klass}.json").read_text())
    docs["unstructured"] = dict(docs["symmetric"], structure="unstructured", parameters={})
    return docs


def problem_of_path(tmp_path, path_docs, path, **params):
    """tmp_path/prob.json: the document of solve path ``path``, with ``params``
    set in its parameters."""
    doc = dict(path_docs[path])
    doc["parameters"] = {**(doc["parameters"] or {}), **params}
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(doc))
    return prob


# the keys an earlier ``random`` wrote that no row takes: star-shh's count of
# couples, and the group counts and values of shh.t_shh_mhat, which a t-shh
# file gives as its mhat; each with the class whose files held it and the JSON
# type it had
REMOVED_KEYS = {
    "num_couples": ("star-shh", "integer"),
    **dict.fromkeys(("num_quadruples", "num_imag_pairs", "num_real_pairs"), ("t-shh", "integer")),
    **dict.fromkeys(
        ("quad_alpha", "quad_beta", "imag_beta", "real_beta"), ("t-shh", "list of numbers")
    ),
}


def reads_no(path: str, *names: str) -> str:
    """The schema error for fields or parameters ``names`` that the reader
    ``path`` (a solve path, or "pairs") does not read."""
    article = "an" if path == "unstructured" else "a"
    return f"schema error: {article} {path} file reads no {', '.join(names)}"


def needs(path: str, *names: str) -> str:
    """The schema error for fields ``names`` that the reader ``path`` needs
    and a given block lacks."""
    article = "an" if path == "unstructured" else "a"
    return f"schema error: {article} {path} file needs {', '.join(names)}"


def parameter_error(key: str) -> str:
    """The start of the schema error for a bad ``parameters`` entry ``key``:
    its row's, or, for a key no row takes, the unknown key's."""
    if key in fileio.PARAMETERS:
        return f"schema error: parameters.{key}: "
    return f"schema error: parameters: unknown key {key!r}"


def t_shh_names(path: Path) -> list[str]:
    """The ``t_shh_*`` names the module at ``path`` defines, imports or uses."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        for field in ("id", "attr", "name"):
            value = getattr(node, field, None)
            if isinstance(value, str) and value.startswith("t_shh_"):
                names.add(value)
    return sorted(names)


def parameter_literals(path: Path) -> list[str]:
    """The string literals of the module at ``path`` that name a row of
    ``fileio.PARAMETERS``."""
    source = path.read_text()
    return [
        f"{path.name}:{node.lineno} literal {node.value!r}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value in fileio.PARAMETERS
    ]


class TestParameterTable:
    @pytest.mark.parametrize(
        "key, value",
        [(key, value) for key, (kind, _) in fileio.PARAMETERS.items() for value in WRONG[kind]]
        + [(key, value) for key, (_, kind) in REMOVED_KEYS.items() for value in WRONG[kind]],
    )
    def test_value_of_another_type_exit_2(self, tmp_path, capsys, key, value):
        # a key no row takes has no type: a value of the type it had is
        # refused too (test_key_no_row_takes_exit_2)
        prob = with_parameters(tmp_path, "hermitian", **{key: value})
        assert parameter_error(key) in refused(tmp_path, capsys, prob, 2)

    @pytest.mark.parametrize(
        "key, path",
        [
            (key, path)
            for key, (_, paths) in fileio.PARAMETERS.items()
            for path in SOLVE_PATHS
            if path not in paths
        ],
    )
    def test_key_on_a_path_its_row_does_not_list_exit_2(self, tmp_path, capsys, path_docs, key, path):
        value = VALID[fileio.PARAMETERS[key][0]]
        prob = problem_of_path(tmp_path, path_docs, path, **{key: value})
        assert refused(tmp_path, capsys, prob, 2) == f"{reads_no(path, f'parameters.{key}')}\n"

    def test_rows_list_the_class_of_every_random_file(self, path_docs):
        for klass in RANDOM_CLASSES:
            assert all(klass in fileio.PARAMETERS[key][1] for key in path_docs[klass]["parameters"])

    def test_rows_are_the_arguments_they_feed(self):
        # the quadratic rows are solve_quadratic's keywords, the other core
        # sources core_from_parameters'
        rows = fileio.PARAMETERS
        quadratic = [key for key, (_, paths) in rows.items() if "quadratic" in paths]
        assert set(quadratic) <= set(inspect.signature(solve_quadratic).parameters)
        core = [key for key, (kind, paths) in rows.items()
                if "hermitian" in paths and kind in ("number", "matrix")]
        assert set(core) == set(inspect.signature(core_from_parameters).parameters) - {
            "g", "lam_c", "lam_a"}

    @pytest.mark.parametrize(
        "path, params, code",
        [
            ("star-even", {"t": "0.25"}, 2),
            ("star-even", {"t": True}, 2),
            ("t-shh", {"num_quadruples": 1.9}, 2),
            ("t-shh", {"quad_alpha": "12"}, 2),
            ("hermitian", {"num_couples": 1}, 2),
            ("quadratic", {"num_couples": 1}, 2),
            ("unstructured", {"t": 0.25, "mhat": _DIAG, "strategy": "psd-minimal"}, 2),
            ("quadratic", {"slack": 5.0}, 3),
        ],
        ids=["t-string", "t-true", "num_quadruples-1.9", "quad_alpha-string",
             "hermitian+num_couples", "quadratic+num_couples", "unstructured+t+mhat+strategy",
             "slack-without-strategy"],
    )
    def test_input_read_loosely_before_is_refused(
        self, tmp_path, capsys, path_docs, path, params, code
    ):
        # a T-SHH key or num_couples, read on some paths before, is now an
        # unknown key on every path; a key the path does not read names it
        prob = problem_of_path(tmp_path, path_docs, path, **params)
        err = refused(tmp_path, capsys, prob, code)
        if path == "unstructured":  # every key the path does not read, in one error
            assert err == reads_no(path, *(f"parameters.{key}" for key in params)) + "\n"
        else:
            assert err.startswith(parameter_error(*params) if code == 2 else "error: BadParameters: ")

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_quadratic_flag_not_a_boolean_exit_2(self, tmp_path, capsys, path_docs, value):
        prob = problem_of_path(tmp_path, path_docs, "quadratic")
        doc = json.loads(prob.read_text())
        doc["quadratic"] = value
        prob.write_text(json.dumps(doc))
        err = refused(tmp_path, capsys, prob, 2)
        assert err == "schema error: quadratic must be true or false\n"

    def test_quadratic_unstructured_file_exit_2(self, tmp_path, capsys, path_docs):
        # the quadratic flag is read: no unstructured file is quadratic
        prob = problem_of_path(tmp_path, path_docs, "quadratic")
        doc = json.loads(prob.read_text())
        doc["structure"] = "unstructured"
        prob.write_text(json.dumps(doc))
        err = refused(tmp_path, capsys, prob, 2)
        assert err.startswith("schema error: quadratic problems need structure in")

    def test_psd_strategy_certifies_both_deltas(self, tmp_path, path_docs):
        prob = problem_of_path(tmp_path, path_docs, "quadratic")
        doc = json.loads(prob.read_text())
        doc["parameters"] = {"strategy": "psd-minimal", "slack": 0.5}
        prob.write_text(json.dumps(doc))
        assert run(["solve", "--input", prob, "--out", tmp_path / "d.json"]) == 0
        cert = json.loads((tmp_path / "d.json").read_text())["certificate"]
        assert set(cert["definiteness"]) == {"delta_m", "delta_k"}

    def test_no_unstructured_flag(self, tmp_path, capsys):
        # a file's structure picks the unstructured path; solve has no flag for it
        prob = with_parameters(tmp_path, "symmetric")
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--input", prob, "--out", tmp_path / "d.json", "--unstructured"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --unstructured" in capsys.readouterr().err
        assert not (tmp_path / "d.json").exists()

    def test_cli_names_no_parameter(self):
        # neither the CLI nor its dispatch spells a parameter key
        for module in (cli, dispatch):
            assert parameter_literals(Path(module.__file__)) == []

    def test_scan_sees_parameter_literals(self, tmp_path):
        module = tmp_path / "module.py"
        module.write_text('"""t and mhat"""\nx = {"t": 1}.get("mhat", "tt")\n')
        assert sorted(f.split(" ", 1)[1] for f in parameter_literals(module)) == [
            "literal 'mhat'", "literal 't'"]

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_key_no_row_takes_exit_2(self, tmp_path, capsys, path_docs, key):
        path, kind = REMOVED_KEYS[key]
        prob = problem_of_path(tmp_path, path_docs, path, **{key: VALID[kind]})
        err = refused(tmp_path, capsys, prob, 2)
        assert err == f"schema error: parameters: unknown key {key!r}\n"

    @pytest.mark.parametrize("key", fileio.PARAMETERS)
    def test_null_value_exit_2(self, tmp_path, capsys, path_docs, key):
        # null is a value of no row's type: it is refused, not read as absent,
        # on a path the row lists
        path = fileio.PARAMETERS[key][1][0]
        prob = problem_of_path(tmp_path, path_docs, path, **{key: None})
        assert refused(tmp_path, capsys, prob, 2).startswith(parameter_error(key))

    def test_cli_and_fileio_name_no_t_shh_builder(self):
        # only shh and randomgen know the T-SHH pattern; the dispatch runs its update
        assert t_shh_names(Path(dispatch.__file__)) == ["t_shh_update"]
        assert t_shh_names(Path(cli.__file__)) == []
        assert t_shh_names(Path(fileio.__file__)) == []

    def test_scan_sees_t_shh_names(self):
        assert t_shh_names(Path(randomgen.__file__)) == ["t_shh_lambda", "t_shh_mhat"]


def pair_field_literals(path: Path) -> list[str]:
    """The string literals of the module at ``path``, f-string parts
    included, that name a row of ``fileio.PAIR_FIELDS`` or a pair-block
    key, alone or after a dot."""
    keys = {name.split(".")[1] for name in fileio.PAIR_FIELDS}
    return [
        f"{path.name}:{node.lineno} literal {node.value!r}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and (node.value in fileio.PAIR_FIELDS or node.value.rpartition(".")[2] in keys)
    ]


def field_of(doc: dict, name: str):
    """The pair block of ``doc`` that the field ``name`` (``block.key``)
    belongs in, made when absent, and the key."""
    block, key = name.split(".")
    if doc.get(block) is None:
        doc[block] = {}
    return doc[block], key


# the pair fields each solve path does not read, and those it needs
UNREAD_FIELDS = [(name, path) for name, (_, readers, _) in fileio.PAIR_FIELDS.items()
                 for path in SOLVE_PATHS if path not in readers]
NEEDED_FIELDS = [(name, path) for name, (_, _, needers) in fileio.PAIR_FIELDS.items()
                 for path in SOLVE_PATHS if path in needers]


class TestPairFieldTable:
    """Which pair-block fields each path reads and needs is one table,
    ``fileio.PAIR_FIELDS``: a field the path does not read, or a needed one
    that is missing, is a schema error, exit 2, that names it, for
    ``solve``, ``verify --pencil``, ``verify --pairs`` and an in-memory
    ``ProblemFile`` alike."""

    @pytest.mark.parametrize("name, path", UNREAD_FIELDS)
    def test_field_its_path_does_not_read_exit_2(self, tmp_path, capsys, path_docs, name, path):
        # the value is the file's change vectors, which fit its targets'
        # lambda, or a vector where the block has no lambda
        doc = json.loads(json.dumps(path_docs[path]))
        block, key = field_of(doc, name)
        block[key] = (doc["change"] or {}).get("x", _DIAG)
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps(doc))
        assert refused(tmp_path, capsys, prob, 2) == reads_no(path, name) + "\n"

    @pytest.mark.parametrize("name, path", NEEDED_FIELDS)
    def test_needed_field_missing_exit_2(self, tmp_path, capsys, path_docs, name, path):
        # a fixed block is given or absent as a whole: one with the other field only
        doc = json.loads(json.dumps(path_docs[path]))
        block, key = field_of(doc, name)
        if block:
            del block[key]
        else:
            block["lambda" if key == "x" else "x"] = _DIAG
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps(doc))
        assert refused(tmp_path, capsys, prob, 2) == needs(path, name) + "\n"

    @pytest.mark.parametrize("name", fileio.PAIR_FIELDS)
    def test_null_value_exit_2(self, tmp_path, capsys, name):
        # null is no matrix: a null field is refused and named, not read as
        # absent, in a problem, pencil and pairs file alike (the star-even
        # file's fixed block is its pairs file's)
        prob, delta, pairs = TestKnownKeys.solved(tmp_path)
        message = f"schema error: {name}: not a numeric array: it holds null values\n"
        doc = json.loads(prob.read_text())
        fixed_doc = json.loads(pairs.read_text())
        block, key = name.split(".")
        doc["fixed"] = dict(fixed_doc["fixed"])
        doc[block][key] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert refused(tmp_path, capsys, bad, 2) == message
        assert run(["verify", "--pencil", bad, "--delta", delta, "--pairs", pairs]) == 2
        assert capsys.readouterr().err == message
        if block != "change":
            fixed_doc["targets"] = {"x": doc["change"]["x"], "lambda": doc["targets"]["lambda"]}
            fixed_doc[block][key] = None
            pairs.write_text(json.dumps(fixed_doc))
            assert run(["verify", "--pencil", prob, "--delta", delta, "--pairs", pairs]) == 2
            assert capsys.readouterr().err == message

    def test_null_block_is_absent(self, tmp_path, capsys):
        # save_problem writes an absent block as null, so a null block is read as absent
        prob, delta, pairs = TestKnownKeys.solved(tmp_path)
        assert json.loads(prob.read_text())["fixed"] is None
        fixed_doc = json.loads(pairs.read_text())
        fixed_doc["targets"] = None
        pairs.write_text(json.dumps(fixed_doc))
        assert run(["verify", "--pencil", prob, "--delta", delta, "--pairs", pairs]) == 0

    def test_unstructured_file_without_fixed_pair_exit_3(self, tmp_path, capsys, path_docs):
        # the fixed pair is optional in the table; solve_general itself needs it
        prob = problem_of_path(tmp_path, path_docs, "unstructured")
        assert refused(tmp_path, capsys, prob, 3).startswith("error: MissingFixedPair: ")

    def test_rows_cover_every_field_of_every_block(self):
        blocks = ("change", "targets", "fixed")
        keys = ("x", "lambda", "eigenvalues")
        assert sorted(fileio.PAIR_FIELDS) == sorted(f"{b}.{k}" for b in blocks for k in keys)

    def test_files_of_every_path_hold_only_what_it_reads(self, path_docs):
        # each path reads every field its own documents give
        for path, doc in path_docs.items():
            given = [f"{block}.{key}" for block in ("change", "targets", "fixed")
                     for key in (doc.get(block) or {})]
            assert all(path in fileio.PAIR_FIELDS[name][1] for name in given), path

    def test_unread_keys_named_before_missing_ones(self, tmp_path, capsys, path_docs):
        # a star-even change block spelt the quadratic way: its eigenvalues
        # are named, not the x and lambda it lacks; every unread key at once
        doc = json.loads(json.dumps(path_docs["star-even"]))
        doc["change"] = {"eigenvalues": _DIAG}
        doc["targets"]["eigenvalues"] = _DIAG
        doc["parameters"]["strategy"] = "psd-minimal"
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps(doc))
        err = refused(tmp_path, capsys, prob, 2)
        assert err == reads_no("star-even", "change.eigenvalues", "targets.eigenvalues",
                               "parameters.strategy") + "\n"

    def test_in_memory_problem_file_checked_as_a_loaded_one(self, tmp_path, capsys):
        planted = plant_problem(7, 8, 2, "star-even")
        pf = fileio.ProblemFile(
            "star-even", planted.pencil.m, planted.pencil.k,
            fileio.PairBlock(planted.change.x, planted.change.lam),
            fileio.PairBlock(planted.change.x, planted.target_lam),
        )
        prob = tmp_path / "prob.json"
        fileio.save_problem(prob, pf)
        err = refused(tmp_path, capsys, prob, 2)
        assert err == reads_no("star-even", "targets.x") + "\n"
        with pytest.raises(SchemaError) as exc:
            pf.checked()
        assert f"schema error: {exc.value}\n" == err
        pf.quadratic = True
        with pytest.raises(SchemaError, match="a quadratic file reads no change.x"):
            pf.checked()

    def test_reference_case_problems_pass_the_check(self):
        # every problem the package makes passes the check it is made with
        for case in CASES.values():
            assert case.problem().checked().path == ("quadratic" if case.quadratic else case.klass)

    def test_cli_and_dispatch_name_no_pair_field(self):
        for module in (cli, dispatch):
            assert pair_field_literals(Path(module.__file__)) == []

    def test_scan_sees_pair_field_literals(self, tmp_path):
        module = tmp_path / "module.py"
        module.write_text('b = {"x": 1}.get("fixed.lambda")\nname = f"{b}.eigenvalues"\n')
        assert sorted(f.split(" ", 1)[1] for f in pair_field_literals(module)) == [
            "literal '.eigenvalues'", "literal 'fixed.lambda'", "literal 'x'"]


# inputs whose pair fields or parameters a path read loosely before: each
# change to the star-even random file (seed 7, n=8, p=2) or to the herm-6.1
# quadratic fixture, given its fixed pair ``fx``, and the error
LOOSE_PROBLEMS = {
    # a structured path ignored targets.x and certified X_c, not the given X_a
    "star-even+targets.x": ("star-even", lambda doc, fx: doc["targets"].update(
        x=doc["change"]["x"]), reads_no("star-even", "targets.x")),
    "quadratic+fixed": ("quadratic", lambda doc, fx: doc.update(fixed=fx),
                        reads_no("quadratic", "fixed.x", "fixed.lambda")),
    "quadratic+change.x": ("quadratic", lambda doc, fx: doc["change"].update(x=fx["x"]),
                           reads_no("quadratic", "change.x")),
    "quadratic+targets.lambda": ("quadratic", lambda doc, fx: doc["targets"].update(
        {"lambda": fx["lambda"]}), reads_no("quadratic", "targets.lambda")),
    "star-even+change.eigenvalues": ("star-even", lambda doc, fx: doc["change"].update(
        eigenvalues=_DIAG), reads_no("star-even", "change.eigenvalues")),
    # fixed.x alone exited 3 with DimensionMismatch; fixed.lambda alone was dropped
    "star-even+fixed.x": ("star-even", lambda doc, fx: doc.update(fixed={"x": fx["x"]}),
                          needs("star-even", "fixed.lambda")),
    "star-even+fixed.lambda": ("star-even", lambda doc, fx: doc.update(
        fixed={"lambda": fx["lambda"]}), needs("star-even", "fixed.x")),
    # verify --pencil took what solve refused with BadParameters
    "star-even+strategy": ("star-even", lambda doc, fx: doc["parameters"].update(
        strategy="psd-minimal"), reads_no("star-even", "parameters.strategy")),
}

# the same for the star-even file's pairs file, given the problem document
LOOSE_PAIRS = {
    "fixed.eigenvalues": (lambda pairs, doc: pairs["fixed"].update(eigenvalues=_DIAG),
                          reads_no("pairs", "fixed.eigenvalues")),
    "targets.eigenvalues": (lambda pairs, doc: pairs.update(targets={
        "x": doc["change"]["x"], "lambda": doc["targets"]["lambda"], "eigenvalues": _DIAG}),
        reads_no("pairs", "targets.eigenvalues")),
    "fixed.x": (lambda pairs, doc: pairs["fixed"].pop("lambda"), needs("pairs", "fixed.lambda")),
    "fixed.lambda": (lambda pairs, doc: pairs.update(
        targets={"x": doc["change"]["x"], "lambda": doc["targets"]["lambda"]},
        fixed={"lambda": pairs["fixed"]["lambda"]}), needs("pairs", "fixed.x")),
}


class TestReadLooselyBefore:
    """Each input that a path read loosely before, refused by ``solve`` and
    ``verify`` with one schema error, exit 2, that names the key."""

    @staticmethod
    def solved(tmp_path):
        prob, delta, pairs = TestKnownKeys.solved(tmp_path)
        return prob, delta, pairs, json.loads(pairs.read_text())["fixed"]

    @pytest.mark.parametrize("case", LOOSE_PROBLEMS)
    def test_problem_file_refused_by_solve_and_verify(self, tmp_path, capsys, case):
        prob, delta, pairs, fx = self.solved(tmp_path)
        source, change, message = LOOSE_PROBLEMS[case]
        doc = (json.loads((DATA / "herm-6.1.quadratic.json").read_text())
               if source == "quadratic" else json.loads(prob.read_text()))
        change(doc, fx)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert refused(tmp_path, capsys, bad, 2) == message + "\n"
        assert run(["verify", "--pencil", bad, "--delta", delta, "--pairs", pairs]) == 2
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("case", LOOSE_PAIRS)
    def test_pairs_file_refused_by_verify(self, tmp_path, capsys, case):
        prob, delta, pairs, _ = self.solved(tmp_path)
        change, message = LOOSE_PAIRS[case]
        doc = json.loads(pairs.read_text())
        change(doc, json.loads(prob.read_text()))
        pairs.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--pencil", prob, "--delta", delta, "--pairs", pairs]) == 2
        assert capsys.readouterr().err == message + "\n"

    def test_pairs_file_with_no_block_exit_2(self, tmp_path, capsys):
        prob, delta, pairs, _ = self.solved(tmp_path)
        pairs.write_text('{"format": 1, "targets": null}')
        capsys.readouterr()
        assert run(["verify", "--pencil", prob, "--delta", delta, "--pairs", pairs]) == 2
        assert capsys.readouterr().err == "schema error: a pairs file needs targets or fixed\n"


class TestKnownKeys:
    """A file's keys are read by one rule: a key no reader reads, or a
    ``structure`` that names none, is a schema error, exit 2, that names it,
    for ``solve`` and ``verify`` alike."""

    @staticmethod
    def solved(tmp_path):
        """A star-even ``random`` problem (seed 7, n=8, p=2), its delta file
        and its fixed pairs file."""
        prob, delta = tmp_path / "prob.json", tmp_path / "delta.json"
        assert run(["random", "--seed", 7, "--n", 8, "--p", 2,
                    "--class", "star-even", "--out", prob]) == 0
        assert run(["solve", "--input", prob, "--out", delta]) == 0
        return prob, delta, Path(f"{prob}.fixed.json")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("parameter", None, "unknown key 'parameter'"),  # "parameters" misspelt
            ("comment", "n=8", "unknown key 'comment'"),
            ("structure", "", "unknown structure ''"),
            ("structure", False, "unknown structure False"),
            ("structure", 0, "unknown structure 0"),
        ],
        ids=["parameter", "comment", "structure-empty", "structure-false", "structure-0"],
    )
    def test_problem_file_refused_by_solve_and_verify(
        self, tmp_path, capsys, key, value, message
    ):
        prob, delta, fixed = self.solved(tmp_path)
        doc = json.loads(prob.read_text())
        doc[key] = doc.pop("parameters") if key == "parameter" else value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["solve", "--input", bad, "--out", tmp_path / "bad.delta.json"]) == 2
        assert not (tmp_path / "bad.delta.json").exists()
        assert run(["verify", "--pencil", bad, "--delta", delta, "--pairs", fixed]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("schema error: ") and message in line for line in err)

    def test_pair_block_key_no_reader_reads_exit_2(self, tmp_path, capsys):
        prob, _, _ = self.solved(tmp_path)
        doc = json.loads(prob.read_text())
        doc["change"]["lam"] = doc["change"].pop("lambda")
        prob.write_text(json.dumps(doc))
        err = refused(tmp_path, capsys, prob, 2)
        assert err == "schema error: change: unknown key 'lam'\n"

    @pytest.mark.parametrize("block", [None, "fixed"])
    def test_pairs_file_key_no_reader_reads_exit_2(self, tmp_path, capsys, block):
        # a misspelt targets block, or a fixed block's misspelt eigenvalues
        prob, delta, fixed = self.solved(tmp_path)
        doc = json.loads(fixed.read_text())
        key = "target" if block is None else "eigenvalue"
        (doc if block is None else doc[block])[key] = doc["fixed"]["lambda"]
        fixed.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--pencil", prob, "--delta", delta, "--pairs", fixed]) == 2
        where = "pairs file" if block is None else block
        assert capsys.readouterr().err == f"schema error: {where}: unknown key {key!r}\n"

    @pytest.mark.parametrize("where, key", [(None, "delta_m"), ("factors", "Left")],
                             ids=["delta_m", "factors.Left"])
    def test_delta_file_key_no_reader_reads_exit_2(self, tmp_path, capsys, where, key):
        # a format-2 file's dense delta_m, or a misspelt factor next to the four
        prob, delta, fixed = self.solved(tmp_path)
        doc = json.loads(delta.read_text())
        (doc if where is None else doc[where])[key] = doc["factors"]["left"]
        delta.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--pencil", prob, "--delta", delta, "--pairs", fixed]) == 2
        where = where or "delta file"
        assert capsys.readouterr().err == f"schema error: {where}: unknown key {key!r}\n"

    def test_format_1_delta_file_key_no_reader_reads_exit_2(self, tmp_path, capsys):
        doc = json.loads((DATA / "star-even-n8.format1.delta.json").read_text())
        doc["factors"] = None
        delta = tmp_path / "delta.json"
        delta.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--pencil", DATA / "star-even-n8.json", "--delta", delta,
                    "--pairs", DATA / "star-even-n8.json.fixed.json"]) == 2
        assert capsys.readouterr().err == "schema error: delta file: unknown key 'factors'\n"


class TestUnwritableOutput:
    """A file that cannot be written is exit 2 with one line that names it,
    as an unreadable input is; exit 1 stays a failed certificate."""

    @pytest.mark.parametrize("command", ["solve", "random"])
    def test_out_in_a_missing_directory_exit_2(self, tmp_path, capsys, command):
        prob, out = tmp_path / "prob.json", tmp_path / "missing" / "out.json"
        random = ["random", "--seed", 7, "--n", 8, "--p", 2, "--class", "star-even", "--out"]
        assert run(random + [prob]) == 0
        capsys.readouterr()
        args = ["solve", "--input", prob, "--out", out] if command == "solve" else random + [out]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.parent.exists()
        assert captured.err.startswith("schema error: cannot write file: ")
        assert str(out) in captured.err and captured.err.count("\n") == 1


def with_leaf(doc: dict, where: str, value) -> dict:
    """``doc`` with the first number of the matrix at the dotted path
    ``where`` (the first real part of an [re, im] pair) set to ``value``."""
    *blocks, last = where.split(".")
    node = doc
    for key in blocks:
        node = node[key]
    node = node[last]
    while isinstance(node[0], list):
        parent, node = node, node[0]
    parent[0][0] = value
    return doc


class TestNumericLeaves:
    """Every matrix entry is a JSON number: a string or a boolean in the
    herm-6.1 fixture's ``m``, a pair block or ``z1`` is a schema error, exit 2,
    that names the block, for ``solve`` and ``verify`` alike."""

    BAD = {"string": "0.5", "boolean": True}

    @staticmethod
    def fixture():
        return json.loads((DATA / "herm-6.1.quadratic.json").read_text())

    @pytest.mark.parametrize("kind", BAD)
    @pytest.mark.parametrize("where", ["m", "change.eigenvalues", "parameters.z1"])
    def test_solve_exit_2(self, tmp_path, capsys, where, kind):
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps(with_leaf(self.fixture(), where, self.BAD[kind])))
        err = refused(tmp_path, capsys, prob, 2)
        assert err == f"schema error: {where}: not a numeric array: it holds {kind} values\n"

    @pytest.mark.parametrize("kind", BAD)
    @pytest.mark.parametrize(
        "where", ["m", "change.eigenvalues", "parameters.z1", "targets.x"]
    )
    def test_verify_exit_2(self, tmp_path, capsys, where, kind):
        # the pencil file is the fixture, the pairs file the fixture's change
        # values with unit vectors; one of them holds the bad entry
        prob, delta, pairs = (tmp_path / name for name in ("prob.json", "d.json", "pairs.json"))
        prob.write_text(json.dumps(self.fixture()))
        assert run(["solve", "--input", prob, "--out", delta]) == 0
        pairs_doc = {"format": 1, "targets": {
            "x": fileio.encode_matrix(np.eye(5)[:, :2]),
            "lambda": fileio.encode_matrix(np.diag([57.4206j, 4.8629j])),
        }}
        if where == "targets.x":
            with_leaf(pairs_doc, where, self.BAD[kind])
        else:
            prob.write_text(json.dumps(with_leaf(self.fixture(), where, self.BAD[kind])))
        pairs.write_text(json.dumps(pairs_doc))
        capsys.readouterr()
        assert run(["verify", "--pencil", prob, "--delta", delta, "--pairs", pairs]) == 2
        err = capsys.readouterr().err
        assert err == f"schema error: {where}: not a numeric array: it holds {kind} values\n"


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

    def test_rectangular_core_verifies(self, tmp_path, capsys):
        prob, delta = unstructured_problem(tmp_path, "hermitian", 8, 2), tmp_path / "delta.json"
        assert run(["solve", "--input", prob, "--out", delta]) == 0
        assert np.shape(json.loads(delta.read_text())["factors"]["mhat"])[:2] == (2, 4)
        capsys.readouterr()
        assert run(["verify", "--pencil", prob, "--delta", delta,
                    "--pairs", f"{prob}.fixed.json"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"

    def test_moved_target_vectors_solve_and_verify(self, tmp_path, capsys):
        # the unstructured path alone reads targets.x: X_a = X_c + 0.1 noise
        prob, delta = unstructured_problem(tmp_path, "hermitian", 8, 2), tmp_path / "delta.json"
        doc = json.loads(prob.read_text())
        xc = fileio.decode_matrix(doc["change"]["x"], "x")
        rng = np.random.default_rng(7)
        xa = xc + 0.1 * (rng.standard_normal(xc.shape) + 1j * rng.standard_normal(xc.shape))
        doc["targets"]["x"] = fileio.encode_matrix(xa)
        prob.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["solve", "--input", prob, "--out", delta]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"
        pairs = tmp_path / "pairs.json"
        for moved, code, verdict in ((0.0, 0, "PASS"), (1e-3, 1, "FAIL")):
            targets = {"x": fileio.encode_matrix(xa + moved), "lambda": doc["targets"]["lambda"]}
            pairs.write_text(json.dumps({"format": 1, "targets": targets, "fixed": doc["fixed"]}))
            assert run(["verify", "--pencil", prob, "--delta", delta, "--pairs", pairs]) == code
            assert capsys.readouterr().out.splitlines()[-1] == verdict

    @pytest.mark.parametrize("factor, shape", [("khat", (2, 3)), ("left", (8, 3))])
    def test_mismatched_factor_shapes_exit_2(self, tmp_path, capsys, factor, shape):
        # against a 2 x 4 mhat: a khat of another shape, a left with 3 columns
        prob, delta = unstructured_problem(tmp_path, "hermitian", 8, 2), tmp_path / "delta.json"
        assert run(["solve", "--input", prob, "--out", delta]) == 0
        doc = json.loads(delta.read_text())
        doc["factors"][factor] = np.zeros(shape + (2,)).tolist()
        delta.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--pencil", prob, "--delta", delta,
                    "--pairs", f"{prob}.fixed.json"]) == 2
        assert "schema error: factors must be n x a, a x b, a x b and b x n" in (
            capsys.readouterr().err
        )

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
    def test_solve_of_the_case_problem_is_reproduce(self, tmp_path, capsys, case_id):
        # reproduce solves the case's own problem file as solve does
        prob, out = tmp_path / "prob.json", tmp_path / "delta.json"
        fileio.save_problem(prob, CASES[case_id].problem())
        assert run(["solve", "--input", prob, "--out", out]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"
        report = run_case(case_id)
        delta = fileio.load_delta(out)
        assert delta.delta_m.tobytes() == report.delta_m.tobytes()
        assert delta.delta_k.tobytes() == report.delta_k.tobytes()
        cert = json.loads(out.read_text())["certificate"]
        assert cert == fileio.certificate_dict(report.certificate)
        # the spectrum match is part of reproduce's certificate
        oracle = "qz" if CASES[case_id].klass == "star-shh" else "definite"
        assert report.certificate.spectrum.oracle == oracle
        assert report.certificate.spectrum.passed

    def test_fixture_is_the_case_problem(self):
        def same(a, b):
            if isinstance(a, dict):
                return a.keys() == b.keys() and all(same(a[key], b[key]) for key in a)
            if isinstance(a, np.ndarray):
                return a.shape == np.shape(b) and np.array_equal(a, b)
            return a == b

        fixture = fileio.load_problem(DATA / "herm-6.1.quadratic.json")
        assert same(dataclasses.asdict(fixture), dataclasses.asdict(CASES["herm-6.1"].problem()))

    @pytest.mark.parametrize("module", ["cases", "cli", "dispatch"])
    def test_module_imports_alone(self, module):
        # no import cycle: cli imports cases, and both import the dispatch
        proc = run_fresh_python(f"import nospillover.{module}")
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

    def test_shh_files_give_one_core_source(self, tmp_path):
        # a t-shh file gives Mh as its mhat: t_shh_mhat of its group shape and
        # of values drawn from [seed, 779] in the order of t_shh_mhat's
        # arguments, rounded to 6 digits; a star-shh file gives z1 and z2
        shapes = set()
        for seed in range(1, 9):
            prob = tmp_path / f"{seed}.json"
            for klass in ("t-shh", "star-shh"):
                assert run(["random", "--seed", seed, "--n", 8, "--p", 2,
                            "--class", klass, "--out", prob]) == 0
                pf = fileio.load_problem(prob)
                if klass == "star-shh":
                    assert list(pf.parameters) == ["z1", "z2"]
                    continue
                shape = t_shh_shape(pf)
                rng = np.random.default_rng([seed, 779])
                quad_alpha, quad_beta = (np.round(rng.standard_normal(shape[0]), 6)
                                         for _ in range(2))
                imag_beta, real_beta = (np.round(rng.standard_normal(count), 6)
                                        for count in shape[1:])
                mhat = t_shh_mhat(shape, quad_alpha, quad_beta, imag_beta, real_beta)
                assert list(pf.parameters) == ["mhat"]
                assert np.array_equal(pf.parameters["mhat"], mhat)
                shapes.add(shape)
        assert shapes == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

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

    @pytest.mark.parametrize("klass", RANDOM_CLASSES)
    @pytest.mark.parametrize("seed, n", [(-1, 8), (1, -4)])
    def test_negative_seed_or_n_exit_3(self, tmp_path, capsys, monkeypatch, klass, seed, n):
        # refused before any draw: numpy seeds take non-negative integers only
        def no_draw(*args):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        out = tmp_path / "x.json"
        assert run(["random", "--seed", seed, "--n", n, "--p", 2,
                    "--class", klass, "--out", out]) == 3
        name, value = ("seed", seed) if seed < 0 else ("n", n)
        assert capsys.readouterr().err == (
            f"error: BadParameters: need {name} >= 0 (got {name}={value})\n"
        )
        assert list(tmp_path.iterdir()) == []

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
