"""The tolerance table: only ``linalg`` defines thresholds, and the thresholds
that moved into it are pinned, each by one input just inside and one just
outside it, at every error site they guard."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import plant_t_odd_real, random_shh_pencil

import nospillover
from nospillover.errors import (
    BadBlockShape,
    ComplexInput,
    EigenvalueOutsideClass,
    NotRealDiagonal,
    SingularBasis,
)
from nospillover.linalg import J2, PencilEigenpair, fnorm
from nospillover.pencil import T_ODD, DeflatingPair, StructuredPencil
from nospillover.randomgen import plant_t_shh
from nospillover.shh import (
    EigGrouping,
    SHHPencil,
    apply_j,
    group_t_shh_spectrum,
    shh_gramian,
    t_shh_basis,
    t_shh_core,
    t_shh_lambda,
    t_shh_update,
)
from nospillover.special import QuadraticSpec, hermitian_core, lift_quadratic, t_odd_real_update
from nospillover.unstructured import UpdateProblem, dual_basis_update

PACKAGE = Path(nospillover.__file__).parent
THRESHOLD_NAME = re.compile(r"^_?(TAU_\w+|\w+_TOL|\w+_CUTOFF|\w+_SEPARATION)$")
NEGATIVE_EXPONENT = re.compile(r"e-\d", re.IGNORECASE)
PUBLISHED_ARRAY = re.compile(r"^_[A-Z]\d+_[A-Z0-9]+$")  # cases.py: _H61_DM, _S7_Z1, ...
DIVISION_GUARD = 1e-300

# fractions of a threshold: a residual at INSIDE times it passes, at OUTSIDE it fails
INSIDE, OUTSIDE = 0.5, 2.0


def threshold_findings(path: Path) -> list[str]:
    """Thresholds that ``path`` defines outside the table: module-level names
    of the table's kinds, and float literals with a negative exponent other
    than the division guard, the published arrays of ``cases.py`` and its
    cases' printed values and bounds."""
    source = path.read_text()
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and THRESHOLD_NAME.match(target.id):
                found.append(f"{path.name}:{node.lineno} defines {target.id}")
    exempt = set()
    if path.name == "cases.py":
        for node in ast.walk(tree):
            published_array = (
                node in tree.body
                and isinstance(node, ast.Assign)
                and all(isinstance(t, ast.Name) and PUBLISHED_ARRAY.match(t.id) for t in node.targets)
            )
            case_field = isinstance(node, ast.keyword) and (
                node.arg.startswith("printed_") or node.arg == "spillover_bound"
            )
            if published_array or case_field:
                exempt.update(id(sub) for sub in ast.walk(node))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Constant) and isinstance(node.value, float)):
            continue
        text = ast.get_source_segment(source, node)
        if NEGATIVE_EXPONENT.search(text) and node.value != DIVISION_GUARD and id(node) not in exempt:
            found.append(f"{path.name}:{node.lineno} literal {text}")
    return found


class TestOneTable:
    def test_only_linalg_defines_thresholds(self):
        modules = sorted(PACKAGE.glob("*.py"))
        assert PACKAGE / "linalg.py" in modules
        found = [f for path in modules if path.name != "linalg.py" for f in threshold_findings(path)]
        assert found == []

    def test_scan_sees_names_and_literals(self, tmp_path):
        module = tmp_path / "module.py"
        module.write_text(
            "_DIAG_TOL = 1e-10\nG_RCOND_CUTOFF = 0.5\n"
            "def f(x, tol=1e-3):\n    return abs(x) <= tol * max(x, 1e-300)\n"
        )
        found = threshold_findings(module)
        assert [f.split(" ", 1)[1] for f in found] == [
            "defines _DIAG_TOL", "defines G_RCOND_CUTOFF", "literal 1e-10", "literal 1e-3"
        ]


def real_t_odd_pencil():
    """M = I and a skew K of order 3, whose null vector (3, -2, 1) is a real
    eigenvector for the eigenvalue 0."""
    k = np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 3.0], [-2.0, -3.0, 0.0]])
    return StructuredPencil(np.eye(3), k, T_ODD), np.array([[3.0], [-2.0], [1.0]])


class TestStructTolerance:
    """TAU_STRUCT = 1e-10 on diagonal parameters and real T-odd/T-even data
    (formerly ``special._DIAG_TOL``)."""

    @pytest.mark.parametrize("fraction", [INSIDE, OUTSIDE])
    def test_real_diagonal(self, fraction):
        # scale 1 + max |d| = 3
        z1 = np.array([1.0, 2.0 + 1j * fraction * 1e-10 * 3.0])
        if fraction == OUTSIDE:
            with pytest.raises(NotRealDiagonal, match="real entries"):
                hermitian_core([1.0, 2.0], [0.5, 1.5], z1, [0.0, 0.0])
        else:
            hermitian_core([1.0, 2.0], [0.5, 1.5], z1, [0.0, 0.0])

    @pytest.mark.parametrize("fraction", [INSIDE, OUTSIDE])
    def test_diagonal_matrix(self, fraction):
        z1 = np.diag([1.0, 2.0])
        z1[0, 1] = fraction * 1e-10 * 3.0
        if fraction == OUTSIDE:
            with pytest.raises(NotRealDiagonal, match="diagonal"):
                hermitian_core([1.0, 2.0], [0.5, 1.5], z1, [0.0, 0.0])
        else:
            hermitian_core([1.0, 2.0], [0.5, 1.5], z1, [0.0, 0.0])

    @pytest.mark.parametrize("fraction", [INSIDE, OUTSIDE])
    def test_real_pencil(self, fraction):
        pencil, change, _ = plant_t_odd_real(40, n=6, pairs=1)
        scale = max(fnorm(pencil.m), fnorm(pencil.k))
        skew = np.zeros((6, 6))
        skew[0, 1], skew[1, 0] = 1.0, -1.0
        k = pencil.k + 1j * fraction * 1e-10 * scale * skew  # still T-odd
        tinted = StructuredPencil(pencil.m, k, T_ODD)
        args = (tinted, change, [lam for lam, _ in change], [0.3], [0.2])
        if fraction == OUTSIDE:
            with pytest.raises(ComplexInput):
                t_odd_real_update(*args)
        else:
            assert np.isfinite(fnorm(t_odd_real_update(*args).delta_m))

    @pytest.mark.parametrize("fraction", [INSIDE, OUTSIDE])
    def test_imaginary_target(self, fraction):
        pencil, change, _ = plant_t_odd_real(41, n=6, pairs=1)
        mu = 1.3 * change[0][0].imag
        target = fraction * 1e-10 * (1 + abs(mu)) + 1j * mu
        if fraction == OUTSIDE:
            with pytest.raises(BadBlockShape, match="purely imaginary"):
                t_odd_real_update(pencil, change, [target], [0.0], [0.0])
        else:
            t_odd_real_update(pencil, change, [target], [0.0], [0.0])

    def test_real_change_value(self):
        pencil, x = real_t_odd_pencil()
        with pytest.raises(BadBlockShape, match="nonreal"):
            t_odd_real_update(pencil, [(0j, x)], [1j], [0.0], [0.0])


class TestRealDataTolerance:
    """REAL_DATA_TOL = 1e-8 on T-SHH data (formerly ``shh._PATTERN_TOL``)."""

    @pytest.mark.parametrize("fraction", [INSIDE, OUTSIDE])
    def test_real_pair_vectors(self, fraction):
        # scale max |x| + max |xhat| = 3
        x = np.array([[1.0], [2.0 + 1j * fraction * 1e-8 * 3.0]])
        grouping = EigGrouping(real_pairs=((1.5 + 0j, x, np.array([[0.5], [1.0]])),))
        if fraction == OUTSIDE:
            with pytest.raises(ComplexInput):
                t_shh_basis(grouping)
        else:
            assert t_shh_basis(grouping)[0].shape == (2, 2)

    @pytest.mark.parametrize("fraction", [INSIDE, OUTSIDE])
    def test_real_pencil(self, fraction):
        planted = plant_t_shh(11, 4)
        m, k = planted.pencil.m, planted.pencil.k
        xc, lam_c, lam_a = planted.change.x, planted.change.lam, planted.target_lam
        core = t_shh_core(shh_gramian(planted.pencil, xc)[0], lam_c, lam_a)
        skew = np.zeros((8, 8))
        skew[0, 1], skew[1, 0] = 1.0, -1.0
        # M = J^T S with S skew keeps (JM)^T = -JM
        dm = 1j * fraction * 1e-8 * max(fnorm(m), fnorm(k)) * apply_j(skew, transpose=True)
        tinted = SHHPencil(m + dm, k, "T")
        if fraction == OUTSIDE:
            with pytest.raises(ComplexInput):
                t_shh_update(tinted, xc, lam_c, lam_a, core)
        else:
            t_shh_update(tinted, xc, lam_c, lam_a, core)

    def test_star_shh_pencil(self):
        pencil = random_shh_pencil(np.random.default_rng(3), 2, "*")
        xc, lam = np.ones((4, 2)), 2.0 * J2
        with pytest.raises(BadBlockShape, match="T-SHH"):
            t_shh_update(pencil, xc, lam, lam, t_shh_core(np.eye(2), lam, lam))


class TestEigMatchTolerance:
    """EIG_MATCH_TOL = 1e-8 for a value on an axis, and its widening by 1e4
    for partners in ``group_t_shh_spectrum``."""

    @pytest.mark.parametrize("fraction", [INSIDE, OUTSIDE])
    def test_quadratic_class_membership(self, fraction):
        # lambda = d + 2i: lambda^2 has imaginary part 4d on the scale 1 + |lambda|^2 = 5
        lam = fraction * 1e-8 * 5.0 / 4.0 + 2j
        spec = QuadraticSpec("hermitian", (lam,), (3j,))
        if fraction == OUTSIDE:
            with pytest.raises(EigenvalueOutsideClass):
                lift_quadratic(spec)
        else:
            lift_quadratic(spec)

    @pytest.mark.parametrize("fraction", [INSIDE, OUTSIDE])
    @pytest.mark.parametrize("kind", ["imag", "real"])
    def test_pair_blocks(self, fraction, kind):
        # scale 1 + |v| = 3 (to first order)
        off = fraction * 1e-8 * 3.0
        value = off + 2j if kind == "imag" else 2.0 + 1j * off
        x = np.array([[1.0], [2.0]])
        if kind == "imag":
            shape, groups = (0, 1, 0), ([], [value], [])
            grouping = EigGrouping(imag_pairs=((value, x + 1j),))
        else:
            shape, groups = (0, 0, 1), ([], [], [value])
            grouping = EigGrouping(real_pairs=((value, x, 2 * x),))
        if fraction == OUTSIDE:
            with pytest.raises(BadBlockShape):
                t_shh_lambda(shape, *groups)
            with pytest.raises(BadBlockShape):
                t_shh_basis(grouping)
        else:
            assert t_shh_lambda(shape, *groups).shape == (2, 2)
            assert t_shh_basis(grouping)[1].shape == (2, 2)

    @pytest.mark.parametrize("fraction", [INSIDE, OUTSIDE])
    def test_quadruple_off_the_axes(self, fraction):
        lam = fraction * 1e-8 * 3.0 + 2j
        x = np.array([[1.0 + 1j], [2.0 - 1j]])
        grouping = EigGrouping(quadruples=((lam, x, x.conj()),))
        if fraction == INSIDE:
            with pytest.raises(BadBlockShape, match="nonzero real and imaginary"):
                t_shh_basis(grouping)
        else:
            assert t_shh_basis(grouping)[1].shape == (4, 4)

    @pytest.mark.parametrize("fraction", [INSIDE, OUTSIDE])
    def test_grouping_on_the_axis(self, fraction):
        lam = fraction * 1e-8 * 3.0 + 2j
        eigs = [PencilEigenpair(lam, np.ones(4)), PencilEigenpair(np.conj(lam), np.ones(4))]
        grouping, leftovers = group_t_shh_spectrum(eigs)
        if fraction == INSIDE:
            assert len(grouping.imag_pairs) == 1 and leftovers == []
        else:  # off the axis, a lone conjugate pair is no full quadruple
            assert grouping.column_count == 0 and len(leftovers) == 2

    @pytest.mark.parametrize("fraction", [INSIDE, OUTSIDE])
    def test_grouping_partner(self, fraction):
        # the partner of 2i is sought within 1e-8 * 1e4 * (1 + |-2i|) = 3e-4
        partner = fraction * 1e-4 * 3.0 - 2j
        eigs = [PencilEigenpair(2j, np.ones(4)), PencilEigenpair(partner, np.ones(4))]
        grouping, leftovers = group_t_shh_spectrum(eigs)
        if fraction == INSIDE:
            assert len(grouping.imag_pairs) == 1 and leftovers == []
        else:
            assert grouping.column_count == 0 and len(leftovers) == 2


def test_dual_basis_of_dependent_pairs():
    pencil = StructuredPencil(np.eye(2), -np.diag([1.0, 2.0]), None)
    x = np.array([[1.0], [1.0]])
    problem = UpdateProblem(
        DeflatingPair(x, [[1.0]]), np.array([[4.0]]), fixed=DeflatingPair(2 * x, [[2.0]])
    )
    with pytest.raises(SingularBasis):
        dual_basis_update(pencil, problem, np.zeros((2, 1)))
