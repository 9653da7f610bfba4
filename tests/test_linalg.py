"""Tests for the dense matrix substrate."""

import numpy as np
import pytest
import scipy.linalg
from conftest import finite_eigenvalues, hungarian_max, relative_cost, run_fresh_python

from nospillover.errors import (
    DimensionMismatch,
    NonFiniteEntries,
    NotEigenpair,
    NotHermitian,
    SingularPencil,
)
from nospillover.linalg import (
    J2,
    PencilEigenpair,
    as_matrix,
    assignment_max_cost,
    block_diag,
    check_hermitian,
    eig_pencil,
    eigvals_pencil,
    fnorm,
    herm_eigs,
    match_multisets,
    nearest_eigenvalues,
    pseudoinverse,
    realified_pairs,
    star_residual,
)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(NonFiniteEntries):
            as_matrix([[1.0, np.nan]])

    def test_rejects_inf_imag(self):
        with pytest.raises(NonFiniteEntries):
            as_matrix(np.array([[1.0 + 1j * np.inf]]))

    def test_rejects_3d(self):
        with pytest.raises(DimensionMismatch):
            as_matrix(np.zeros((2, 2, 2)))

    def test_column_from_1d(self):
        assert as_matrix([1, 2, 3]).shape == (3, 1)


class TestPseudoinverse:
    def test_identity(self):
        np.testing.assert_allclose(pseudoinverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal_with_zero(self):
        np.testing.assert_allclose(
            pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14
        )

    def test_zero_matrix_transposed_shape(self):
        out = pseudoinverse(np.zeros((3, 5)))
        assert out.shape == (5, 3)
        assert fnorm(out) == 0.0

    def test_full_rank_tall(self):
        rng = np.random.default_rng(7)
        a = crandn(rng, 5, 3)
        pinv = pseudoinverse(a)
        assert fnorm(a @ pinv @ a - a) <= 1e-12 * fnorm(a)

    @pytest.mark.parametrize("shape_class", ["tall", "wide", "deficient"])
    def test_penrose_identities(self, shape_class):
        rng = np.random.default_rng(hash(shape_class) % 2**32)
        for trial in range(200):
            m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            if shape_class == "tall" and m < n:
                m, n = n, m
            if shape_class == "wide" and m > n:
                m, n = n, m
            a = crandn(rng, m, n)
            if shape_class == "deficient":
                r = max(1, min(m, n) - 1)
                a = crandn(rng, m, r) @ crandn(rng, r, n)
            p = pseudoinverse(a)
            tol = 1e-11 * max(fnorm(a), 1.0)
            assert fnorm(a @ p @ a - a) <= tol
            assert fnorm(p @ a @ p - p) <= tol * fnorm(p) / max(fnorm(a), 1e-300)
            assert fnorm((a @ p).conj().T - a @ p) <= tol
            assert fnorm((p @ a).conj().T - p @ a) <= tol


class TestEigPencil:
    def test_diagonal(self):
        eigs = eig_pencil(np.eye(2), -np.diag([3.0, 5.0]))
        vals = sorted(finite_eigenvalues(eigs).real)
        np.testing.assert_allclose(vals, [3.0, 5.0], atol=1e-12)

    def test_infinite_eigenvalue(self):
        eigs = eig_pencil(np.diag([1.0, 0.0]), np.eye(2))
        finite = [e for e in eigs if e.finite]
        infinite = [e for e in eigs if not e.finite]
        assert len(finite) == 1 and len(infinite) == 1
        assert finite[0].value == pytest.approx(-1.0)
        values = eigvals_pencil(np.diag([1.0, 0.0]), np.eye(2))
        assert sorted(values, key=lambda v: v is None) == [pytest.approx(-1.0), None]

    def test_reference_pencil_values(self):
        from nospillover.cases import CASES

        case = CASES["herm-6.1"]
        vals = finite_eigenvalues(eig_pencil(case.m, case.k))
        for want in (-3297.13, -23.648):
            assert min(abs(vals - want)) <= 1e-2

    def test_nonregular_raises(self):
        a = np.ones((2, 2))
        with pytest.raises(SingularPencil):
            eig_pencil(a, a.copy())
        with pytest.raises(SingularPencil):
            eigvals_pencil(a, a.copy())

    def test_known_spectrum_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            target = crandn(rng, n, 1)[:, 0]
            s, t = crandn(rng, n, n), crandn(rng, n, n)
            m = s @ t
            k = s @ np.diag(-target) @ t
            vals = finite_eigenvalues(eig_pencil(m, k))
            dist, unmatched = match_multisets(target, vals)
            assert unmatched == 0
            assert dist <= 1e-8
            dist, unmatched = match_multisets(target, eigvals_pencil(m, k))
            assert unmatched == 0
            assert dist <= 1e-8

    def test_residual_bound(self):
        rng = np.random.default_rng(31)
        m, k = crandn(rng, 6, 6), crandn(rng, 6, 6)
        for e in eig_pencil(m, k):
            if not e.finite:
                continue
            res = np.linalg.norm((e.value * m + k) @ e.vector)
            assert res <= 1e-9 * (abs(e.value) * fnorm(m) + fnorm(k))

    def test_unit_norm_vectors(self):
        eigs = eig_pencil(np.eye(3), -np.diag([1.0, 2.0, 3.0]))
        for e in eigs:
            assert np.linalg.norm(e.vector) == pytest.approx(1.0)


class TestHermEigs:
    def test_identity(self):
        np.testing.assert_allclose(herm_eigs(np.eye(2)), [1.0, 1.0])

    def test_diagonal_sorted(self):
        np.testing.assert_allclose(herm_eigs(np.diag([3.0, -1.0])), [-1.0, 3.0])

    def test_gram_matrix_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            b = crandn(rng, 6, 4)
            a = b.conj().T @ b
            assert herm_eigs(a)[0] >= -1e-12 * fnorm(a)

    def test_not_hermitian_raises(self):
        with pytest.raises(NotHermitian):
            herm_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestStarResidual:
    # around one and two tiles of 64, and the size the benchmark runs
    SIZES = [1, 2, 63, 64, 65, 130, 257, 512]
    KINDS = [(True, 1), (True, -1), (False, 1), (False, -1)]  # (conjugate, eps)

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_the_dense_residual(self, n):
        rng = np.random.default_rng([n, 21])
        for a in (rng.standard_normal((n, n)), crandn(rng, n, n)):
            for conjugate, eps in self.KINDS:
                adjoint = a.conj().T if conjugate else a.T
                dense = fnorm(adjoint - eps * a)
                assert abs(star_residual(a, conjugate, eps) - dense) <= 1e-14 * dense

    @pytest.mark.parametrize("n", SIZES[1:])
    def test_one_asymmetric_corner_entry_is_caught(self, n):
        # (0, n-1) and its mirror lie in the last tile pair of the first row
        rng = np.random.default_rng([n, 22])
        b = crandn(rng, n, n)
        for conjugate, eps in self.KINDS:
            a = (b + eps * (b.conj().T if conjugate else b.T)) / 2
            assert star_residual(a, conjugate, eps) == 0.0
            a[0, n - 1] += 0.5
            expected = np.sqrt(2.0) * 0.5
            assert abs(star_residual(a, conjugate, eps) - expected) <= 1e-14 * expected

    def test_check_hermitian_keeps_a_complex_input(self):
        a = crandn(np.random.default_rng(23), 70, 70)
        a = a + a.conj().T
        same, na, asym = check_hermitian(a)
        assert same is a and na == fnorm(a) and asym == 0.0

    def test_check_hermitian_rejects_nan(self):
        with pytest.raises(NonFiniteEntries):
            check_hermitian(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestMatchMultisets:
    def test_permutation_invariant(self):
        a = np.array([1 + 1j, 2.0, 3 - 1j])
        d1, u1 = match_multisets(a, a[::-1])
        assert u1 == 0 and d1 <= 1e-15

    def test_size_mismatch_counted(self):
        _, unmatched = match_multisets([1.0, 2.0], [1.0])
        assert unmatched == 1

    @pytest.mark.parametrize(
        "cost",
        [
            np.zeros((3, 3)),
            np.array([[1.0, 1.0], [1.0, 2.0]]),
            np.array([[0.0, 1.0, 5.0], [0.1, 3.0, 4.0], [0.2, 0.3, 9.0]]),
            np.array([[0.0, 2.0, 2.0], [0.0, 2.0, 1.0]]),
            np.array([[0.0, 0.5], [0.1, 0.2], [0.3, 0.0], [0.0, 0.0]]),
            np.array([[7.0]]),
        ],
        ids=["all-ties", "tied-minima", "colliding", "wide", "tall", "1x1"],
    )
    def test_assignment_matches_hungarian(self, cost):
        assert assignment_max_cost(cost) == hungarian_max(cost)

    def test_random_assignments_match_hungarian(self):
        """Small integer costs force ties, duplicates and colliding argmins."""
        rng = np.random.default_rng(5)
        collided = distinct = 0
        for trial in range(300):
            shape = tuple(int(d) for d in rng.integers(1, 7, size=2))
            cost = rng.integers(0, 4, size=shape) if trial % 2 else rng.random(shape)
            cost = cost.astype(float)
            short = cost if shape[0] <= shape[1] else cost.T
            argmins = short.argmin(axis=1)
            if np.unique(argmins).size == argmins.size:
                distinct += 1
            else:
                collided += 1
            assert assignment_max_cost(cost) == hungarian_max(cost), cost
        assert collided > 50 and distinct > 50

    def test_multisets_match_hungarian(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            na, nb = (int(d) for d in rng.integers(1, 7, size=2))
            a = rng.integers(-2, 3, na) + 1j * rng.integers(-1, 2, na)
            b = rng.integers(-2, 3, nb) + 1j * rng.integers(-1, 2, nb)
            b[: min(na, nb) // 2] = a[: min(na, nb) // 2]  # exact duplicates across sets
            dist, unmatched = match_multisets(a, b)
            assert dist == hungarian_max(relative_cost(a, b))
            assert unmatched == abs(na - nb)


class TestBlockDiag:
    @pytest.mark.parametrize(
        "blocks",
        [
            [np.eye(2), np.ones((1, 3)), np.array([[5]])],
            [1j * J2, (1 + 2j) * np.ones((2, 1))],
            [np.eye(2), 1j * np.ones((1, 2)), np.array([[7]])],
            [np.array([[1, 2]]), np.array([3])],
            [],
        ],
        ids=["real", "complex", "mixed", "int-and-1d", "none"],
    )
    def test_matches_scipy(self, blocks):
        ours, ref = block_diag(*blocks), scipy.linalg.block_diag(*blocks)
        assert ours.dtype == ref.dtype
        assert ours.shape == ref.shape
        assert np.array_equal(ours, ref)


def test_import_loads_no_scipy():
    """scipy loads on the first QZ, not on import of the package or the CLI."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import nospillover, nospillover.cli\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
        "from nospillover.linalg import eig_pencil\n"
        "pairs = eig_pencil(np.eye(2), -np.diag([1.0, 2.0]))\n"
        "assert np.allclose(sorted(p.value.real for p in pairs), [1, 2]), pairs\n"
    )
    proc = run_fresh_python(code)
    assert proc.returncode == 0, proc.stderr


class TestRealifiedPairs:
    def test_real_form_of_a_real_pencil(self):
        rng = np.random.default_rng(21)
        m, k = rng.standard_normal((6, 6)) + 6 * np.eye(6), rng.standard_normal((6, 6))
        eigs = eig_pencil(m, k)
        pair = next(e for e in eigs if e.value.imag > 1e-8)
        real = next(e for e in eigs if abs(e.value.imag) <= 1e-12)
        x, lam = realified_pairs([pair.value, real.value.real], [pair.vector, real.vector.real])
        assert x.shape == (6, 3) and lam.shape == (3, 3) and not np.iscomplexobj(x)
        a, b = pair.value.real, pair.value.imag
        assert np.array_equal(lam[:2, :2], [[a, b], [-b, a]]) and lam[2, 2] == real.value.real
        assert fnorm(m @ x @ lam + k @ x) <= 1e-12 * (fnorm(m) * fnorm(lam) + fnorm(k))

    @pytest.mark.parametrize("mu", [0.7, -0.7])
    def test_imaginary_value_gives_mu_j2_bit_for_bit(self, mu):
        # the sign of the zero diagonal is the sign of mu, as in mu * J2
        assert realified_pairs([1j * mu])[1].tobytes() == (mu * J2).tobytes()

    def test_the_type_decides_the_block(self):
        assert realified_pairs([0j])[1].shape == (2, 2)
        assert realified_pairs([0.0])[1].shape == (1, 1)
        x, lam = realified_pairs([1j, 2.0], [[1.0 + 2j, 3.0], [4.0, 5.0]])
        assert np.array_equal(x, [[1.0, 2.0, 4.0], [3.0, 0.0, 5.0]])
        assert realified_pairs([1j])[0] is None


class TestNearestEigenvalues:
    EIGS = [PencilEigenpair(complex(v), np.ones(2)) for v in (1.0, 2.0, 3.0)]

    def test_nearest_and_injective(self):
        assert nearest_eigenvalues(self.EIGS, [2.0001, 1.0]) == ([1, 0], [2])
        with pytest.raises(NotEigenpair):  # 2 is taken, and 1 and 3 are far
            nearest_eigenvalues(self.EIGS, [2.0, 2.0001])

    @pytest.mark.parametrize("fraction", [0.5, 2.0])
    def test_relative_published_value_tol(self, fraction):
        # |lambda - w| / (1 + |w|) against PUBLISHED_VALUE_TOL = 1e-3
        off = fraction * 1e-3 * 3.0 / (1.0 - fraction * 1e-3)
        wanted = [2.0 + off]
        if fraction > 1:
            with pytest.raises(NotEigenpair, match="no computed eigenvalue matches"):
                nearest_eigenvalues(self.EIGS, wanted)
        else:
            assert nearest_eigenvalues(self.EIGS, wanted) == ([1], [0, 2])
