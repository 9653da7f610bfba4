"""Tests for the dense matrix substrate."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import nospillover

from nospillover.errors import (
    DimensionMismatch,
    NonFiniteEntries,
    NotHermitian,
    SingularMatrix,
    SingularPencil,
)
from nospillover.linalg import (
    J2,
    as_matrix,
    block_diag,
    eig_pencil,
    finite_eigenvalues,
    fnorm,
    herm_eigs,
    match_multisets,
    pseudoinverse,
    solve,
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


class TestSolve:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        x, rcond = solve(np.eye(2), b)
        np.testing.assert_allclose(x, b)
        assert rcond == pytest.approx(1.0)

    def test_diagonal(self):
        x, _ = solve(np.diag([2.0, 4.0]), np.eye(2))
        np.testing.assert_allclose(x, np.diag([0.5, 0.25]))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            solve(np.ones((2, 2)), np.eye(2))

    def test_solve_then_multiply(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            a = crandn(rng, n, n)
            b = crandn(rng, n, 3)
            x, rcond = solve(a, b)
            assert fnorm(a @ x - b) <= 1e-10 / rcond * fnorm(b)


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


class TestMatchMultisets:
    def test_permutation_invariant(self):
        a = np.array([1 + 1j, 2.0, 3 - 1j])
        d1, u1 = match_multisets(a, a[::-1])
        assert u1 == 0 and d1 <= 1e-15

    def test_size_mismatch_counted(self):
        _, unmatched = match_multisets([1.0, 2.0], [1.0])
        assert unmatched == 1


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
    src = str(Path(nospillover.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
