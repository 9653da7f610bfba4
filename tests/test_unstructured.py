"""Tests for the known-fixed-pair update family."""

import numpy as np
import pytest

from nospillover.errors import MissingFixedPair, RankDeficientA
from nospillover.linalg import (
    eig_pencil,
    finite_eigenvalues,
    fnorm,
    match_multisets,
    pseudoinverse,
)
from nospillover.pencil import DeflatingPair, StructuredPencil
from nospillover.unstructured import (
    UpdateProblem,
    core_family,
    dual_basis_update,
    solve_general,
    stacked_constraints,
)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_problem(seed, n=6, p=2, target_shift=0.5):
    """Unstructured pencil with complementary eigen-split and random targets."""
    rng = np.random.default_rng(seed)
    m = crandn(rng, n, n)
    k = crandn(rng, n, n)
    pencil = StructuredPencil(m, k, None)
    eigs = eig_pencil(m, k)
    xc = np.hstack([e.vector.reshape(-1, 1) for e in eigs[:p]])
    lc = np.diag([e.value for e in eigs[:p]])
    xf = np.hstack([e.vector.reshape(-1, 1) for e in eigs[p:]])
    lf = np.diag([e.value for e in eigs[p:]])
    la = lc + target_shift * np.diag(crandn(rng, p, 1)[:, 0])
    problem = UpdateProblem(
        DeflatingPair(xc, lc),
        la,
        fixed=DeflatingPair(xf, lf),
    )
    return pencil, problem


def target_defect(pencil, problem):
    """R_a, the last p columns of the right-hand side B."""
    return stacked_constraints(pencil, problem)[1][:, -problem.p:]


class TestTargetDefect:
    def test_zero_for_unchanged(self):
        pencil, problem = random_problem(1)
        same = UpdateProblem(problem.change, problem.change.lam, fixed=problem.fixed)
        ra = target_defect(pencil, same)
        assert fnorm(ra) <= 1e-10 * pencil.scale()

    def test_diagonal_example(self):
        d = np.diag([3.0, 5.0])
        pencil = StructuredPencil(np.eye(2), -d, None)
        problem = UpdateProblem(
            DeflatingPair(np.eye(2)[:, :1], np.array([[3.0]])),
            np.array([[7.0]]),
            fixed=DeflatingPair(np.eye(2)[:, 1:], np.array([[5.0]])),
        )
        ra = target_defect(pencil, problem)
        # R_a = (d1 - mu) e1 for the diagonal pencil
        np.testing.assert_allclose(ra.real, [[3.0 - 7.0], [0.0]], atol=1e-14)

    def test_change_identity_agrees(self):
        # aiming at the change vectors, R_a = M X_c (Lc - La)
        pencil, problem = random_problem(2)
        ra = target_defect(pencil, problem)
        via_change = pencil.m @ problem.change.x @ (problem.change.lam - problem.target_lam)
        assert fnorm(ra - via_change) <= 1e-12 * fnorm(ra)


class TestGeneralSolution:
    def test_zero_update_for_unchanged(self):
        pencil, problem = random_problem(3)
        same = UpdateProblem(problem.change, problem.change.lam, fixed=problem.fixed)
        res = solve_general(pencil, same)
        assert fnorm(res.delta_m) <= 1e-9 * pencil.scale()
        assert fnorm(res.delta_k) <= 1e-9 * pencil.scale()

    def test_restores_both_pairs(self):
        for seed in range(10):
            pencil, problem = random_problem(seed + 10)
            res = solve_general(pencil, problem)
            m1 = pencil.m + res.delta_m
            k1 = pencil.k + res.delta_k
            scale = fnorm(m1) + fnorm(k1)
            assert (
                fnorm(m1 @ problem.xa @ problem.target_lam + k1 @ problem.xa)
                <= 1e-10 * scale
            )
            xf, lf = problem.fixed.x, problem.fixed.lam
            assert fnorm(m1 @ xf @ lf + k1 @ xf) <= 1e-10 * scale

    def test_two_z_values_differ_in_kernel(self):
        pencil, problem = random_problem(4)
        n = pencil.n
        rng = np.random.default_rng(99)
        z1 = crandn(rng, n, 2 * n)
        z2 = crandn(rng, n, 2 * n)
        r1 = solve_general(pencil, problem, z1)
        r2 = solve_general(pencil, problem, z2)
        a, _ = stacked_constraints(pencil, problem)
        y1 = np.hstack([r1.delta_m, r1.delta_k])
        y2 = np.hstack([r2.delta_m, r2.delta_k])
        assert fnorm((y1 - y2) @ a) <= 1e-10 * fnorm(y1 - y2) * fnorm(a)
        for res in (r1, r2):
            m1 = pencil.m + res.delta_m
            k1 = pencil.k + res.delta_k
            xf, lf = problem.fixed.x, problem.fixed.lam
            assert fnorm(m1 @ xf @ lf + k1 @ xf) <= 1e-9 * (fnorm(m1) + fnorm(k1))

    def test_missing_fixed_pair(self):
        pencil, problem = random_problem(5)
        bare = UpdateProblem(problem.change, problem.target_lam)
        with pytest.raises(MissingFixedPair):
            solve_general(pencil, bare)

    def test_rank_deficient_a(self):
        pencil, problem = random_problem(6)
        # duplicate a fixed vector into the target slot -> [X_f X_a] singular
        xa = problem.fixed.x[:, : problem.p]
        bad = UpdateProblem(
            problem.change, problem.target_lam, target_x=xa, fixed=problem.fixed
        )
        with pytest.raises(RankDeficientA):
            solve_general(pencil, bad)

    def test_min_norm_member(self):
        pencil, problem = random_problem(7)
        base = solve_general(pencil, problem)
        rng = np.random.default_rng(17)
        other = solve_general(pencil, problem, crandn(rng, pencil.n, 2 * pencil.n))
        norm0 = fnorm(np.hstack([base.delta_m, base.delta_k]))
        norm1 = fnorm(np.hstack([other.delta_m, other.delta_k]))
        assert norm0 <= norm1 + 1e-12


class TestDualBasisUpdate:
    def test_zero_mtilde(self):
        pencil, problem = random_problem(8)
        res = dual_basis_update(pencil, problem, np.zeros((pencil.n, problem.p)))
        assert fnorm(res.delta_m) == 0.0
        ra = res.provenance["ra"]
        ustar = res.provenance["u"].conj().T
        np.testing.assert_allclose(res.delta_k, ra @ ustar, atol=1e-12)

    def test_unit_vectors_rank_one(self):
        pencil = StructuredPencil(np.eye(2), -np.diag([1.0, 2.0]), None)
        problem = UpdateProblem(
            DeflatingPair(np.eye(2)[:, :1], np.array([[1.0]])),
            np.array([[4.0]]),
            fixed=DeflatingPair(np.eye(2)[:, 1:], np.array([[2.0]])),
        )
        res = dual_basis_update(pencil, problem, np.array([[0.5], [0.0]]))
        assert np.linalg.matrix_rank(res.delta_m) <= 1
        assert np.linalg.matrix_rank(res.delta_k) <= 1
        np.testing.assert_allclose(
            res.provenance["u"].conj().T.real, [[1.0, 0.0]], atol=1e-14
        )

    def test_dual_conditions(self):
        rng = np.random.default_rng(20)
        for seed in range(10):
            pencil, problem = random_problem(seed + 40)
            res = dual_basis_update(
                pencil, problem, crandn(rng, pencil.n, problem.p)
            )
            ustar = res.provenance["u"].conj().T
            assert fnorm(ustar @ problem.fixed.x) <= 1e-12 * fnorm(problem.fixed.x)
            assert fnorm(ustar @ problem.xa - np.eye(problem.p)) <= 1e-12

    def test_restores_pairs(self):
        rng = np.random.default_rng(21)
        pencil, problem = random_problem(22)
        res = dual_basis_update(pencil, problem, crandn(rng, pencil.n, problem.p))
        m1, k1 = pencil.m + res.delta_m, pencil.k + res.delta_k
        scale = fnorm(m1) + fnorm(k1)
        assert (
            fnorm(m1 @ problem.xa @ problem.target_lam + k1 @ problem.xa)
            <= 1e-10 * scale
        )
        xf, lf = problem.fixed.x, problem.fixed.lam
        assert fnorm(m1 @ xf @ lf + k1 @ xf) <= 1e-10 * scale

    def test_member_of_general_family(self):
        # Y_thm solves Y A = B, so Z = Y_thm - B A^+ reproduces it exactly
        pencil, problem = random_problem(23)
        rng = np.random.default_rng(3)
        res = dual_basis_update(pencil, problem, crandn(rng, pencil.n, problem.p))
        y_thm = np.hstack([res.delta_m, res.delta_k])
        a, b = stacked_constraints(pencil, problem)
        apinv = pseudoinverse(a)
        z = y_thm - b @ apinv
        y_re = b @ apinv + z @ (np.eye(2 * pencil.n) - a @ apinv)
        assert fnorm(y_re - y_thm) <= 1e-10 * max(fnorm(y_thm), 1.0)


class TestCoreFamily:
    def test_trivial_target(self):
        p = 3
        ra = np.arange(6.0).reshape(2, 3) + 0j
        mt, kt = core_family(ra, np.zeros((p, p)), np.zeros((2, p)), np.zeros((2, p)))
        assert fnorm(mt) == 0.0
        np.testing.assert_allclose(kt, ra)

    def test_identity_for_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n, p = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            ra = crandn(rng, n, p)
            la = crandn(rng, p, p)  # not diagonal, not normal
            z1, z2 = crandn(rng, n, p), crandn(rng, n, p)
            mt, kt = core_family(ra, la, z1, z2)
            scale = fnorm(ra) + (fnorm(mt) * fnorm(la) + fnorm(kt))
            assert fnorm(mt @ la + kt - ra) <= 1e-12 * scale

    def test_reproduces_known_solution(self):
        # feeding a known solution pair as (Z1, Z2) returns another solution
        rng = np.random.default_rng(44)
        pencil, problem = random_problem(31)
        n, p = pencil.n, problem.p
        ra, la = target_defect(pencil, problem), problem.target_lam
        mt0, kt0 = core_family(ra, la, crandn(rng, n, p), crandn(rng, n, p))
        mt1, kt1 = core_family(ra, la, mt0, kt0)
        assert fnorm(mt1 @ la + kt1 - ra) <= 1e-11 * fnorm(ra)


class TestUpdatedSpectrum:
    def test_spectrum_is_union(self):
        for seed in (50, 51, 52):
            pencil, problem = random_problem(seed)
            res = solve_general(pencil, problem)
            m1, k1 = pencil.m + res.delta_m, pencil.k + res.delta_k
            expected = np.concatenate(
                [
                    np.linalg.eigvals(problem.target_lam),
                    np.linalg.eigvals(problem.fixed.lam),
                ]
            )
            computed = finite_eigenvalues(eig_pencil(m1, k1))
            dist, unmatched = match_multisets(expected, computed)
            assert unmatched == 0
            assert dist <= 1e-8
