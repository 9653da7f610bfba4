"""Tests for the known-fixed-pair update family."""

import numpy as np
import pytest
from conftest import finite_eigenvalues, pencil_scale

from nospillover.errors import MissingFixedPair, RankDeficientA
from nospillover.linalg import (
    TAU_DEFL,
    eig_pencil,
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
from nospillover.verify import certify


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


def family_member(pencil, problem, z=None):
    """[dM dK] = B A' + Z (I - A A'), the member of the general solution
    family for the free n x 2n parameter Z; B A' for Z = None."""
    a, b = stacked_constraints(pencil, problem)
    apinv = pseudoinverse(a)
    y = b @ apinv
    if z is not None:
        y = y + z @ (np.eye(2 * pencil.n) - a @ apinv)
    return y


class TestTargetDefect:
    def test_zero_for_unchanged(self):
        pencil, problem = random_problem(1)
        same = UpdateProblem(problem.change, problem.change.lam, fixed=problem.fixed)
        ra = target_defect(pencil, same)
        assert fnorm(ra) <= 1e-10 * pencil_scale(pencil)

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
        assert fnorm(res.delta_m) <= 1e-9 * pencil_scale(pencil)
        assert fnorm(res.delta_k) <= 1e-9 * pencil_scale(pencil)

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

    def test_moved_target_vectors(self):
        # X_a = X_c plus a small perturbation: (X_a, La) becomes a deflating
        # pair, and (X_c, La) does not, while the fixed pair is kept
        for seed in (70, 71, 72):
            pencil, problem = random_problem(seed)
            xc = problem.change.x
            xa = xc + 0.1 * crandn(np.random.default_rng(seed), *xc.shape)
            moved = UpdateProblem(problem.change, problem.target_lam, target_x=xa,
                                  fixed=problem.fixed)
            res = solve_general(pencil, moved)
            cert = certify(pencil, res, moved)
            assert cert.target_relative <= TAU_DEFL
            assert cert.spillover_relative <= TAU_DEFL
            assert certify(pencil, res, problem).target_relative > TAU_DEFL

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

    def test_factors_equal_the_pinv_reference(self):
        for seed in (60, 61, 62):
            pencil, problem = random_problem(seed)
            n, p = pencil.n, problem.p
            res = solve_general(pencil, problem)
            left, mhat, khat, right = res.factors
            assert (left.shape, mhat.shape, khat.shape, right.shape) == (
                (n, p), (p, 2 * p), (p, 2 * p), (2 * p, n)
            )
            y_ref = family_member(pencil, problem)
            y = np.hstack([res.delta_m, res.delta_k])
            assert fnorm(y - y_ref) <= 1e-14 * fnorm(y_ref)

    def test_family_members_meet_both_constraints(self):
        pencil, problem = random_problem(4)
        rng = np.random.default_rng(99)
        n = pencil.n
        for _ in range(3):
            y = family_member(pencil, problem, crandn(rng, n, 2 * n))
            m1, k1 = pencil.m + y[:, :n], pencil.k + y[:, n:]
            scale = fnorm(m1) + fnorm(k1)
            xa, la = problem.xa, problem.target_lam
            assert fnorm(m1 @ xa @ la + k1 @ xa) <= 1e-9 * scale
            xf, lf = problem.fixed.x, problem.fixed.lam
            assert fnorm(m1 @ xf @ lf + k1 @ xf) <= 1e-9 * scale

    def test_factored_member_has_least_norm(self):
        pencil, problem = random_problem(7)
        res = solve_general(pencil, problem)
        norm0 = fnorm(np.hstack([res.delta_m, res.delta_k]))
        rng = np.random.default_rng(17)
        for _ in range(3):
            z = crandn(rng, pencil.n, 2 * pencil.n)
            assert norm0 <= fnorm(family_member(pencil, problem, z)) + 1e-12


class TestDualBasisUpdate:
    def test_zero_mtilde(self):
        pencil, problem = random_problem(8)
        res = dual_basis_update(pencil, problem, np.zeros((pencil.n, problem.p)))
        assert fnorm(res.delta_m) == 0.0
        left, _, _, ustar = res.factors
        ra = target_defect(pencil, problem)
        np.testing.assert_allclose(left, np.hstack([np.zeros_like(ra), ra]), atol=1e-12)
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
            res.factors[3].real, [[1.0, 0.0]], atol=1e-14
        )

    def test_dual_conditions(self):
        rng = np.random.default_rng(20)
        for seed in range(10):
            pencil, problem = random_problem(seed + 40)
            res = dual_basis_update(
                pencil, problem, crandn(rng, pencil.n, problem.p)
            )
            ustar = res.factors[3]  # right = U^star
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
        y_re = family_member(pencil, problem, y_thm - family_member(pencil, problem))
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
