"""Cross-checks between independent routes to the same update.

The paper's closed-form diagonal cores must coincide with the generic core
parametrization restricted to their parameter patterns, which is what the
class recipes run, and the reference problems must be solvable through the
known-fixed-pair family as well.
"""

import numpy as np

from nospillover.cases import CASES
from nospillover.linalg import eig_pencil, fnorm
from nospillover.pencil import DeflatingPair, HERMITIAN, StructuredPencil
from nospillover.special import QuadraticSpec, hermitian_core, solve_quadratic
from nospillover.structured import parametrized_core
from nospillover.unstructured import UpdateProblem, solve_general


def star_odd_core(lc, la, z1, z2):
    """The closed-form star-odd M > 0 core (G = I), on diagonals:

    Mh = Ha[(La - Lc) La + Z1 + Z2 La],  Kh = Ha[(Lc - La) - Z1 La - Z2 La^2]
    with Ha = (I - La^2)^{-1}; Z1 real, Z2 imaginary.
    """
    ha = 1.0 / (1.0 - la**2)
    return ha * ((la - lc) * la + z1 + z2 * la), ha * ((lc - la) - z1 * la - z2 * la**2)


def star_even_core(lc, la, z1, z2):
    """The closed-form star-even K > 0 core (G = -Lc^{-1}), on diagonals:

    Mh = Ha[Lc^{-1}(Lc - La) La + Z1 + Z2 La],
    Kh = Ha[Lc^{-1}(La - Lc) - Z1 La - Z2 La^2],
    with Ha = (I - La^2)^{-1}; Z1 imaginary, Z2 real.
    """
    ha = 1.0 / (1.0 - la**2)
    return (
        ha * ((lc - la) / lc * la + z1 + z2 * la),
        ha * ((la - lc) / lc - z1 * la - z2 * la**2),
    )


class TestClassCoresMatchGenericParametrization:
    """The per-class diagonal formulas are the generic family restricted to
    diagonal parameters and the class Gramian, as ``special`` builds it."""

    def test_hermitian(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            p = int(rng.integers(1, 5))
            lc, la = rng.standard_normal(p), rng.standard_normal(p)
            z1, z2 = rng.standard_normal(p), rng.standard_normal(p)
            mh, kh = hermitian_core(lc, la, z1, z2)
            core = parametrized_core(
                np.eye(p), np.diag(lc), np.diag(la), np.diag(z1), np.diag(z2)
            )
            assert fnorm(np.diag(mh) - core.mhat) <= 1e-13 * (1 + fnorm(core.mhat))
            assert fnorm(np.diag(kh) - core.khat) <= 1e-13 * (1 + fnorm(core.khat))

    def test_star_odd(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p = int(rng.integers(1, 5))
            lc = 1j * rng.standard_normal(p)
            la = 1j * rng.standard_normal(p)
            z1 = rng.standard_normal(p)
            z2 = 1j * rng.standard_normal(p)
            mh, kh = star_odd_core(lc, la, z1, z2)
            core = parametrized_core(
                np.eye(p), np.diag(lc), np.diag(la), np.diag(z1), np.diag(z2)
            )
            assert fnorm(np.diag(mh) - core.mhat) <= 1e-13 * (1 + fnorm(core.mhat))
            assert fnorm(np.diag(kh) - core.khat) <= 1e-13 * (1 + fnorm(core.khat))

    def test_star_even(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = int(rng.integers(1, 5))
            lc = 1j * (rng.standard_normal(p) + 2.0 * np.sign(rng.standard_normal(p)))
            la = 1j * rng.standard_normal(p)
            z1 = 1j * rng.standard_normal(p)
            z2 = rng.standard_normal(p)
            mh, kh = star_even_core(lc, la, z1, z2)
            g = np.diag(-1.0 / lc)
            core = parametrized_core(
                g, np.diag(lc), np.diag(la), np.diag(z1), np.diag(z2)
            )
            assert fnorm(np.diag(mh) - core.mhat) <= 1e-12 * (1 + fnorm(core.mhat))
            assert fnorm(np.diag(kh) - core.khat) <= 1e-12 * (1 + fnorm(core.khat))


class TestReferenceProblemThroughGeneralFamily:
    def test_known_pairs_route_restores_everything(self):
        # treat the computed reference eigendata as fully known and solve
        # through the unstructured family; both pairs must be restored
        case = CASES["herm-6.1"]
        pencil = StructuredPencil(case.m, case.k, HERMITIAN)
        eigs = eig_pencil(case.m, case.k)
        wanted = [v * v for v in case.lam_change]
        change_idx = [
            min(
                range(len(eigs)),
                key=lambda i: abs(eigs[i].value - w),
            )
            for w in wanted
        ]
        fixed_idx = [i for i in range(len(eigs)) if i not in change_idx]
        xc = np.hstack([eigs[i].vector.reshape(-1, 1) for i in change_idx])
        lc = np.diag([eigs[i].value for i in change_idx])
        xf = np.hstack([eigs[i].vector.reshape(-1, 1) for i in fixed_idx])
        lf = np.diag([eigs[i].value for i in fixed_idx])
        la = np.diag([v * v for v in case.lam_target])
        problem = UpdateProblem(
            DeflatingPair(xc, lc), la, fixed=DeflatingPair(xf, lf)
        )
        res = solve_general(pencil, problem)
        m1, k1 = case.m + res.delta_m, case.k + res.delta_k
        scale = fnorm(m1) * (1 + fnorm(la)) + fnorm(k1)
        assert fnorm(m1 @ xc @ la + k1 @ xc) <= 1e-10 * scale
        assert fnorm(m1 @ xf @ lf + k1 @ xf) <= 1e-10 * scale

    def test_general_family_agrees_with_class_recipe_on_targets(self):
        # the structured recipe and the minimum-norm member solve the same
        # constraints; both updated pencils carry the same target pairs
        case = CASES["herm-6.1"]
        spec = QuadraticSpec("hermitian", case.lam_change, case.lam_target)
        res_q, info = solve_quadratic(case.m, case.k, spec, z1=case.z1, z2=case.z2)
        xn = res_q.provenance["xc_normalized"]
        la = info["problem"].target_lam
        m1 = case.m + res_q.delta_m
        k1 = case.k + res_q.delta_k
        assert (
            fnorm(m1 @ xn @ la + k1 @ xn)
            <= 1e-10 * (fnorm(m1) * (1 + fnorm(la)) + fnorm(k1))
        )
