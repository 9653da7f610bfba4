"""Property-based and bulk invariant tests.

Hypothesis drives the algebraic identities that must hold for arbitrary
inputs; seeded bulk loops cover the per-class invariants at the counts the
release checklist asks for.
"""

import numpy as np
import pytest
from conftest import (
    finite_eigenvalues,
    plant_hermitian_definite,
    plant_star_even,
    plant_star_odd,
    plant_t_even_real,
    plant_t_odd_real,
    pseudoinverse,
    random_structured_pencil,
    spillover_residual,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nospillover.linalg import (
    eig_pencil,
    TAU_NUM,
    fnorm,
    match_multisets,
)
from nospillover.pencil import (
    ALL_TAGS,
    T_EVEN,
    T_ODD,
    classify_structure,
    symmetry_partner,
)
from nospillover.special import (
    hermitian_update,
    star_even_update,
    star_odd_update,
    t_even_real_update,
    t_odd_real_update,
)
from nospillover.unstructured import core_family

complex_entries = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def matrices(rows, cols):
    return st.lists(
        st.lists(complex_entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda rows_: np.array(rows_, dtype=complex))


@settings(max_examples=60, deadline=None)
@given(a=matrices(4, 2))
# nearly rank deficient: sigma_max / sigma_min ~ 7e7, residuals ~ 1e-9
@example(a=np.array([[0, 0], [0, 0], [1 + 1j, 1j], [1 + 1j, 2.0**-24 + 1j]]))
def test_pseudoinverse_penrose_property(a):
    p = pseudoinverse(a)
    # backward error grows with the condition number of the part pinv inverts:
    # the singular values above its cutoff TAU_NUM * sigma_max
    s = np.linalg.svd(a, compute_uv=False)
    kept = s[s > TAU_NUM * s[0]] if s[0] > 0 else np.ones(1)
    tol = 1e-10 * max(fnorm(a), 1.0) * kept[0] / kept[-1]
    assert fnorm(a @ p @ a - a) <= tol
    assert fnorm((a @ p).conj().T - a @ p) <= tol


@settings(max_examples=60, deadline=None)
@given(b=matrices(3, 2), la=matrices(2, 2), z1=matrices(3, 2), z2=matrices(3, 2))
def test_core_family_solves_for_any_parameters(b, la, z1, z2):
    mt, kt = core_family(b, la, z1, z2)
    scale = max(fnorm(b) + fnorm(mt) * fnorm(la) + fnorm(kt), 1.0)
    assert fnorm(mt @ la + kt - b) <= 1e-11 * scale


@settings(max_examples=40, deadline=None)
@given(
    lam=st.complex_numbers(
        min_magnitude=1e-3, max_magnitude=100.0, allow_nan=False, allow_infinity=False
    )
)
def test_symmetry_partner_is_involutive(lam):
    for tag in ALL_TAGS:
        once = symmetry_partner([lam], tag)[0]
        twice = symmetry_partner([once], tag)[0]
        assert twice == pytest.approx(lam, rel=1e-12, abs=1e-12)


class TestSpectrumClosureBulk:
    @pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.name)
    def test_spectrum_closed_under_symmetry(self, tag):
        # 100 random pencils per class, n <= 10
        rng = np.random.default_rng(abs(hash(tag.name)) % 2**32)
        done = 0
        trial = 0
        while done < 100:
            trial += 1
            n = int(rng.integers(2, 11))
            if tag is T_EVEN and n % 2:
                n += 1
            pencil = random_structured_pencil(rng, n, tag)
            vals = finite_eigenvalues(eig_pencil(pencil.m, pencil.k))
            if vals.size < n:  # infinite eigenvalues: partner map undefined
                continue
            partner = symmetry_partner(vals, tag)
            dist, unmatched = match_multisets(vals, partner)
            assert unmatched == 0
            assert dist <= 1e-7, (tag.name, trial, dist)
            done += 1


class TestDefiniteClassBulk:
    """Structure classification of the updated pencil, 100 instances each."""

    def test_hermitian_definite(self):
        rng = np.random.default_rng(61)
        for seed in range(100):
            pencil, xc, lc, xf, lf = plant_hermitian_definite(seed + 1000, 6, 2)
            la = lc.real + rng.standard_normal(2)
            res = hermitian_update(
                pencil, xc, lc, la,
                z1=rng.standard_normal(2), z2=rng.standard_normal(2),
            )
            m1, k1 = pencil.m + res.delta_m, pencil.k + res.delta_k
            tags = classify_structure(m1, k1)
            assert pencil.tag in tags, seed

    def test_star_odd_definite(self):
        rng = np.random.default_rng(62)
        for seed in range(100):
            pencil, xc, lc, xf, lf = plant_star_odd(seed + 1000, 6, 2)
            la = 1j * (lc.imag + rng.standard_normal(2))
            res = star_odd_update(
                pencil, xc, lc, la,
                z1=rng.standard_normal(2), z2=1j * rng.standard_normal(2),
            )
            m1, k1 = pencil.m + res.delta_m, pencil.k + res.delta_k
            assert pencil.tag in classify_structure(m1, k1), seed

    def test_star_even_definite(self):
        rng = np.random.default_rng(63)
        for seed in range(100):
            pencil, xc, lc, xf, lf = plant_star_even(seed + 1000, 6, 2)
            la = 1j * (lc.imag + rng.standard_normal(2))
            res = star_even_update(
                pencil, xc, lc, la,
                z1=1j * rng.standard_normal(2), z2=rng.standard_normal(2),
            )
            m1, k1 = pencil.m + res.delta_m, pencil.k + res.delta_k
            assert pencil.tag in classify_structure(m1, k1), seed

    def test_t_odd_real(self):
        rng = np.random.default_rng(64)
        for seed in range(100):
            pencil, change, fixed = plant_t_odd_real(seed + 1000, 6, pairs=2)
            targets = [1j * (lam.imag * (1 + 0.2 * rng.uniform())) for lam, _ in change]
            res = t_odd_real_update(
                pencil, change, targets,
                rng.standard_normal(2), rng.standard_normal(2),
            )
            m1, k1 = pencil.m + res.delta_m, pencil.k + res.delta_k
            assert T_ODD in classify_structure(m1, k1), seed
            assert spillover_residual(pencil, res.delta_m, res.delta_k, fixed) <= 1e-10

    def test_t_even_real(self):
        rng = np.random.default_rng(65)
        for seed in range(100):
            pencil, change, fixed = plant_t_even_real(seed + 1000, 6, pairs=1)
            targets = [1j * (lam.imag * (1 + 0.2 * rng.uniform())) for lam, _ in change]
            res = t_even_real_update(
                pencil, change, targets,
                rng.standard_normal(1), rng.standard_normal(1),
            )
            m1, k1 = pencil.m + res.delta_m, pencil.k + res.delta_k
            assert T_EVEN in classify_structure(m1, k1), seed
            assert spillover_residual(pencil, res.delta_m, res.delta_k, fixed) <= 1e-10


class TestQuadraticRoundTrip:
    @pytest.mark.parametrize("case_id", ["herm-6.1", "odd-6.2", "even-6.3"])
    def test_updated_spectrum_and_square_roots(self, case_id):
        from nospillover.cases import CASES
        from nospillover.special import QuadraticSpec, solve_quadratic

        case = CASES[case_id]
        spec = QuadraticSpec(case.klass, case.lam_change, case.lam_target)
        res, info = solve_quadratic(case.m, case.k, spec, z1=case.z1, z2=case.z2)
        m1 = case.m + res.delta_m
        k1 = case.k + res.delta_k
        mu = finite_eigenvalues(eig_pencil(m1, k1))
        problem = info["problem"]
        expected_mu = np.concatenate(
            [np.diagonal(problem.target_lam), np.diagonal(problem.fixed.lam)]
        )
        dist, unmatched = match_multisets(mu, expected_mu)
        assert unmatched == 0 and dist <= 1e-6
        # square roots recover the +/- lambda pairs of the quadratic model
        computed_lams = np.concatenate([np.sqrt(mu), -np.sqrt(mu)])
        expected_lams = []
        for v in expected_mu:
            r = np.sqrt(v)
            expected_lams += [r, -r]
        dist, unmatched = match_multisets(computed_lams, expected_lams)
        assert unmatched == 0 and dist <= 1e-7
