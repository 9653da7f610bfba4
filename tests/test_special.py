"""Tests for the definite-class update recipes and the quadratic lift."""

import numpy as np
import pytest
from conftest import (
    crandn,
    plant_hermitian_definite,
    plant_hermitian_definite_pd_k,
    plant_star_even,
    plant_star_odd,
    plant_t_even_real,
    plant_t_odd_real,
    spillover_residual,
)

from nospillover.errors import (
    EigenvalueOutsideClass,
    NotHermitian,
    NotImaginaryDiagonal,
    NotPositiveDefinite,
    NotRealDiagonal,
    PositiveTargetEigenvalue,
    ZeroChangeEigenvalue,
)
from nospillover.linalg import (
    EIG_MATCH_TOL,
    TAU_DEFL,
    TAU_NUM,
    eig_pencil,
    finite_eigenvalues,
    fnorm,
    herm_eigs,
    match_multisets,
    unit_eigenpairs,
)
from nospillover.pencil import (
    HERMITIAN,
    STAR_EVEN,
    STAR_ODD,
    T_EVEN,
    T_ODD,
    StructuredPencil,
    classify_structure,
)
from nospillover.special import (
    QuadraticSpec,
    _require_positive_definite,
    definite_eig,
    hermitian_core,
    hermitian_update,
    lift_quadratic,
    commuting_family_params,
    select_eigendata,
    select_psd_params,
    star_even_core,
    star_even_update,
    star_odd_core,
    star_odd_update,
    t_even_real_update,
    t_odd_real_update,
)


def herm_res(a):
    return fnorm(a - a.conj().T) / max(fnorm(a), 1e-300)


def skew_res(a):
    return fnorm(a + a.conj().T) / max(fnorm(a), 1e-300)


class TestHermitianCore:
    def test_trivial(self):
        mh, kh = hermitian_core([3.0, -1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        np.testing.assert_allclose(mh, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(kh, [3.0, -1.0], atol=1e-15)

    def test_core_equation(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = int(rng.integers(1, 5))
            lc, la = rng.standard_normal(p), rng.standard_normal(p)
            z1, z2 = rng.standard_normal(p), rng.standard_normal(p)
            mh, kh = hermitian_core(lc, la, z1, z2)
            scale = 1.0 + abs(lc).max() + abs(la).max() + abs(mh).max()
            assert np.abs(mh * la + kh - (lc - la)).max() <= 1e-12 * scale

    def test_rejects_complex(self):
        with pytest.raises(NotRealDiagonal):
            hermitian_core([1j], [0.0], [0.0], [0.0])


class TestHermitianUpdate:
    def test_zero_mhat_branch(self):
        pencil, xc, lc, xf, lf = plant_hermitian_definite(7)
        res = hermitian_update(pencil, xc, lc, lc - 0.5, mhat=np.zeros(2))
        assert fnorm(res.delta_m) == 0.0
        xn = res.provenance["xc_normalized"]
        want = pencil.m @ xn @ np.diag(lc - (lc - 0.5)) @ xn.conj().T @ pencil.m
        assert fnorm(res.delta_k - want) <= 1e-13 * fnorm(want)

    def test_zero_delta_k_branch(self):
        pencil, xc, lc, xf, lf = plant_hermitian_definite(8)
        la = lc.real * 1.2
        mhat = lc.real / la - 1.0
        res = hermitian_update(pencil, xc, lc, la, mhat=mhat)
        assert fnorm(res.delta_k) <= 1e-12 * fnorm(pencil.k)
        assert fnorm(res.delta_m) > 0

    def test_real_inputs_real_outputs(self):
        rng = np.random.default_rng(9)
        n = 5
        b = rng.standard_normal((n, n))
        m = b @ b.T + n * np.eye(n)
        c = rng.standard_normal((n, n))
        k = c + c.T
        from nospillover.linalg import eig_pencil
        pencil = StructuredPencil(m, k, HERMITIAN)
        eigs = eig_pencil(m, k)
        xc = np.hstack([e.vector.reshape(-1, 1) for e in eigs[:2]])
        lc = np.array([e.value for e in eigs[:2]]).real
        res = hermitian_update(
            pencil, xc.real, lc, lc * 1.1, z1=[0.3, 0.1], z2=[0.0, 0.2]
        )
        assert np.abs(res.delta_m.imag).max() == 0.0
        assert np.abs(res.delta_k.imag).max() == 0.0

    def test_requires_definite_m(self):
        rng = np.random.default_rng(10)
        h = rng.standard_normal((4, 4))
        m = (h + h.T) / 2  # indefinite
        k = np.eye(4)
        pencil = StructuredPencil(m, k, HERMITIAN)
        with pytest.raises(NotPositiveDefinite):
            hermitian_update(pencil, np.eye(4)[:, :1], [1.0], [2.0])

    def test_spillover_and_structure(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            pencil, xc, lc, xf, lf = plant_hermitian_definite(seed + 20)
            la = lc.real + rng.standard_normal(2)
            res = hermitian_update(
                pencil,
                xc,
                lc,
                la,
                z1=rng.standard_normal(2),
                z2=rng.standard_normal(2),
            )
            assert herm_res(res.delta_m) <= 1e-12
            assert herm_res(res.delta_k) <= 1e-12
            m1, k1 = pencil.m + res.delta_m, pencil.k + res.delta_k
            assert HERMITIAN in classify_structure(m1, k1)
            sres = fnorm(m1 @ xf @ np.diag(lf) + k1 @ xf)
            assert sres <= 1e-10 * (fnorm(m1) * (1 + abs(lf).max()) + fnorm(k1))


class TestCommutingFamilyRecovery:
    def test_core_matches_closed_form(self):
        rng = np.random.default_rng(12)
        p = 3
        lc = -np.abs(rng.standard_normal(p)) - 0.5
        la = -np.abs(rng.standard_normal(p)) - 0.5
        phi = np.abs(rng.standard_normal(p)) + 0.5
        z1, z2 = commuting_family_params(lc, la, phi)
        mh, kh = hermitian_core(lc, la, z1, z2)
        np.testing.assert_allclose(mh.real, phi - 1.0, atol=1e-12)
        np.testing.assert_allclose(kh.real, lc - phi * la, atol=1e-12)

    def test_admissible_draws_are_psd(self):
        # Phi chosen above the PSD threshold makes both updates PSD
        rng = np.random.default_rng(13)
        for seed in range(10):
            pencil, xc, lc, xf, lf = plant_hermitian_definite_pd_k(seed + 30)
            lc = lc.real
            la = lc * (1 + 0.2 * rng.uniform(size=lc.size))
            bound = np.maximum((la - lc) * la, lc / la - 1.0)
            phi_min = 1.0 + (np.maximum(bound, 0.0) + (lc - la) * la) / (la**2 + 1.0)
            phi = phi_min + rng.uniform(0.01, 1.0, size=lc.size)
            z1, z2 = commuting_family_params(lc, la, phi)
            res = hermitian_update(pencil, xc, lc, la, z1=z1, z2=z2)
            for delta in (res.delta_m, res.delta_k):
                evals = herm_eigs(delta)
                assert evals[0] >= -1e-10 * max(fnorm(delta), 1.0)


class TestPsdSelection:
    def test_unchanged_targets_zero(self):
        params = select_psd_params([-2.0, -3.0], [-2.0, -3.0])
        np.testing.assert_allclose(params.z1, 0.0, atol=1e-15)
        np.testing.assert_allclose(params.z2, 0.0, atol=1e-15)

    def test_positive_target_rejected(self):
        with pytest.raises(PositiveTargetEigenvalue):
            select_psd_params([-1.0], [0.5])

    def test_random_draws_psd(self):
        rng = np.random.default_rng(14)
        for seed in range(8):
            pencil, xc, lc, xf, lf = plant_hermitian_definite_pd_k(seed + 50)
            lc = lc.real
            la = lc * (1 + 0.3 * rng.uniform(-1, 1, size=lc.size))
            params = select_psd_params(lc, la, slack=0.0)
            res = hermitian_update(pencil, xc, lc, la, z1=params.z1, z2=params.z2)
            for delta in (res.delta_m, res.delta_k):
                evals = herm_eigs(delta)
                assert evals[0] >= -1e-10 * max(fnorm(delta), 1.0)


class TestStarOdd:
    def test_zero_case(self):
        pencil, xc, lc, xf, lf = plant_star_odd(15)
        res = star_odd_update(pencil, xc, lc, lc, z1=np.zeros(2), z2=np.zeros(2))
        assert fnorm(res.delta_m) <= 1e-12
        assert fnorm(res.delta_k) <= 1e-12

    def test_core_equation_and_shapes(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            p = int(rng.integers(1, 4))
            lc = 1j * rng.standard_normal(p)
            la = 1j * rng.standard_normal(p)
            z1 = rng.standard_normal(p)
            z2 = 1j * rng.standard_normal(p)
            mh, kh = star_odd_core(lc, la, z1, z2)
            scale = 1.0 + np.abs(lc).max() + np.abs(la).max() + np.abs(mh).max()
            assert np.abs(mh * la + kh - (lc - la)).max() <= 1e-12 * scale
            assert np.abs(mh.imag).max() <= 1e-12 * scale  # Mh real
            assert np.abs(kh.real).max() <= 1e-12 * scale  # Kh imaginary

    def test_rejects_nonimaginary_targets(self):
        with pytest.raises(NotImaginaryDiagonal):
            star_odd_core([1j], [0.5 + 1j], [0.0], [0.0])

    def test_plant_and_check(self):
        rng = np.random.default_rng(17)
        for seed in range(5):
            pencil, xc, lc, xf, lf = plant_star_odd(seed + 60)
            la = 1j * (lc.imag + rng.standard_normal(2))
            res = star_odd_update(
                pencil, xc, lc, la,
                z1=rng.standard_normal(2),
                z2=1j * rng.standard_normal(2),
            )
            assert herm_res(res.delta_m) <= 1e-12
            assert skew_res(res.delta_k) <= 1e-12
            m1, k1 = pencil.m + res.delta_m, pencil.k + res.delta_k
            assert STAR_ODD in classify_structure(m1, k1)
            sres = fnorm(m1 @ xf @ np.diag(lf) + k1 @ xf)
            assert sres <= 1e-10 * (fnorm(m1) * (1 + np.abs(lf).max()) + fnorm(k1))

    def test_psd_bracket_condition(self):
        pencil, xc, lc, xf, lf = plant_star_odd(18)
        la = 1j * (lc.imag * 1.3)
        bracket = ((la - lc) * la).real
        z1 = np.maximum(-bracket, 0.0) + 0.1  # makes the bracket nonnegative
        res = star_odd_update(pencil, xc, lc, la, z1=z1, z2=np.zeros(2))
        assert herm_eigs(res.delta_m)[0] >= -1e-10 * max(fnorm(res.delta_m), 1.0)


class TestStarEven:
    def test_delta_k_zero_shortcut(self):
        pencil, xc, lc, xf, lf = plant_star_even(19)
        la = 1j * lc.imag * 1.4
        mhat = 1.0 / lc - 1.0 / la
        res = star_even_update(pencil, xc, lc, la, mhat=mhat)
        assert fnorm(res.delta_k) <= 1e-11 * fnorm(pencil.k)
        assert skew_res(res.delta_m) <= 1e-12

    def test_zero_change_eigenvalue_rejected(self):
        with pytest.raises(ZeroChangeEigenvalue):
            star_even_core([0.0], [1j], [0.0], [0.0])

    def test_plant_and_check(self):
        rng = np.random.default_rng(20)
        for seed in range(5):
            pencil, xc, lc, xf, lf = plant_star_even(seed + 70)
            la = 1j * (lc.imag + rng.standard_normal(2))
            res = star_even_update(
                pencil, xc, lc, la,
                z1=1j * rng.standard_normal(2),
                z2=rng.standard_normal(2),
            )
            assert skew_res(res.delta_m) <= 1e-12
            assert herm_res(res.delta_k) <= 1e-12
            m1, k1 = pencil.m + res.delta_m, pencil.k + res.delta_k
            assert STAR_EVEN in classify_structure(m1, k1)
            sres = fnorm(m1 @ xf @ np.diag(lf) + k1 @ xf)
            assert sres <= 1e-10 * (fnorm(m1) * (1 + np.abs(lf).max()) + fnorm(k1))

    def test_psd_bracket_condition(self):
        pencil, xc, lc, xf, lf = plant_star_even(21)
        la = 1j * lc.imag * 0.8
        bracket = ((la - lc) / lc).real  # with z1 = z2 = 0
        z2 = np.minimum(bracket / (la.imag**2), 0.0) * 0  # start from zero
        res = star_even_update(pencil, xc, lc, la, z1=np.zeros(2), z2=z2)
        kh = res.factors[2]
        if np.all(kh.real >= 0):
            assert herm_eigs(res.delta_k)[0] >= -1e-10 * max(
                fnorm(res.delta_k), 1.0
            )


class TestTOddReal:
    def test_zero_case(self):
        pencil, change, fixed = plant_t_odd_real(22, n=6, pairs=2)
        targets = [lam for lam, _ in change]
        res = t_odd_real_update(pencil, change, targets, [0.0, 0.0], [0.0, 0.0])
        assert fnorm(res.delta_m) <= 1e-12
        assert fnorm(res.delta_k) <= 1e-12

    def test_realified_outputs_real(self):
        pencil, change, fixed = plant_t_odd_real(23, n=6, pairs=1)
        lam = change[0][0]
        res = t_odd_real_update(
            pencil, change, [1j * (lam.imag * 1.2)], [0.4], [-0.3]
        )
        assert np.abs(res.delta_m.imag).max() == 0.0
        assert np.abs(res.delta_k.imag).max() == 0.0

    def test_plant_and_check(self):
        rng = np.random.default_rng(24)
        for seed in range(5):
            pencil, change, fixed = plant_t_odd_real(seed + 80, n=6, pairs=2)
            targets = [
                1j * (lam.imag * (1 + 0.2 * rng.uniform())) for lam, _ in change
            ]
            res = t_odd_real_update(
                pencil, change, targets, rng.standard_normal(2), rng.standard_normal(2)
            )
            m1, k1 = pencil.m + res.delta_m, pencil.k + res.delta_k
            assert T_ODD in classify_structure(m1, k1)
            assert spillover_residual(pencil, res.delta_m, res.delta_k, fixed) <= 1e-10

    def test_block_core_equation(self):
        pencil, change, fixed = plant_t_odd_real(25, n=6, pairs=2)
        rng = np.random.default_rng(25)
        targets = [1j * (lam.imag + rng.standard_normal()) for lam, _ in change]
        res = t_odd_real_update(
            pencil, change, targets, rng.standard_normal(2), rng.standard_normal(2)
        )
        mh, kh = res.factors[1], res.factors[2]
        lam_c, lam_a = res.provenance["lam_c"], res.provenance["lam_a"]
        resid = fnorm(mh @ lam_a + kh - (lam_c - lam_a))
        assert resid <= 1e-12 * (1 + fnorm(lam_c) + fnorm(mh) * fnorm(lam_a))


class TestTEvenReal:
    def test_zero_case(self):
        pencil, change, fixed = plant_t_even_real(26, n=6, pairs=1)
        targets = [lam for lam, _ in change]
        res = t_even_real_update(pencil, change, targets, [0.0], [0.0])
        assert fnorm(res.delta_m) <= 1e-12
        assert fnorm(res.delta_k) <= 1e-12

    def test_plant_and_check(self):
        rng = np.random.default_rng(27)
        for seed in range(5):
            pencil, change, fixed = plant_t_even_real(seed + 90, n=6, pairs=1)
            targets = [
                1j * (lam.imag * (1 + 0.2 * rng.uniform())) for lam, _ in change
            ]
            res = t_even_real_update(
                pencil, change, targets, rng.standard_normal(1), rng.standard_normal(1)
            )
            m1, k1 = pencil.m + res.delta_m, pencil.k + res.delta_k
            assert T_EVEN in classify_structure(m1, k1)
            assert spillover_residual(pencil, res.delta_m, res.delta_k, fixed) <= 1e-10

    def test_block_core_equation(self):
        # G = -Lc^{-1} in block form; the core solves the small equation
        pencil, change, fixed = plant_t_even_real(28, n=6, pairs=1)
        rng = np.random.default_rng(28)
        targets = [1j * (lam.imag * 1.5) for lam, _ in change]
        res = t_even_real_update(
            pencil, change, targets, rng.standard_normal(1), rng.standard_normal(1)
        )
        mh, kh = res.factors[1], res.factors[2]
        lam_c, lam_a = res.provenance["lam_c"], res.provenance["lam_a"]
        g = -np.linalg.inv(lam_c)
        resid = fnorm(mh @ lam_a + kh - g @ (lam_c - lam_a))
        assert resid <= 1e-12 * (1 + fnorm(g) * fnorm(lam_c) + fnorm(mh) * fnorm(lam_a))


def _rounding_level(res):
    """The kernel's core residual ||Mh La + Kh - G (Lc - La)|| is at rounding level."""
    prov = res.provenance
    g, mh, kh = prov["g"], res.factors[1], res.factors[2]
    lam_c, lam_a = (v if np.ndim(v) == 2 else np.diag(v) for v in (prov["lam_c"], prov["lam_a"]))
    scale = 1.0 + fnorm(g) * fnorm(lam_c - lam_a) + fnorm(mh) * fnorm(lam_a) + fnorm(kh)
    return prov["core_residual"] <= 1e-13 * scale


class TestThroughStructuredKernel:
    """Every class update is ``structured_update`` with a structured core."""

    @pytest.mark.parametrize(
        "update, plant, z1_axis, z2_axis, mhat",
        [
            (hermitian_update, plant_hermitian_definite, 1.0, 1.0, [0.2, -0.1]),
            (star_odd_update, plant_star_odd, 1.0, 1j, [0.2, -0.1]),
            (star_even_update, plant_star_even, 1j, 1.0, [0.2j, -0.1j]),
        ],
        ids=["hermitian", "star-odd", "star-even"],
    )
    def test_definite_core_structured(self, update, plant, z1_axis, z2_axis, mhat):
        pencil, xc, lc, xf, lf = plant(31, n=8)
        la = 1.2 * lc
        for kwargs in ({"z1": z1_axis * np.array([0.3, -0.2]),
                        "z2": z2_axis * np.array([0.1, 0.4])}, {"mhat": mhat}):
            res = update(pencil, xc, lc, la, **kwargs)
            # the kernel takes its adjoint from the class, not from the pencil's tag
            untagged = update(StructuredPencil(pencil.m, pencil.k), xc, lc, la, **kwargs)
            assert np.array_equal(untagged.delta_m, res.delta_m)
            prov = res.provenance
            assert prov["core_structured"] is True and prov["criteria_agree"] is True
            assert _rounding_level(res)
            m1, k1 = pencil.m + res.delta_m, pencil.k + res.delta_k
            lf_mat = np.diag(lf)
            assert fnorm(m1 @ xf @ lf_mat + k1 @ xf) <= 1e-10 * (
                fnorm(m1) * (1 + fnorm(lf_mat)) + fnorm(k1)
            )

    @pytest.mark.parametrize(
        "update, plant",
        [(t_odd_real_update, plant_t_odd_real), (t_even_real_update, plant_t_even_real)],
        ids=["t-odd", "t-even"],
    )
    def test_real_pair_core_structured(self, update, plant):
        pencil, change, fixed = plant(32, n=6, pairs=2)
        targets = [1j * lam.imag * 1.3 for lam, _ in change]
        res = update(pencil, change, targets, [0.4, -0.3], [0.2, 0.5])
        assert res.provenance["core_structured"] is True
        assert _rounding_level(res)
        assert spillover_residual(pencil, res.delta_m, res.delta_k, fixed) <= 1e-10

    def test_star_even_singular_m(self):
        # U = M X_c G^{-1} with G = -Lc^{-1}: a singular M leaves G nonsingular
        rng = np.random.default_rng(15)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        m = q.conj().T @ np.diag([1j, 0.0, -2j, 0.5j]) @ q
        b = rng.standard_normal((4, 4))
        pencil = StructuredPencil(m, b @ b.T + 4 * np.eye(4), STAR_EVEN)
        finite = [e for e in definite_eig(pencil) if e.finite]
        assert len(finite) == 3
        xc = np.hstack([e.vector.reshape(-1, 1) for e in finite[:2]])
        lc = np.array([e.value for e in finite[:2]])
        la = 1.3 * lc
        res = star_even_update(pencil, xc, lc, la, z1=[0.2j, 0.1j], z2=[0.3, -0.1])
        m1, k1 = pencil.m + res.delta_m, pencil.k + res.delta_k
        assert STAR_EVEN in classify_structure(m1, k1)
        xn = res.provenance["xc_normalized"]
        scale = fnorm(m1) * fnorm(np.diag(la)) + fnorm(k1)
        assert fnorm(m1 @ xn @ np.diag(la) + k1 @ xn) <= 1e-12 * scale
        xf = finite[2].vector.reshape(-1, 1)
        assert fnorm(m1 @ xf * finite[2].value + k1 @ xf) <= 1e-12 * scale


class TestQuadraticLift:
    def test_hermitian_lift_values(self):
        spec = QuadraticSpec("hermitian", (57.4206j,), (57.4247j,))
        lam_c, lam_a, tag = lift_quadratic(spec)
        assert tag is HERMITIAN
        assert lam_c[0].real == pytest.approx(-3297.125, rel=1e-4)
        assert abs(lam_c[0].imag) <= 1e-9 * abs(lam_c[0])

    def test_star_odd_lift_values(self):
        lam = 1.30078 * (1 + 1j)
        spec = QuadraticSpec("star-odd", (lam,), (lam,))
        lam_c, _, tag = lift_quadratic(spec)
        assert tag is STAR_ODD
        assert lam_c[0].imag == pytest.approx(3.3841, rel=1e-4)
        assert abs(lam_c[0].real) <= 1e-12

    def test_exact_membership(self):
        a = 2.7
        lam = np.sqrt(a / 2) * (1 + 1j)
        spec = QuadraticSpec("star-even", (lam,), (lam,))
        lam_c, _, _ = lift_quadratic(spec)
        assert lam_c[0] == pytest.approx(a * 1j)

    def test_rejects_outside_class(self):
        with pytest.raises(EigenvalueOutsideClass):
            lift_quadratic(QuadraticSpec("hermitian", (1 + 1j,), (1j,)))
        with pytest.raises(EigenvalueOutsideClass):
            lift_quadratic(QuadraticSpec("star-odd", (1.5 + 0.2j,), (1j,)))
        with pytest.raises(EigenvalueOutsideClass):
            lift_quadratic(QuadraticSpec("star-even", (0.0,), (1j,)))


class TestZeroMhatRecovery:
    def test_reference_data_closed_form(self):
        from nospillover.cases import CASES
        from nospillover.special import solve_quadratic

        case = CASES["herm-6.1"]
        spec = QuadraticSpec("hermitian", case.lam_change, case.lam_target)
        res, info = solve_quadratic(case.m, case.k, spec, mhat=np.zeros(2))
        assert fnorm(res.delta_m) == 0.0
        xn = res.provenance["xc_normalized"]
        problem = info["problem"]
        lam_c, lam_a = np.diagonal(problem.change.lam), np.diagonal(problem.target_lam)
        direct = case.m @ xn @ np.diag(lam_c - lam_a) @ xn.conj().T @ case.m
        assert fnorm(res.delta_k - direct) <= 1e-13 * fnorm(direct)
        # Psi form: Psi = Lc_quad^2 - La_quad^2 with the resolved quadratic
        # eigenvalues (lam_quad = i*sqrt(-mu) for the negative lifted values)
        lam_c_quad = 1j * np.sqrt(-lam_c.real)
        lam_a_quad = np.array(case.lam_target)
        psi = np.diag(lam_c_quad**2 - lam_a_quad**2)
        via_psi = case.m @ xn @ psi @ xn.conj().T @ case.m
        assert fnorm(res.delta_k - via_psi) <= 1e-12 * fnorm(via_psi)


DEFINITE_PLANTS = {
    "hermitian": plant_hermitian_definite,
    "star-odd": plant_star_odd,
    "star-even": plant_star_even,
}


class TestDefiniteEig:
    @pytest.mark.parametrize("n", [8, 60])
    @pytest.mark.parametrize("klass", sorted(DEFINITE_PLANTS))
    def test_agrees_with_qz(self, klass, n):
        pencil = DEFINITE_PLANTS[klass](3, n=n)[0]
        eigs = definite_eig(pencil)
        assert len(eigs) == n and all(e.finite for e in eigs)
        dist, unmatched = match_multisets(
            finite_eigenvalues(eigs), finite_eigenvalues(eig_pencil(pencil.m, pencil.k))
        )
        assert unmatched == 0 and dist <= EIG_MATCH_TOL
        for e in eigs:
            x = e.vector
            res = np.linalg.norm(pencil.m @ x * e.value + pencil.k @ x)
            scale = abs(e.value) * fnorm(pencil.m) + fnorm(pencil.k)
            assert res <= TAU_DEFL * scale
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14)
            piv = x[np.argmax(np.abs(x))]
            assert abs(piv.imag) <= 1e-15 * piv.real
            # the class's eigenvalues lie exactly on its axis
            assert (e.value.imag if klass == "hermitian" else e.value.real) == 0.0

    @pytest.mark.parametrize("cond", [10.0, 1e8], ids=["cond-1e1", "cond-1e8"])
    @pytest.mark.parametrize(
        "tag", [HERMITIAN, STAR_ODD, STAR_EVEN], ids=["hermitian", "star-odd", "star-even"]
    )
    def test_agrees_with_scipy_eigh(self, tag, cond):
        """Values and vectors as scipy.linalg.eigh gives them for the pencil's
        Hermitian-definite pair (A, B), B positive definite with condition
        number ``cond``.

        Both solvers are backward stable for the reduced problem, so w moves
        by O(eps ||A|| ||B^-1||) and a unit vector turns by that over the gap
        to the nearest other w (measured up to phase); the bounds leave 1e3
        of headroom over what was measured.
        """
        import scipy.linalg

        rng = np.random.default_rng(21)
        n = 40
        q, _ = np.linalg.qr(crandn(rng, n, n))
        b = q @ np.diag(np.geomspace(1.0, cond, n)) @ q.conj().T
        b = (b + b.conj().T) / 2
        h = crandn(rng, n, n)
        a = h + h.conj().T
        # the pencil lambda*M + K whose definite pair is (a, b)
        m, k = {HERMITIAN: (b, a), STAR_ODD: (b, 1j * a), STAR_EVEN: (-1j * a, b)}[tag]
        eigs = definite_eig(StructuredPencil(m, k, tag))
        w_ref, v_ref = scipy.linalg.eigh(a, b)
        lam = np.array([e.value for e in eigs])
        # lambda = -w (hermitian), -iw (star-odd), -i/w (star-even)
        w = {HERMITIAN: -lam, STAR_ODD: 1j * lam, STAR_EVEN: -1j / lam}[tag]
        scale = np.linalg.norm(a, 2) * np.linalg.norm(np.linalg.inv(b), 2)
        assert np.abs(w - w_ref).max() <= 1e-12 * scale
        ref = unit_eigenpairs(w_ref, v_ref.astype(complex))
        for j, (e, r) in enumerate(zip(eigs, ref)):
            gap = np.abs(np.delete(w_ref, j) - w_ref[j]).min()
            phase = np.vdot(r.vector, e.vector)
            turn = np.linalg.norm(e.vector - r.vector * phase / abs(phase))
            assert turn <= 1e-12 * scale / gap

    def test_quadratic_path_runs_no_qz(self, monkeypatch):
        import nospillover.linalg

        def no_qz(*args):
            raise AssertionError("eig_pencil called for a definite pencil")

        monkeypatch.setattr(nospillover.linalg, "eig_pencil", no_qz)
        for klass, plant in DEFINITE_PLANTS.items():
            pencil, _, lam_c, _, _ = plant(4, n=8)
            change, fixed = select_eigendata(pencil, lam_c)
            assert len(change) == 2 and len(fixed) == 6

    def test_real_symmetric_input_gives_real_update(self):
        rng = np.random.default_rng(12)
        n = 8
        b = rng.standard_normal((n, n))
        c = rng.standard_normal((n, n))
        pencil = StructuredPencil(b @ b.T + n * np.eye(n), c + c.T, HERMITIAN)
        eigs = definite_eig(pencil)
        assert all(np.abs(e.vector.imag).max() == 0.0 for e in eigs)
        change, _ = select_eigendata(pencil, [eigs[0].value, eigs[3].value])
        xc = np.hstack([e.vector.reshape(-1, 1) for e in change])
        lc = np.array([e.value for e in change])
        res = hermitian_update(pencil, xc, lc, 1.1 * lc, z1=[0.3, 0.1], z2=[0.0, 0.2])
        assert np.abs(res.delta_m.imag).max() == 0.0
        assert np.abs(res.delta_k.imag).max() == 0.0

    def test_star_even_singular_m_tags_infinite(self):
        rng = np.random.default_rng(14)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        m = q.conj().T @ np.diag([1j, 0.0, -2j]) @ q
        b = rng.standard_normal((3, 3))
        pencil = StructuredPencil(m, b @ b.T + 3 * np.eye(3), STAR_EVEN)
        assert sum(not e.finite for e in eig_pencil(pencil.m, pencil.k)) == 1
        assert sum(not e.finite for e in definite_eig(pencil)) == 1

    @pytest.mark.parametrize(
        "tag, m, k",
        [
            (HERMITIAN, np.diag([1.0, -1.0, 2.0]), np.eye(3)),
            (STAR_ODD, np.diag([1.0, -1.0, 2.0]), 1j * np.eye(3)),
            (STAR_EVEN, 1j * np.eye(3), np.diag([1.0, -1.0, 2.0])),
        ],
        ids=["hermitian", "star-odd", "star-even"],
    )
    def test_indefinite_raises_not_positive_definite(self, tag, m, k):
        with pytest.raises(NotPositiveDefinite):
            definite_eig(StructuredPencil(m, k, tag))


def _random_unitary(rng, n, real):
    """A random orthogonal (real) or unitary Q."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) if real else crandn(rng, n, n))
    return q


def _eigvalsh_accepts(w):
    evals = herm_eigs(w)
    return bool(evals[0] > TAU_NUM * max(evals[-1], 1e-300))


class TestRequirePositiveDefinite:
    # lambda_min / lambda_max from 1e-8 down to 1e-15, then negative; the
    # points within a factor 2 of TAU_NUM are skipped, since there the
    # eigvalsh rule's own rounding, not the definiteness of W, decides
    RATIOS = [
        r for r in np.logspace(-8, -15, 15)
        if not TAU_NUM / 2 <= r <= 2 * TAU_NUM
    ] + [-1e-12, -1e-6, -0.5]

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [8, 37, 120, 300])
    def test_same_decision_as_the_eigvalsh_rule(self, n, real):
        rng = np.random.default_rng([n, int(real), 15])
        q = _random_unitary(rng, n, real)
        for ratio in self.RATIOS:
            d = 3.0 * np.concatenate([[ratio, 1.0], rng.uniform(abs(ratio), 1.0, n - 2)])
            w = (q * d) @ q.conj().T
            w = (w + w.conj().T) / 2
            if _eigvalsh_accepts(w):
                _require_positive_definite(w, "W")
            else:
                with pytest.raises(NotPositiveDefinite, match="min eigenvalue"):
                    _require_positive_definite(w, "W")

    def test_well_conditioned_needs_no_eigenvalues(self, monkeypatch):
        rng = np.random.default_rng(16)
        q = _random_unitary(rng, 300, False)
        w = (q * rng.uniform(1e-6, 1.0, 300)) @ q.conj().T

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh ran on a well-conditioned W")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        _require_positive_definite(w, "W")

    def test_not_hermitian_raises(self):
        w = np.eye(5) + np.triu(np.ones((5, 5)), 1)
        with pytest.raises(NotHermitian):
            _require_positive_definite(w, "W")


def test_positive_definite_lower_triangle_does_not_decide():
    # Cholesky reads only W's lower triangle. Here that triangle is the
    # positive definite P (lambda_min 5e-11), while W stays within TAU_STRUCT
    # of Hermitian and its Hermitian part H = P - D has a negative eigenvalue:
    # the shift by ||W - W^*||_F must make the Cholesky fail, so eigvalsh of H
    # decides and rejects W.
    rng = np.random.default_rng(17)
    n = 50
    q = _random_unitary(rng, n, True)
    p = (q * np.concatenate([[5e-11], rng.uniform(0.1, 1.0, n - 1)])) @ q.T
    p = (p + p.T) / 2
    v = q[:, 0]
    d = 1e-10 * (np.outer(v, v) - np.diag(v * v))
    w = np.tril(p) + np.triu(p - 2 * d, 1)
    assert np.linalg.eigvalsh((w + w.T) / 2)[0] < 0
    np.linalg.cholesky(w - 2 * TAU_NUM * fnorm(w) * np.eye(n))  # P alone passes
    with pytest.raises(NotPositiveDefinite, match="min eigenvalue"):
        _require_positive_definite(w, "W")
