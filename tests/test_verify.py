"""Tests for certificates and spectrum matching."""

import numpy as np
import pytest
from conftest import (
    crandn,
    dense_update,
    plant_hermitian_definite,
    plant_star_even,
    plant_star_odd,
    realified_fixed_pair,
)

from nospillover import dispatch, fileio, verify
from nospillover.errors import NonFiniteEntries
from nospillover.linalg import TAU_STRUCT, compact_lambda, fnorm
from nospillover.pencil import HERMITIAN, DeflatingPair, StructuredPencil
from nospillover.randomgen import RANDOM_CLASSES, plant_problem, plant_star_shh, plant_t_shh
from nospillover.special import hermitian_update, star_even_update, star_odd_update
from nospillover.structured import change_gramian, scaled_gramian_core, structured_update
from nospillover.unstructured import UpdateProblem, UpdateResult
from nospillover.verify import _pair_residual, certify, certify_spillover, spectrum_match


def planted_setup(seed=1):
    planted = plant_problem(seed, 6, 2, "hermitian")
    g, _ = change_gramian(planted.pencil, planted.change.x)
    core = scaled_gramian_core(g, planted.change.lam, planted.target_lam, 0.2)
    res = structured_update(
        planted.pencil,
        planted.change.x,
        planted.change.lam,
        planted.target_lam,
        core,
    )
    problem = UpdateProblem(planted.change, planted.target_lam, fixed=planted.fixed)
    return planted, res, problem


class TestCertify:
    def test_zero_update_passes(self):
        planted = plant_problem(2, 5, 2, "symmetric")
        res = dense_update(np.zeros_like(planted.pencil.m), np.zeros_like(planted.pencil.k))
        problem = UpdateProblem(
            planted.change, planted.change.lam, fixed=planted.fixed
        )
        cert = certify(planted.pencil, res, problem)
        assert cert.passed
        assert cert.target_residual <= 1e-10
        assert cert.spillover_residual <= 1e-10

    def test_full_pipeline_passes(self):
        planted, res, problem = planted_setup()
        expected = np.concatenate(
            [np.diag(problem.target_lam), np.diag(problem.fixed.lam)]
        )
        cert = certify(planted.pencil, res, problem, expected_spectrum=expected)
        assert cert.passed
        assert cert.spectrum.unmatched == 0

    def test_corrupted_delta_fails_localized(self):
        planted, res, problem = planted_setup(3)
        bad_dk = np.array(res.delta_k)
        bad_dk[0, 0] += 1e-3
        bad_dk[0, 1] += 1e-3  # keep it non-Hermitian too
        bad = dense_update(res.delta_m, bad_dk)
        cert = certify(planted.pencil, bad, problem)
        assert not cert.passed
        # diagnosis localizes the failure: residuals out, structure flagged
        assert cert.target_relative > cert.tol_defl or any(
            v > TAU_STRUCT for v in cert.structure_residuals.values()
        )

    def test_deterministic(self):
        planted, res, problem = planted_setup(4)
        c1 = certify(planted.pencil, res, problem)
        c2 = certify(planted.pencil, res, problem)
        assert c1.target_residual == c2.target_residual
        assert c1.structure_residuals == c2.structure_residuals

    def test_psd_report(self):
        planted, res, problem = planted_setup(5)
        cert = certify(planted.pencil, res, problem, psd=("m_updated",))
        assert "m_updated" in cert.definiteness

    def test_spillover_only_certificate(self):
        planted, res, problem = planted_setup(7)
        full = certify(planted.pencil, res, problem)
        only = certify_spillover(planted.pencil, res, planted.fixed)
        assert only.passed and only.target_residual is None
        assert only.spillover_relative == full.spillover_relative
        assert only.structure_residuals == full.structure_residuals
        lines = only.summary_lines()
        assert lines[0].startswith("spillover residual") and lines[-1] == "PASS"

    def test_summary_lines(self):
        planted, res, problem = planted_setup(6)
        cert = certify(planted.pencil, res, problem)
        lines = cert.summary_lines()
        assert lines[-1] in ("PASS", "FAIL")


def planted_solve(klass, seed=5, n=12, p=2):
    """(pencil, result, problem) of a class, as ``random`` plants the problem
    and ``solve`` updates it, with the hidden fixed pair in the problem."""
    if klass == "star-shh":
        planted = plant_star_shh(seed, n // 2, p // 2, p % 2)
    elif klass == "t-shh":
        planted = plant_t_shh(seed, n // 2)
    else:
        planted = plant_problem(seed, n, p, klass)
    pf = fileio.ProblemFile(
        structure=klass,
        m=planted.pencil.m,
        k=planted.pencil.k,
        change=fileio.PairBlock(x=planted.change.x, lam=planted.change.lam),
        targets=fileio.PairBlock(lam=planted.target_lam),
        fixed=fileio.PairBlock(x=planted.fixed.x, lam=planted.fixed.lam),
        parameters=planted.parameters,
    )
    result, cert = dispatch.solve_problem(pf)
    assert cert.passed
    pencil = dispatch.structure_pencil(pf.m, pf.k, klass)
    return pencil, result, UpdateProblem(planted.change, planted.target_lam, fixed=planted.fixed)


def _definite_solve(klass):
    plant, update, z = {
        "hermitian": (plant_hermitian_definite, hermitian_update, [0.3, -0.2]),
        "star-odd": (plant_star_odd, star_odd_update, [0.3, -0.2]),
        "star-even": (plant_star_even, star_even_update, [0.3j, -0.2j]),
    }[klass]
    pencil, xc, lam_c, xf, lam_f = plant(8)
    result = update(pencil, xc, lam_c, 1.1 * lam_c, z1=z)
    prov = result.provenance
    problem = UpdateProblem(
        DeflatingPair(prov["xc_normalized"], np.diag(prov["lam_c"])),
        np.diag(prov["lam_a"]),
        fixed=DeflatingPair(xf, np.diag(lam_f)),
    )
    return pencil, result, problem


def _certified_pencils(monkeypatch, run):
    """The (M1, K1) every ``_pair_residual`` call of ``run()`` receives."""
    seen, pair_residual = [], verify._pair_residual

    def spy(m1, k1, *args):
        seen.append((m1, k1))
        return pair_residual(m1, k1, *args)

    monkeypatch.setattr(verify, "_pair_residual", spy)
    run()
    return seen


class TestUpdatedPencil:
    def _assert_bit_identical(self, monkeypatch, pencil, result, problem):
        m1 = (pencil.m + result.delta_m).tobytes()
        k1 = (pencil.k + result.delta_k).tobytes()
        for run in (
            lambda: certify(pencil, result, problem),
            lambda: certify_spillover(pencil, result, problem.fixed),
        ):
            seen = _certified_pencils(monkeypatch, run)
            assert seen
            for got_m1, got_k1 in seen:
                assert got_m1.tobytes() == m1 and got_k1.tobytes() == k1

    @pytest.mark.parametrize("klass", RANDOM_CLASSES)
    def test_planted_class_m1_k1_are_m_plus_dm(self, monkeypatch, klass):
        pencil, result, problem = planted_solve(klass)
        assert result.factors is not None
        assert certify(pencil, result, problem).passed
        self._assert_bit_identical(monkeypatch, pencil, result, problem)

    @pytest.mark.parametrize("klass", ["hermitian", "star-odd", "star-even"])
    def test_definite_recipe_m1_k1_are_m_plus_dm(self, monkeypatch, klass):
        pencil, result, problem = _definite_solve(klass)
        assert result.factors is not None
        self._assert_bit_identical(monkeypatch, pencil, result, problem)

    # an Inf times a zero entry of the next factor is a NaN, with numpy's warning
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    @pytest.mark.parametrize(
        "factor, named", [("left", "dM"), ("mhat", "dM"), ("khat", "dK")]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_factor_raises(self, factor, named, value):
        pencil, result, problem = planted_solve("hermitian")
        factors = dict(zip(("left", "mhat", "khat", "right"), result.factors))
        factors[factor] = factors[factor].copy()
        factors[factor][0, 0] = value
        bad = UpdateResult(factors=tuple(factors.values()))
        with pytest.raises(NonFiniteEntries, match=named):
            certify(pencil, bad, problem)
        with pytest.raises(NonFiniteEntries, match=named):
            certify_spillover(pencil, bad, problem.fixed)

    @pytest.mark.parametrize("which, named", [(0, "dM"), (1, "dK")])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_dense_update_raises(self, which, named, value):
        pencil, result, problem = planted_solve("symmetric")
        dense = [np.array(result.delta_m), np.array(result.delta_k)]
        dense[which][1, 2] = value
        bad = dense_update(*dense)
        with pytest.raises(NonFiniteEntries, match=named):
            certify(pencil, bad, problem)
        with pytest.raises(NonFiniteEntries, match=named):
            certify_spillover(pencil, bad, problem.fixed)

    def test_psd_forms_the_named_update(self):
        pencil, result, problem = _definite_solve("hermitian")
        cert = certify(pencil, result, problem, psd=("delta_m", "k_updated"))
        assert set(cert.definiteness) == {"delta_m", "k_updated"}
        dm = result.delta_m
        expected = np.linalg.eigvalsh((dm + dm.conj().T) / 2)[0] / fnorm(dm)
        assert cert.definiteness["delta_m"] == pytest.approx(expected, abs=1e-15)


def _pair_inputs(rng, n, p):
    m1, k1, x = crandn(rng, n, n), crandn(rng, n, n), crandn(rng, n, p)
    return m1, k1, (fnorm(m1), fnorm(k1)), x


class TestPairResidual:
    @pytest.mark.parametrize("n", [64, 256])
    def test_diagonal_lambda_matches_the_dense_product(self, n):
        rng = np.random.default_rng([n, 11])
        m1, k1, norms, x = _pair_inputs(rng, n, n - 4)
        lam = np.diag(crandn(rng, n - 4))
        assert compact_lambda(lam).ndim == 1  # its values scale columns
        res, rel = _pair_residual(m1, k1, norms, x, compact_lambda(lam))
        dense = fnorm(m1 @ x @ lam + k1 @ x)
        assert abs(res - dense) <= 1e-13 * dense
        scale = (norms[0] * fnorm(lam) + norms[1]) * fnorm(x)
        assert abs(rel - dense / scale) <= 1e-13 * dense / scale

    def test_realified_block_lambda_takes_the_dense_product(self):
        # a realified conjugate pair (x, a + ib) of a real T-odd pencil is
        # ([re x, im x], [[a, b], [-b, a]]): a column scaling would drop the b's
        pencil, x, lam = realified_fixed_pair(31)
        m1, k1 = pencil.m, pencil.k
        assert compact_lambda(lam) is lam
        res, rel = _pair_residual(m1, k1, (fnorm(m1), fnorm(k1)), x, compact_lambda(lam))
        assert res == fnorm(m1 @ x @ lam + k1 @ x)
        assert rel <= 1e-13

    def test_zero_on_the_diagonal_off_diagonal_nonzero_is_dense(self):
        rng = np.random.default_rng(12)
        m1, k1, norms, x = _pair_inputs(rng, 16, 3)
        lam = crandn(rng, 3, 3)
        lam[1, 1] = 0.0
        assert compact_lambda(lam) is lam
        res, _ = _pair_residual(m1, k1, norms, x, compact_lambda(lam))
        assert res == fnorm(m1 @ x @ lam + k1 @ x)


class TestSpectrumMatch:
    def test_exact_match(self):
        pencil = StructuredPencil(np.eye(3), -np.diag([1.0, 2.0, 3.0]), HERMITIAN)
        report = spectrum_match(pencil, [1.0, 2.0, 3.0])
        assert report.passed
        assert report.max_distance <= 1e-12

    def test_order_free(self):
        pencil = StructuredPencil(np.eye(3), -np.diag([1.0, 2.0, 3.0]), HERMITIAN)
        r1 = spectrum_match(pencil, [3.0, 1.0, 2.0])
        r2 = spectrum_match(pencil, [1.0, 2.0, 3.0])
        assert r1.max_distance == r2.max_distance

    def test_mismatch_detected(self):
        pencil = StructuredPencil(np.eye(2), -np.diag([1.0, 2.0]), HERMITIAN)
        report = spectrum_match(pencil, [1.0, 5.0])
        assert not report.passed

    def test_updated_pipeline_spectrum(self):
        planted, res, problem = planted_setup(7)
        m1 = planted.pencil.m + res.delta_m
        k1 = planted.pencil.k + res.delta_k
        expected = np.concatenate(
            [np.diag(problem.target_lam), np.diag(problem.fixed.lam)]
        )
        report = spectrum_match((m1, k1), expected)
        assert report.passed


DEFINITE_PLANTS = {
    "hermitian": (plant_hermitian_definite, hermitian_update),
    "star-odd": (plant_star_odd, star_odd_update),
    "star-even": (plant_star_even, star_even_update),
}


class TestSpectrumOracle:
    """The certificate's spectrum comes from the Hermitian-definite reduction
    while the updated definite matrix B1 (M + dM, or K + dK for star-even)
    has a Cholesky factor, and from the QZ once it has none."""

    @staticmethod
    def _certified(klass, indefinite):
        plant, update = DEFINITE_PLANTS[klass]
        pencil, xc, lam_c, xf, lam_f = plant(5, n=8)
        lam_a = 1.1 * lam_c
        mhat = None
        if indefinite:
            # on W-normalized X_c, x^* B1 x = 1 + Mh (M-weighted classes) or
            # 1 + Kh with Kh = La/Lc - 1 - Mh La (star-even); make it -1
            mhat = -2.0 * np.ones(lam_c.size) if klass != "star-even" else (
                (lam_a / lam_c + 1.0) / lam_a)
        result = update(pencil, xc, lam_c, lam_a, mhat=mhat)
        m1, k1 = pencil.m + result.delta_m, pencil.k + result.delta_k
        b1 = k1 if klass == "star-even" else m1
        assert (np.linalg.eigvalsh((b1 + b1.conj().T) / 2).min() < 0) == indefinite
        problem = UpdateProblem(
            DeflatingPair(xc, np.diag(lam_c)), np.diag(lam_a),
            fixed=DeflatingPair(xf, np.diag(lam_f)),
        )
        expected = np.concatenate([lam_a, lam_f])
        return pencil, result, problem, expected, (m1, k1)

    @pytest.mark.parametrize("klass", sorted(DEFINITE_PLANTS))
    def test_definite_b1_uses_the_reduction(self, klass):
        pencil, result, problem, expected, m1k1 = self._certified(klass, False)
        cert = certify(pencil, result, problem, expected_spectrum=expected)
        assert cert.passed and cert.spectrum.oracle == "definite"
        qz = spectrum_match(m1k1, expected)
        assert qz.oracle == "qz" and cert.spectrum.unmatched == qz.unmatched == 0
        assert cert.spectrum.max_distance <= 1e-12 and qz.max_distance <= 1e-12

    @pytest.mark.parametrize("klass", sorted(DEFINITE_PLANTS))
    def test_oracle_takes_the_checked_pencil_as_it_is(self, klass, monkeypatch):
        # M1, K1 and the tag whose residuals the certificate has just
        # checked go to the oracle without another StructuredPencil check
        pencil, result, problem, expected, m1k1 = self._certified(klass, False)
        checks = []
        post_init = StructuredPencil.__post_init__
        monkeypatch.setattr(
            StructuredPencil, "__post_init__", lambda self: checks.append(1) or post_init(self)
        )
        cert = certify(pencil, result, problem, expected_spectrum=expected)
        assert not checks and cert.spectrum.oracle == "definite"
        assert cert.spectrum == spectrum_match(StructuredPencil(*m1k1, pencil.tag), expected)

    @pytest.mark.parametrize("klass", sorted(DEFINITE_PLANTS))
    def test_indefinite_b1_falls_back_to_qz(self, klass):
        pencil, result, problem, expected, m1k1 = self._certified(klass, True)
        cert = certify(pencil, result, problem, expected_spectrum=expected)
        assert cert.spectrum.oracle == "qz"
        # the same verdict and spectrum as a certificate forced onto the QZ
        forced = certify(
            StructuredPencil(pencil.m, pencil.k, None), result, problem,
            expected_spectrum=expected,
        )
        assert cert.spectrum == forced.spectrum == spectrum_match(m1k1, expected)
        assert cert.passed == forced.passed
        assert cert.passed  # the update keeps its pairs whatever B1's inertia
