"""Tests for certificates and spectrum matching."""

import numpy as np
import pytest
from conftest import plant_hermitian_definite, plant_star_even, plant_star_odd

from nospillover.linalg import TAU_STRUCT
from nospillover.pencil import HERMITIAN, DeflatingPair, StructuredPencil
from nospillover.randomgen import plant_problem
from nospillover.special import hermitian_update, star_even_update, star_odd_update
from nospillover.structured import change_gramian, scaled_gramian_core, structured_update
from nospillover.unstructured import UpdateProblem, UpdateResult
from nospillover.verify import certify, certify_spillover, spectrum_match


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
        res = UpdateResult(
            dense=(np.zeros_like(planted.pencil.m), np.zeros_like(planted.pencil.k))
        )
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
        bad = UpdateResult(dense=(res.delta_m, bad_dk))
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
        report = spectrum_match((m1, k1), expected, tol=1e-6)
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
