"""Tests for certificates and spectrum matching."""

import numpy as np
from conftest import hungarian_max, relative_cost

from nospillover.linalg import eigvals_pencil
from nospillover.pencil import HERMITIAN, StructuredPencil
from nospillover.randomgen import plant_problem
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
            v > cert.tol_struct for v in cert.structure_residuals.values()
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

    def test_subset_mode(self):
        pencil = StructuredPencil(np.eye(3), -np.diag([1.0, 2.0, 3.0]), HERMITIAN)
        report = spectrum_match(pencil, [2.0], allow_subset=True)
        assert report.passed

    def test_subset_distance_matches_hungarian(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            spectrum = rng.integers(1, 5, n) + 0.5 * rng.integers(0, 2, n)  # repeats
            pencil = StructuredPencil(np.eye(n), -np.diag(spectrum), HERMITIAN)
            expected = rng.choice(spectrum, int(rng.integers(1, n + 1))) + rng.choice(
                [0.0, 0.25], 1
            )
            report = spectrum_match(pencil, expected, allow_subset=True)
            computed = [v for v in eigvals_pencil(pencil.m, pencil.k) if v is not None]
            assert report.unmatched == 0
            assert report.max_distance == hungarian_max(relative_cost(expected, computed))

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
