"""Tests for structured pencils and deflating-pair algebra."""

import numpy as np
import pytest
from conftest import random_structured_pencil

from nospillover.errors import MissingStar, NotPositiveDefinite
from nospillover.linalg import eig_pencil, finite_eigenvalues, fnorm, match_multisets
from nospillover.pencil import (
    ALL_TAGS,
    HERMITIAN,
    STAR_EVEN,
    STAR_ODD,
    SYMMETRIC,
    DeflatingPair,
    StructuredPencil,
    classify_structure,
    gramians,
    normalize_columns,
    star,
    symmetry_partner,
)
from nospillover.randomgen import plant_problem
from nospillover.unstructured import UpdateResult
from nospillover.verify import certify_spillover


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestClassify:
    def test_identity_pair(self):
        tags = classify_structure(np.eye(2), np.eye(2))
        assert set(tags) == {SYMMETRIC, HERMITIAN}

    def test_star_odd_membership(self):
        rng = np.random.default_rng(3)
        b = crandn(rng, 4, 4)
        m = b @ b.conj().T + 4 * np.eye(4)
        h = crandn(rng, 4, 4)
        k = 1j * (h + h.conj().T)
        assert STAR_ODD in classify_structure(m, k)

    def test_reference_shh_is_star_even_after_j(self):
        from nospillover.cases import CASES
        from nospillover.shh import canonical_j

        case = CASES["shh-7"]
        j = canonical_j(4)
        assert STAR_EVEN in classify_structure(j @ case.m, j @ case.k)

    def test_every_generator_matches_its_tag(self):
        rng = np.random.default_rng(5)
        for tag in ALL_TAGS:
            pencil = random_structured_pencil(rng, 5, tag)
            assert tag in classify_structure(pencil.m, pencil.k)


def pair_residual(pencil, pair):
    """The certificate's residual of a deflating pair under a zero update."""
    zero = UpdateResult(dense=(np.zeros_like(pencil.m), np.zeros_like(pencil.k)))
    return certify_spillover(pencil, zero, pair)


class TestDeflationResidual:
    def test_eigenpair_zero_residual(self):
        pencil = StructuredPencil(np.eye(2), -np.diag([3.0, 5.0]), SYMMETRIC)
        pair = DeflatingPair(np.array([[1.0], [0.0]]), np.array([[3.0]]))
        cert = pair_residual(pencil, pair)
        assert cert.spillover_residual <= 1e-14
        assert cert.passed

    def test_planted_pair_passes(self):
        rng = np.random.default_rng(9)
        n, p = 6, 2
        m = crandn(rng, n, n)
        x, _ = np.linalg.qr(crandn(rng, n, p))
        lam = crandn(rng, p, p)
        # complete K so that (X, Lam) deflates: K = -M X Lam X^+
        k = -m @ x @ lam @ np.linalg.pinv(x)
        pencil = StructuredPencil(m, k, None)
        assert pair_residual(pencil, DeflatingPair(x, lam)).passed

    def test_printed_fixed_pair_close(self):
        from nospillover.cases import CASES

        case = CASES["herm-6.1"]
        pencil = StructuredPencil(case.m, case.k, HERMITIAN)
        pair = DeflatingPair(case.printed_xf, np.diag(case.printed_lam_f))
        cert = pair_residual(pencil, pair)
        assert cert.spillover_relative <= 1e-5  # printed at ~6 digits


class TestGramians:
    def test_identity_columns(self):
        rng = np.random.default_rng(1)
        m, k = crandn(rng, 3, 3), crandn(rng, 3, 3)
        m = m + m.conj().T
        k = k + k.conj().T
        pencil = StructuredPencil(m, k, HERMITIAN)
        g, f = gramians(pencil, np.eye(3), np.eye(3))
        np.testing.assert_allclose(g, m, atol=1e-14)
        np.testing.assert_allclose(f, k, atol=1e-14)

    def test_unstructured_requires_star(self):
        pencil = StructuredPencil(np.eye(2), np.eye(2), None)
        with pytest.raises(MissingStar):
            gramians(pencil, np.eye(2), np.eye(2))
        g, _ = gramians(pencil, np.eye(2), np.eye(2), adjoint="T")
        np.testing.assert_allclose(g, np.eye(2))

    def test_disjoint_spectra_orthogonality(self):
        # cross Gramians vanish between pairs with disjoint partner spectra
        for tag in ALL_TAGS:
            planted = plant_problem(17, 8, 2, tag.name)
            g12, f12 = gramians(planted.pencil, planted.change.x, planted.fixed.x)
            scale = fnorm(planted.pencil.m)
            assert fnorm(g12) <= 1e-9 * scale
            assert fnorm(f12) <= 1e-9 * (scale + fnorm(planted.pencil.k))

    def test_cross_gramian_identity(self):
        # G12 Lam2 = -F12 = eps1*eps2*Lam1^star G12 for deflating pairs
        for tag in ALL_TAGS:
            planted = plant_problem(29, 6, 2, tag.name)
            pencil = planted.pencil
            x1, l1 = planted.change.x, planted.change.lam
            x2, l2 = planted.fixed.x, planted.fixed.lam
            g12, f12 = gramians(pencil, x1, x2)
            scale = fnorm(pencil.m) * fnorm(x1) * fnorm(x2) * (1 + fnorm(l2))
            assert fnorm(g12 @ l2 + f12) <= 1e-10 * scale
            lhs = tag.eps1 * tag.eps2 * star(l1, tag.star) @ g12
            assert fnorm(g12 @ l2 - lhs) <= 1e-10 * scale
            # same-pair case: F11 = -G11 Lam1, so the restricted pencil is
            # lam*G11 - G11 Lam1
            g11, f11 = gramians(pencil, x1, x1)
            assert fnorm(g11 @ l1 + f11) <= 1e-10 * scale

    def test_self_pair_isotropic(self):
        # a pair whose spectrum avoids its own partner spectrum satisfies
        # X*MX = X*KX = 0; one column of a t-odd (lam, -lam) orbit does
        planted = plant_problem(41, 8, 2, "t-odd")
        x = planted.change.x[:, :1]
        lam = np.diag(planted.change.lam)[:1]
        partner = symmetry_partner(lam, planted.pencil.tag)
        assert abs(lam[0] - partner[0]) > 1e-6
        g, f = gramians(planted.pencil, x, x)
        assert fnorm(g) <= 1e-9 * fnorm(planted.pencil.m)
        assert fnorm(f) <= 1e-9 * fnorm(planted.pencil.k)


class TestNormalize:
    def test_orthonormal_unchanged(self):
        rng = np.random.default_rng(14)
        q, _ = np.linalg.qr(crandn(rng, 5, 3))
        pencil = StructuredPencil(np.eye(5), np.eye(5), HERMITIAN)
        out = normalize_columns(pencil, q, "M")
        np.testing.assert_allclose(
            np.abs(out.conj().T @ out), np.eye(3), atol=1e-12
        )
        # same columns up to phase
        overlap = np.abs(np.diag(out.conj().T @ q))
        np.testing.assert_allclose(overlap, np.ones(3), atol=1e-12)

    def test_reference_change_vectors(self):
        from nospillover.cases import CASES

        case = CASES["herm-6.1"]
        pencil = StructuredPencil(case.m, case.k, HERMITIAN)
        out = normalize_columns(pencil, case.printed_xc, "M")
        gram = out.conj().T @ case.m @ out
        np.testing.assert_allclose(gram.real, np.eye(2), atol=1e-10)

    def test_repeated_eigenvalue_gram_schmidt(self):
        # 2-dim eigenspace: output Gramian is still the identity
        rng = np.random.default_rng(15)
        m = np.eye(4)
        k = -np.diag([2.0, 2.0, 3.0, 5.0])
        pencil = StructuredPencil(m, k, HERMITIAN)
        mix = rng.standard_normal((2, 2))
        x = np.zeros((4, 2))
        x[:2, :] = mix  # two independent vectors in the repeated eigenspace
        out = normalize_columns(pencil, x, "M")
        np.testing.assert_allclose(
            (out.conj().T @ m @ out).real, np.eye(2), atol=1e-12
        )

    def test_indefinite_rejected(self):
        pencil = StructuredPencil(np.diag([1.0, -1.0]), np.eye(2), HERMITIAN)
        with pytest.raises(NotPositiveDefinite):
            normalize_columns(pencil, np.eye(2), "M")


class TestSpectrumClosure:
    def test_structured_spectrum_symmetry(self):
        # the whole spectrum is closed under lam -> eps1*eps2*lam^star
        rng = np.random.default_rng(19)
        for tag in ALL_TAGS:
            for _ in range(25):
                n = int(rng.integers(2, 11))
                pencil = random_structured_pencil(rng, n, tag)
                try:
                    vals = finite_eigenvalues(eig_pencil(pencil.m, pencil.k))
                except Exception:
                    continue
                if vals.size < n:
                    continue
                partner = symmetry_partner(vals, tag)
                dist, unmatched = match_multisets(vals, partner)
                assert unmatched == 0
                assert dist <= 1e-7
