"""Tests for structured pencils and deflating-pair algebra."""

import numpy as np
import pytest

from nospillover.errors import (
    IsotropicVector,
    MissingStar,
    NotPositiveDefinite,
    RealEigenvalue,
    SingularG1,
    SingularM,
)
from nospillover.linalg import eig_pencil, finite_eigenvalues, fnorm, match_multisets
from nospillover.pencil import (
    ALL_TAGS,
    HERMITIAN,
    STAR_EVEN,
    STAR_ODD,
    SYMMETRIC,
    T_EVEN,
    DeflatingPair,
    StructuredPencil,
    classify_structure,
    complete_deflating_pair,
    deflation_residual,
    gramians,
    normalize_columns,
    rayleigh_eigenvalue,
    realify_eigenpair,
    star,
    symmetry_partner,
)
from nospillover.randomgen import plant_problem, random_structured_pencil


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


class TestDeflationResidual:
    def test_eigenpair_zero_residual(self):
        pencil = StructuredPencil(np.eye(2), -np.diag([3.0, 5.0]), SYMMETRIC)
        pair = DeflatingPair(np.array([[1.0], [0.0]]), np.array([[3.0]]))
        report = deflation_residual(pencil, pair)
        assert report.absolute <= 1e-14
        assert report.passed

    def test_planted_pair_passes(self):
        rng = np.random.default_rng(9)
        n, p = 6, 2
        m = crandn(rng, n, n)
        x, _ = np.linalg.qr(crandn(rng, n, p))
        lam = crandn(rng, p, p)
        # complete K so that (X, Lam) deflates: K = -M X Lam X^+
        k = -m @ x @ lam @ np.linalg.pinv(x)
        pencil = StructuredPencil(m, k, None)
        report = deflation_residual(pencil, DeflatingPair(x, lam))
        assert report.passed

    def test_printed_fixed_pair_close(self):
        from nospillover.cases import CASES

        case = CASES["herm-6.1"]
        pencil = StructuredPencil(case.m, case.k, HERMITIAN)
        pair = DeflatingPair(case.printed_xf, np.diag(case.printed_lam_f))
        report = deflation_residual(pencil, pair, tol=1e-5)
        assert report.relative <= 1e-5  # printed at ~6 digits


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
        partner = symmetry_partner(lam, planted.tag)
        assert abs(lam[0] - partner[0]) > 1e-6
        g, f = gramians(planted.pencil, x, x)
        assert fnorm(g) <= 1e-9 * fnorm(planted.pencil.m)
        assert fnorm(f) <= 1e-9 * fnorm(planted.pencil.k)


class TestRayleigh:
    def test_diagonal(self):
        pencil = StructuredPencil(np.eye(2), -np.diag([3.0, 5.0]), HERMITIAN)
        val = rayleigh_eigenvalue(pencil, np.array([[1.0], [0.0]]))
        assert val == pytest.approx(3.0)

    def test_definite_pencil_negative(self):
        rng = np.random.default_rng(2)
        b, c = crandn(rng, 4, 4), crandn(rng, 4, 4)
        m = b @ b.conj().T + np.eye(4)
        k = c @ c.conj().T + np.eye(4)
        pencil = StructuredPencil(m, k, HERMITIAN)
        for _ in range(10):
            x = crandn(rng, 4, 1)
            assert rayleigh_eigenvalue(pencil, x).real < 0

    def test_t_even_isotropic(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4))
        m = a - a.T  # T-even M is skew; x^T M x = 0 for every x
        b = rng.standard_normal((4, 4))
        k = b + b.T
        pencil = StructuredPencil(m, k, T_EVEN)
        with pytest.raises(IsotropicVector):
            rayleigh_eigenvalue(pencil, rng.standard_normal((4, 1)))


class TestRealify:
    def test_canonical_example(self):
        pair = realify_eigenpair(1j, np.array([[1.0], [1j]]))
        np.testing.assert_allclose(pair.x.real, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(
            pair.lam.real, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-15
        )

    def test_block_similar_to_conjugate_pair(self):
        lam = 0.7 - 2.1j
        block = realify_eigenpair(lam, np.array([[1.0], [1j]])).lam
        vals = np.linalg.eigvals(block)
        dist, unmatched = match_multisets(vals, [lam, np.conj(lam)])
        assert unmatched == 0 and dist <= 1e-12

    def test_real_eigenvalue_rejected(self):
        with pytest.raises(RealEigenvalue):
            realify_eigenpair(2.0, np.array([[1.0], [0.0]]))

    def test_t_odd_realified_gramian(self):
        # conjugate eigenpair of a real T-odd pencil: scaled realification
        # gives an M-orthonormal real 2-column block
        rng = np.random.default_rng(21)
        b = rng.standard_normal((6, 6))
        m = b @ b.T + 6 * np.eye(6)
        c = rng.standard_normal((6, 6))
        k = c - c.T
        eigs = [e for e in eig_pencil(m, k) if e.finite and e.value.imag > 1e-8]
        lam, x = eigs[0].value, eigs[0].vector.reshape(-1, 1)
        s = complex((x.conj().T @ m @ x)[0, 0]).real
        x = x * np.sqrt(2.0 / s)
        pair = realify_eigenpair(lam, x)
        gram = pair.x.T @ m @ pair.x
        np.testing.assert_allclose(gram.real, np.eye(2), atol=1e-10)


class TestCompletion:
    def test_diagonal_case(self):
        n = 4
        d = np.diag([1.0, 2.0, 3.0, 4.0])
        pencil = StructuredPencil(np.eye(n), -d, HERMITIAN)
        pair = DeflatingPair(np.eye(n)[:, :1], np.array([[1.0]]))
        out = complete_deflating_pair(pencil, pair, np.eye(n)[:, 1:])
        np.testing.assert_allclose(out.x.real, np.eye(n)[:, 1:], atol=1e-14)
        np.testing.assert_allclose(out.lam.real, np.diag([2.0, 3.0, 4.0]), atol=1e-12)

    def test_random_hermitian_completion(self):
        rng = np.random.default_rng(6)
        n = 6
        b = crandn(rng, n, n)
        m = b @ b.conj().T + n * np.eye(n)
        h = crandn(rng, n, n)
        k = h + h.conj().T
        pencil = StructuredPencil(m, k, HERMITIAN)
        eigs = eig_pencil(m, k)
        x1 = np.hstack([eigs[0].vector.reshape(-1, 1), eigs[1].vector.reshape(-1, 1)])
        lam1 = np.diag([eigs[0].value, eigs[1].value])
        pair = DeflatingPair(x1, lam1)
        ext = crandn(rng, n, n - 2)
        out = complete_deflating_pair(pencil, pair, ext)
        assert deflation_residual(pencil, out).passed
        # block-diagonal Gramian: [X1 X2]^* M [X1 X2] = diag(G1, G2)
        big = np.hstack([x1, out.x])
        gram = big.conj().T @ m @ big
        off = gram[:2, 2:]
        assert fnorm(off) <= 1e-10 * fnorm(gram)
        svals = np.linalg.svd(big, compute_uv=False)
        assert svals[-1] / svals[0] > 1e-12

    def test_singular_g1(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 4))
        m = a - a.T  # every vector is M-isotropic
        b = rng.standard_normal((4, 4))
        pencil = StructuredPencil(m, b + b.T, T_EVEN)
        eigs = eig_pencil(pencil.m, pencil.k)
        x1 = eigs[0].vector.reshape(-1, 1)
        pair = DeflatingPair(x1, np.array([[eigs[0].value]]))
        with pytest.raises(SingularG1):
            complete_deflating_pair(pencil, pair, crandn(rng, 4, 3))

    def test_singular_m(self):
        pencil = StructuredPencil(np.diag([1.0, 0.0]), np.eye(2), HERMITIAN)
        pair = DeflatingPair(np.eye(2)[:, :1], np.array([[-1.0]]))
        with pytest.raises(SingularM):
            complete_deflating_pair(pencil, pair, np.eye(2)[:, 1:])


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
