"""Tests for structured pencils and deflating-pair algebra."""

import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import (
    dense_update,
    finite_eigenvalues,
    random_structured_pencil,
    realified_fixed_pair,
)

from nospillover.errors import DimensionMismatch, MissingStar, NotPositiveDefinite
from nospillover.linalg import eig_pencil, fnorm, match_multisets
from nospillover.pencil import (
    ALL_TAGS,
    HERMITIAN,
    STAR_EVEN,
    STAR_ODD,
    SYMMETRIC,
    DeflatingPair,
    StructuredPencil,
    classify_structure,
    normalize_columns,
    star,
    symmetry_partner,
)
from nospillover.randomgen import plant_problem
from nospillover.shh import SHHPencil, apply_j
from nospillover.structured import CoreSolution
from nospillover.unstructured import UpdateProblem
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
    zero = dense_update(np.zeros_like(pencil.m), np.zeros_like(pencil.k))
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


class TestDeflatingPairLambda:
    def test_diagonal_lambda_holds_no_square_array(self):
        # a fixed pair of n=512 keeps X and the n - p values of Lambda: the
        # bytes it holds beyond X are O(n), where a kept matrix is 4 MB
        rng = np.random.default_rng(21)
        n, p = 512, 4
        x = np.linalg.qr(crandn(rng, n, n))[0][:, p:]
        values = crandn(rng, n - p)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pair = DeflatingPair(x, np.diag(values))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held - pair.x.nbytes <= 64 * n
        assert pair.lam_compact.shape == (n - p,)
        assert pair.lam_compact.base is None  # not a view that keeps the matrix alive
        assert np.array_equal(pair.eigenvalues(), values)

    @pytest.mark.parametrize("kind", ["diagonal", "block"])
    def test_lam_is_the_lambda_given_bit_for_bit(self, kind):
        rng = np.random.default_rng(22)
        if kind == "diagonal":
            x, lam = np.linalg.qr(crandn(rng, 9, 6))[0], np.diag(crandn(rng, 6))
        else:
            _, x, lam = realified_fixed_pair(31)
        pair = DeflatingPair(x, lam)
        assert pair.lam_compact.ndim == (1 if kind == "diagonal" else 2)
        assert pair.lam.dtype == np.complex128 and pair.lam.shape == lam.shape
        assert pair.lam.tobytes() == lam.tobytes()

    def test_realified_blocks_keep_the_dense_product(self):
        pencil, x, lam = realified_fixed_pair(31)
        pair = DeflatingPair(x, lam)
        assert pair.lam_compact.ndim == 2
        cert = pair_residual(pencil, pair)
        m1, k1 = pencil.m, pencil.k  # a zero update leaves them bit for bit
        dense = fnorm(m1 @ pair.x @ lam + k1 @ pair.x)
        assert cert.spillover_residual == dense
        scale = (fnorm(m1) * fnorm(lam) + fnorm(k1)) * fnorm(pair.x)
        assert cert.spillover_relative == dense / scale <= 1e-13
        # a column scaling by the diagonal drops the b's and misses the pair
        assert fnorm(m1 @ pair.x * np.diagonal(lam) + k1 @ pair.x) > 1e3 * dense

    def test_values_and_their_diagonal_matrix_give_one_pair(self):
        planted = plant_problem(5, 12, 2, "hermitian")
        x, values = np.array(planted.fixed.x), np.array(planted.fixed.lam_compact)
        by_values, by_matrix = DeflatingPair(x, values), DeflatingPair(x, np.diag(values))
        assert by_values.lam_compact.shape == (10,)
        assert by_values.lam_compact.tobytes() == by_matrix.lam_compact.tobytes()
        assert by_values.lam.tobytes() == by_matrix.lam.tobytes()
        certs = [pair_residual(planted.pencil, pair) for pair in (by_values, by_matrix)]
        assert certs[0].spillover_residual == certs[1].spillover_residual
        assert certs[0].spillover_relative == certs[1].spillover_relative
        assert certs[0].summary_lines() == certs[1].summary_lines()

    @pytest.mark.parametrize("count", [9, 11])
    def test_values_of_another_length_are_refused(self, count):
        rng = np.random.default_rng(24)
        x = np.linalg.qr(crandn(rng, 12, 10))[0]
        with pytest.raises(DimensionMismatch, match=r"X has 10 columns but Lambda is \(%d,\)" % count):
            DeflatingPair(x, crandn(rng, count))

    def test_tiny_off_diagonal_entry_keeps_lambda_dense(self):
        # only exact zeros count as zero: 1e-300 off the diagonal is kept
        rng = np.random.default_rng(23)
        lam = np.diag(crandn(rng, 3))
        lam[0, 1] = 1e-300
        pair = DeflatingPair(np.linalg.qr(crandn(rng, 5, 3))[0], lam)
        assert pair.lam_compact.ndim == 2
        assert pair.lam.tobytes() == lam.tobytes()


# real data, held as complex128 or float64 alike: a symmetric and a skew
# 6 x 6 matrix, a full-rank 6 x 2 X and a 2 x 2 Lambda with no zero entry
_RNG = np.random.default_rng(41)
_A, _B = _RNG.standard_normal((2, 6, 6))
_SYM, _SKEW = _A + _A.T, _B - _B.T
_X, _LAM = _RNG.standard_normal((6, 2)), _RNG.standard_normal((2, 2))

# each array a pencil, pair, problem or core reads through ``as_matrix``:
# a value for it, and how the object is built around a given array and
# returns what it keeps
KEEPERS = {
    "StructuredPencil.m": (_SYM, lambda a: StructuredPencil(a, _SYM, SYMMETRIC).m),
    "SHHPencil.k": (apply_j(_SYM, transpose=True),
                    lambda a: SHHPencil(apply_j(_SKEW, transpose=True), a, "T").k),
    "DeflatingPair.x": (_X, lambda a: DeflatingPair(a, _LAM).x),
    "DeflatingPair.lam_compact": (_LAM, lambda a: DeflatingPair(_X, a).lam_compact),
    "UpdateProblem.target_x": (
        _X, lambda a: UpdateProblem(DeflatingPair(_X, _LAM), _LAM, target_x=a).target_x),
    "UpdateProblem.target_lam": (_LAM, lambda a: UpdateProblem(DeflatingPair(_X, _LAM), a).target_lam),
    "CoreSolution.mhat": (_LAM, lambda a: CoreSolution(a, _LAM).mhat),
}


def _given(value, layout):
    """``value`` as the array a caller passes, in ``layout``."""
    rows, cols = value.shape
    c = value.astype(np.complex128)
    if layout == "C":
        return c
    if layout == "F":
        return np.asfortranarray(c)
    if layout == "float64":
        return value.astype(np.float64)
    if layout == "matrix":
        return np.matrix(c)
    if layout == "strided":  # every other column of a wider array
        wide = np.zeros((rows, 2 * cols), dtype=np.complex128)
        wide[:, ::2] = c
        return wide[:, ::2]
    tall = np.zeros((2 * rows, cols), dtype=np.complex128)  # the top rows of a taller one
    tall[:rows] = c
    return tall[:rows]


class TestKeepOrCopy:
    """A contiguous complex128 array is read in place, read-only through the
    object that keeps it; any other input is copied."""

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("name", KEEPERS)
    def test_contiguous_complex_is_kept(self, name, layout):
        value, build = KEEPERS[name]
        given = _given(value, layout)
        before = given.tobytes()
        kept = build(given)
        assert np.shares_memory(kept, given)
        assert not kept.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 0] = 0.0
        assert given.flags.writeable and given.tobytes() == before
        # the object reads the caller's array: a later write shows through it
        given[0, 0] += 1.0
        assert kept[0, 0] == given[0, 0]

    @pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
    @pytest.mark.parametrize("layout", ["float64", "strided", "matrix", "row-slice"])
    @pytest.mark.parametrize("name", KEEPERS)
    def test_other_inputs_are_copied(self, name, layout):
        value, build = KEEPERS[name]
        given = _given(value, layout)
        buffer = weakref.ref(given if given.base is None else given.base)
        kept = build(given)
        assert type(kept) is np.ndarray and kept.dtype == np.complex128
        assert not np.shares_memory(kept, given)
        assert not kept.flags.writeable
        assert np.array_equal(kept, value)
        del given
        assert buffer() is None  # nothing kept holds the caller's buffer alive


def gramians(pencil, x1, x2):
    """(X1^star M X2, X1^star K X2), with the adjoint of the pencil's tag."""
    x1s = star(x1, pencil.star)
    return x1s @ pencil.m @ x2, x1s @ pencil.k @ x2


class TestGramians:
    def test_unstructured_pencil_has_no_star(self):
        pencil = StructuredPencil(np.eye(2), np.eye(2), None)
        with pytest.raises(MissingStar):
            gramians(pencil, np.eye(2), np.eye(2))

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
