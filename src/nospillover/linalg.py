"""Dense complex matrix substrate.

Thin, contract-enforcing wrappers around numpy/scipy dense routines. All
matrices are complex128 ndarrays; shapes and finiteness are validated at the
boundary, and infinite pencil eigenvalues are tagged explicitly instead of
being encoded as large floats.

Hermitian-definite pairs are solved with numpy alone (``eigh_definite``: a
Cholesky reduction and ``eigh``). scipy is imported where it is first
needed, so importing the package loads numpy only: ``scipy.linalg`` on the
first QZ (``eig_pencil``, ``eigvals_pencil``), which planting and the
spectrum check of a pencil that is not Hermitian-definite run, and
``scipy.optimize`` only when an assignment in ``match_multisets`` is not
settled by the row minima of its cost matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteEntries,
    NotHermitian,
    SingularPencil,
)

# Working tolerances (relative, Frobenius-scaled). Chosen for double
# precision with headroom up to n ~ 500.
TAU_NUM = 1e-12     # SVD cutoff for rank decisions
TAU_STRUCT = 1e-10  # symmetry-structure residual acceptance
TAU_DEFL = 1e-9     # deflating-pair residual acceptance

# Eigenvalue equality: |a - b| <= EIG_MATCH_TOL * (1 + max(|a|, |b|))
EIG_MATCH_TOL = 1e-8

# QZ eigenvalue classification of lambda = -alpha/beta.
# alpha ~ ||K|| and beta ~ ||M|| both at rounding-noise level: no regular pencil.
QZ_SINGULAR_TOL = 1e-10
# |beta| below this fraction of |alpha|: -alpha/beta is beyond double precision,
# so the eigenvalue is tagged infinite.
QZ_INFINITE_TOL = 1e-14


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a 2-d complex128 array (always a copy)."""
    arr = np.array(a, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise NonFiniteEntries(f"{name} contains NaN or Inf entries")
    return arr


def require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def fnorm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


# the 2x2 canonical skew block
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def block_diag(*blocks) -> np.ndarray:
    """Block-diagonal matrix of the (at least 2-d) blocks, as
    ``scipy.linalg.block_diag``: dtype is the blocks' ``result_type``."""
    blocks = [np.atleast_2d(b) for b in blocks or ([],)]
    rows, cols = (sum(b.shape[axis] for b in blocks) for axis in (0, 1))
    out = np.zeros((rows, cols), dtype=np.result_type(*(b.dtype for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose inverse via SVD with relative rank cutoff TAU_NUM.

    The zero matrix maps to the zero matrix of transposed shape.
    """
    a = as_matrix(a, "A")
    if fnorm(a) == 0.0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=np.complex128)
    return np.linalg.pinv(a, rcond=TAU_NUM)


def rcond_estimate(a) -> float:
    """sigma_min / sigma_max of a (0.0 for the zero matrix)."""
    a = as_matrix(a, "A")
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0.0
    return float(s[-1] / s[0])


def scaled_rcond(a, floor_scale: float = 0.0) -> float:
    """sigma_min(A) relative to max(sigma_max(A), floor_scale).

    Gramians G = X^star W X can collapse entirely (e.g. isotropic vectors),
    in which case sigma_min/sigma_max is a meaningless 1; the floor ties the
    estimate to the outer scale ||W||*sigma_max(X)^2 instead.
    """
    a = as_matrix(a, "A")
    s = np.linalg.svd(a, compute_uv=False)
    denom = max(float(s[0]) if s.size else 0.0, floor_scale)
    if denom == 0.0:
        return 0.0
    return float(s[-1] / denom) if s.size else 0.0


def gramian_scale(w: np.ndarray, x: np.ndarray) -> float:
    """Natural magnitude of X^star W X: ||W||_F * sigma_max(X)^2."""
    smax = float(np.linalg.svd(x, compute_uv=False)[0]) if x.size else 0.0
    return fnorm(w) * smax**2


@dataclass(frozen=True)
class PencilEigenpair:
    """One eigenvalue of lambda*M + K with its (unit-norm) eigenvector.

    ``value`` is None exactly when the eigenvalue is infinite (M singular in
    the direction of ``vector``).
    """

    value: complex | None
    vector: np.ndarray

    @property
    def finite(self) -> bool:
        return self.value is not None


def _fix_phase(x: np.ndarray) -> np.ndarray:
    """Rotate a column so its largest-magnitude entry is real positive."""
    i = int(np.argmax(np.abs(x)))
    piv = x[i]
    if np.abs(piv) == 0:
        return x
    return x * (np.abs(piv) / piv)


def unit_eigenpairs(values, vectors: np.ndarray) -> list[PencilEigenpair]:
    """Each value with its column of ``vectors``, scaled to unit norm and
    phase-fixed (largest entry real positive)."""
    return [
        PencilEigenpair(value, _fix_phase(vectors[:, j] / np.linalg.norm(vectors[:, j])))
        for j, value in enumerate(values)
    ]


def largest_entry_scaled(x: np.ndarray) -> np.ndarray:
    """A column scaled so its largest-magnitude entry is 1."""
    return x / x[int(np.argmax(np.abs(x)))]


def _check_pencil(m, k) -> tuple[np.ndarray, np.ndarray]:
    m = require_square(as_matrix(m, "M"), "M")
    k = as_matrix(k, "K")
    if k.shape != m.shape:
        raise DimensionMismatch(f"M is {m.shape} but K is {k.shape}")
    return m, k


def _pencil_values(m, k, alpha, beta) -> list[complex | None]:
    """lambda = -alpha/beta per QZ pair, None where infinite.

    Raises SingularPencil when some pair vanishes jointly (the pencil is
    detected non-regular).
    """
    nm, nk = max(fnorm(m), 1e-300), max(fnorm(k), 1e-300)
    values = []
    for a, b in zip(alpha, beta):
        if abs(a) <= QZ_SINGULAR_TOL * nk and abs(b) <= QZ_SINGULAR_TOL * nm:
            raise SingularPencil(
                "pencil is not regular: joint alpha/beta underflow in QZ"
            )
        if abs(b) <= QZ_INFINITE_TOL * max(abs(a), 1e-300):
            values.append(None)
        else:
            values.append(complex(-a / b))
    return values


def eig_pencil(m, k) -> list[PencilEigenpair]:
    """All eigenvalues of the regular pencil lambda*M + K.

    Finite eigenvalues come with unit-norm eigenvectors; infinite ones are
    tagged (value None). Raises SingularPencil when the pencil is detected
    non-regular (some alpha/beta pair vanishes jointly).
    """
    m, k = _check_pencil(m, k)
    import scipy.linalg

    # det(lam M + K) = 0  <=>  K x = (-lam) M x
    (alpha, beta), vr = scipy.linalg.eig(k, m, homogeneous_eigvals=True, right=True)
    return unit_eigenpairs(_pencil_values(m, k, alpha, beta), vr)


def eigvals_pencil(m, k) -> list[complex | None]:
    """The eigenvalues of ``eig_pencil`` without eigenvectors (values-only QZ)."""
    m, k = _check_pencil(m, k)
    import scipy.linalg

    alpha, beta = scipy.linalg.eigvals(k, m, homogeneous_eigvals=True)
    return _pencil_values(m, k, alpha, beta)


def eigh_definite(a, b, vectors: bool = True):
    """Ascending eigenvalues w of A v = w B v for Hermitian A and Hermitian
    positive definite B, and with ``vectors`` the B-orthonormal V as well.

    Reduces to the Hermitian C = L^{-1} A L^{-*} with B = L L^* (Cholesky),
    symmetrized before numpy's ``eigh``/``eigvalsh``; V = L^{-*} Y. The
    Cholesky factorization reads only the lower triangle of B. Raises
    ``np.linalg.LinAlgError`` when B has no Cholesky factor.
    """
    li = np.linalg.inv(np.linalg.cholesky(b))
    c = li @ a @ li.conj().T
    c = (c + c.conj().T) / 2.0
    if not vectors:
        return np.linalg.eigvalsh(c)
    w, y = np.linalg.eigh(c)
    return w, li.conj().T @ y


def finite_eigenvalues(pairs: list[PencilEigenpair]) -> np.ndarray:
    return np.array([p.value for p in pairs if p.finite], dtype=np.complex128)


STAR_TILE = 64  # tile order of ``star_residual``: a pair of complex tiles is 128 KB


def star_residual(a: np.ndarray, conjugate: bool, eps: int = 1) -> float:
    """||A^star - eps A||_F of a square A for eps = +1 or -1, A^star = A^*
    when ``conjugate`` else A^T, read tile by tile.

    The entries of A^star - eps A in tile (I, J) are star(A_JI) - eps A_IJ,
    and those in tile (J, I) are eps-scaled stars of them, with the same
    norm. So the walk visits the tile pairs I <= J once, and counts a pair
    off the diagonal twice. Each step reads two STAR_TILE-square tiles,
    which stay in cache while one of them is read transposed, so no pass
    reads the whole of A across its rows.
    """
    conjugate = conjugate and np.iscomplexobj(a)
    n, total = a.shape[0], 0.0
    for i in range(0, n, STAR_TILE):
        rows = slice(i, i + STAR_TILE)
        for j in range(i, n, STAR_TILE):
            cols = slice(j, j + STAR_TILE)
            d = a[cols, rows].T
            if conjugate:
                d = d.conj()
            d = d - a[rows, cols] if eps == 1 else d + a[rows, cols]
            square = np.vdot(d, d).real
            total += square if i == j else 2.0 * square
    return float(np.sqrt(total))


def check_hermitian(a) -> tuple[np.ndarray, float, float]:
    """(A, ||A||_F, ||A - A*||_F) of a square, finite A, as complex128 (not
    copied when it is one already).

    Raises NonFiniteEntries for NaN or Inf entries, and NotHermitian when
    ||A - A*||_F > TAU_STRUCT * ||A||_F.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"A must be square, got shape {a.shape}")
    na = fnorm(a)
    if not np.isfinite(na) and not np.isfinite(a).all():
        raise NonFiniteEntries("A contains NaN or Inf entries")
    asym = star_residual(a, conjugate=True)
    if na > 0 and asym > TAU_STRUCT * na:
        raise NotHermitian(
            f"matrix is not Hermitian at tolerance {TAU_STRUCT} (residual {asym / na:.2e})"
        )
    return a, na, asym


def require_hermitian(a) -> np.ndarray:
    """(A + A*)/2 of a square A, as a complex array.

    Raises NotHermitian when ||A - A*||_F > TAU_STRUCT * ||A||_F.
    """
    a = check_hermitian(a)[0]
    return (a + a.conj().T) / 2.0


def herm_eigs(a) -> np.ndarray:
    """Ascending real spectrum of (A + A*)/2.

    Raises NotHermitian when ||A - A*||_F > TAU_STRUCT * ||A||_F.
    """
    return np.linalg.eigvalsh(require_hermitian(a))


def match_multisets(a, b):
    """Optimal matching of two complex multisets under a relative metric.

    Cost of pairing (x, y) is |x - y| / (1 + max(|x|, |y|)). Uses an exact
    minimum-cost assignment, so the result is permutation invariant. Returns
    (max matched distance, number unmatched) where unmatched counts the
    size difference of the two lists.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.complex128))
    b = np.atleast_1d(np.asarray(b, dtype=np.complex128))
    if a.size == 0 or b.size == 0:
        return 0.0, abs(a.size - b.size)
    absa, absb = np.abs(a)[:, None], np.abs(b)[None, :]
    cost = np.abs(a[:, None] - b[None, :]) / (1.0 + np.maximum(absa, absb))
    return assignment_max_cost(cost), abs(a.size - b.size)


def assignment_max_cost(cost: np.ndarray) -> float:
    """Largest entry of a minimum-total-cost assignment of the shorter side.

    When the row minima (of the side with fewer lines) lie in distinct
    columns they form an optimal assignment, since their sum bounds every
    assignment from below; and every optimal assignment then takes a
    minimum of each row, so its largest entry is the one the Hungarian
    method would report. Only when two minima share a column is
    ``scipy.optimize.linear_sum_assignment`` run.
    """
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    cols = cost.argmin(axis=1)
    if np.unique(cols).size == cols.size:
        return float(cost[np.arange(cols.size), cols].max())
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
