"""Dense complex matrix substrate.

Thin, contract-enforcing wrappers around numpy/scipy dense routines. All
matrices are complex128 ndarrays; shapes and finiteness are validated at the
boundary, and infinite pencil eigenvalues are tagged explicitly instead of
being encoded as large floats.

scipy is imported where it is first needed (the QZ in ``eig_pencil``, the
assignment in ``match_multisets``), so importing the package loads numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteEntries,
    NotHermitian,
    SingularMatrix,
    SingularPencil,
)

# Working tolerances (relative, Frobenius-scaled). Chosen for double
# precision with headroom up to n ~ 500.
TAU_NUM = 1e-12     # SVD cutoff for rank decisions
TAU_STRUCT = 1e-10  # symmetry-structure residual acceptance
TAU_DEFL = 1e-9     # deflating-pair residual acceptance

# Eigenvalue equality: |a - b| <= EIG_MATCH_TOL * (1 + max(|a|, |b|))
EIG_MATCH_TOL = 1e-8


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


class SolveResult(NamedTuple):
    x: np.ndarray
    rcond: float


def solve(a, b) -> SolveResult:
    """Solve A X = B for square A, reporting the reciprocal condition number.

    Raises SingularMatrix when A is rank deficient at TAU_NUM.
    """
    a = require_square(as_matrix(a, "A"), "A")
    b = as_matrix(b, "B")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(
            f"B has {b.shape[0]} rows, expected {a.shape[0]}"
        )
    s = np.linalg.svd(a, compute_uv=False)
    rcond = float(s[-1] / s[0]) if s[0] > 0 else 0.0
    if rcond <= TAU_NUM:
        raise SingularMatrix(f"A is singular at tolerance {TAU_NUM} (rcond={rcond:.2e})")
    return SolveResult(np.linalg.solve(a, b), rcond)


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


def largest_entry_scaled(x: np.ndarray) -> np.ndarray:
    """A column scaled so its largest-magnitude entry is 1."""
    return x / x[int(np.argmax(np.abs(x)))]


def eig_pencil(m, k) -> list[PencilEigenpair]:
    """All eigenvalues of the regular pencil lambda*M + K.

    Finite eigenvalues come with unit-norm eigenvectors; infinite ones are
    tagged (value None). Raises SingularPencil when the pencil is detected
    non-regular (some alpha/beta pair vanishes jointly).
    """
    m = require_square(as_matrix(m, "M"), "M")
    k = as_matrix(k, "K")
    if k.shape != m.shape:
        raise DimensionMismatch(f"M is {m.shape} but K is {k.shape}")
    import scipy.linalg

    # det(lam M + K) = 0  <=>  K x = (-lam) M x
    (alpha, beta), vr = scipy.linalg.eig(k, m, homogeneous_eigvals=True, right=True)
    nm, nk = max(fnorm(m), 1e-300), max(fnorm(k), 1e-300)
    out = []
    for j in range(m.shape[0]):
        a, b = alpha[j], beta[j]
        x = vr[:, j]
        x = _fix_phase(x / np.linalg.norm(x))
        if abs(a) <= 1e-10 * nk and abs(b) <= 1e-10 * nm:
            raise SingularPencil(
                "pencil is not regular: joint alpha/beta underflow in QZ"
            )
        if abs(b) <= 1e-14 * max(abs(a), 1e-300):
            out.append(PencilEigenpair(None, x))
        else:
            out.append(PencilEigenpair(complex(-a / b), x))
    return out


def finite_eigenvalues(pairs: list[PencilEigenpair]) -> np.ndarray:
    return np.array([p.value for p in pairs if p.finite], dtype=np.complex128)


def herm_eigs(a) -> np.ndarray:
    """Ascending real spectrum of (A + A*)/2.

    Raises NotHermitian when ||A - A*||_F > TAU_STRUCT * ||A||_F.
    """
    a = require_square(as_matrix(a, "A"), "A")
    na = fnorm(a)
    if na > 0 and fnorm(a - a.conj().T) > TAU_STRUCT * na:
        raise NotHermitian(
            "matrix is not Hermitian at tolerance "
            f"{TAU_STRUCT} (residual {fnorm(a - a.conj().T) / na:.2e})"
        )
    return np.linalg.eigvalsh((a + a.conj().T) / 2.0)


def match_multisets(a, b):
    """Optimal matching of two complex multisets under a relative metric.

    Cost of pairing (x, y) is |x - y| / (1 + max(|x|, |y|)). Uses exact
    assignment (Hungarian), so the result is permutation invariant. Returns
    (max matched distance, number unmatched) where unmatched counts the
    size difference of the two lists.
    """
    from scipy.optimize import linear_sum_assignment

    a = np.atleast_1d(np.asarray(a, dtype=np.complex128))
    b = np.atleast_1d(np.asarray(b, dtype=np.complex128))
    if a.size == 0 or b.size == 0:
        return 0.0, abs(a.size - b.size)
    absa, absb = np.abs(a)[:, None], np.abs(b)[None, :]
    cost = np.abs(a[:, None] - b[None, :]) / (1.0 + np.maximum(absa, absb))
    rows, cols = linear_sum_assignment(cost)
    maxdist = float(cost[rows, cols].max()) if rows.size else 0.0
    return maxdist, abs(a.size - b.size)
