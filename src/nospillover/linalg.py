"""Dense complex matrix substrate.

Thin, contract-enforcing wrappers around numpy/scipy dense routines. All
matrices are complex128 ndarrays; shapes and finiteness are validated at the
boundary, and infinite pencil eigenvalues are tagged explicitly instead of
being encoded as large floats.

Hermitian-definite pairs are solved with numpy alone (``eigh_definite``: a
Cholesky reduction and ``eigh``). scipy is imported where it is first
needed, so importing the package loads numpy only: ``scipy.linalg`` on the
first QZ: the values-only ``eigvals_pencil`` of the spectrum check of a
pencil that is not Hermitian-definite, or ``eig_pencil`` with vectors,
which the CLI runs only for the bundled SHH reference case (planting
builds its pencil from a known eigenbasis and runs no QZ), and
``scipy.optimize`` only when an assignment in ``match_multisets`` is not
settled by the row minima of its cost matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteEntries,
    NotEigenpair,
    NotHermitian,
    SingularPencil,
)

# ---------------------------------------------------------------------------
# Tolerances: every threshold the package decides with. Each row gives the
# value, the quantity it bounds (relative to the scale named) and why the
# value is what it is. Values are for double precision (eps = 2.2e-16) up to
# n ~ 500, where n eps is about 1e-13. No function takes a tolerance
# argument: the only one a user sets is the certificate's pair-residual
# gate, which ``--tol`` of ``solve`` and ``verify`` passes to
# ``verify.certify(tol_defl=)`` in place of TAU_DEFL.

# -- certificate
TAU_DEFL = 1e-9
# bounds: a pair's residual ||M X Lam + K X||_F over (||M|| ||Lam|| + ||K||)
#   ||X||: the certificate's target and spillover gates, and the eigenpair
#   check of the real T-odd/T-even recipes.
# why: planted pairs at n = 512 certify at about 1e-12; three orders of
#   headroom leave room for eigendata read from a file.
TAU_STRUCT = 1e-10
# bounds: a symmetry residual ||A^star - eps A||_F / ||A||_F: of a tagged
#   pencil, of a core (``core_structure_flags``), of the updated pencil, of
#   a W that must be Hermitian. Also (formerly ``special._DIAG_TOL``),
#   relative to 1 + the largest |entry|, the off-diagonal, imaginary or real
#   part of a diagonal parameter and the real part of a realified change or
#   target value, and, relative to max(||M||_F, ||K||_F), the imaginary part
#   of a real T-odd/T-even pencil.
# why: exact structure leaves rounding only, with no eigensolver error: the
#   reference cases measure 1e-21 to 1e-15.
TAU_PSD = 1e-10
# bounds: how far below zero the least eigenvalue of a matrix named PSD may
#   be, over its ||.||_F in the certificate and absolute in ``reproduce``.
# why: rounding of a PSD update; the reference cases measure -4.6e-16 at
#   worst.
TAU_SPECTRUM = 1e-7
# bounds: |a - b| / (1 + max(|a|, |b|)) of each matched eigenvalue in the
#   certificate's spectrum match.
# why: an eigenvalue moves by its pair residual times its condition number;
#   this admits condition numbers to ~100 at the TAU_DEFL gate.

# -- rank, conditioning and definiteness
TAU_NUM = 1e-12
# bounds: sigma_min / sigma_max at or below which a matrix is singular (the
#   pseudoinverse cutoff, rank of X and of [X_a X_f], rcond of the change
#   Gramian G, formerly ``structured.G_RCOND_CUTOFF``); lambda_min /
#   lambda_max of a W that must be positive definite; a zero change value.
# why: about 5e3 eps, above the O(n eps) rounding of a regular problem. A G at
#   the cutoff is refused, not regularized, since regularizing would
#   silently break the exactness of the update.

# -- eigenvalues
EIG_MATCH_TOL = 1e-8
# bounds: |re lambda| or |im lambda| over 1 + |lambda| at which a computed
#   value lies on the imaginary or real axis (T-SHH grouping and blocks);
#   over 1 + |lambda|^2, that lambda^2 does, for a quadratic class, and
#   |lambda| at which it is zero for star-even (formerly
#   ``special.E_MEMBERSHIP_TOL``).
# why: about sqrt(eps). The QZ does not keep the spectral symmetry, so a
#   value on an axis comes out off it by rounding times its condition.
#   Mismatch: the real T-odd/T-even recipes ask a change or target value to
#   be imaginary at TAU_STRUCT, where a T-SHH imaginary pair asks it here.
T_SHH_PARTNER_FACTOR = 1e4
# bounds: the factor by which ``group_t_shh_spectrum`` widens EIG_MATCH_TOL
#   to find a value's partners, and below which (times EIG_MATCH_TOL) a
#   |lambda| is left ungrouped as near zero.
# why: partners are separate QZ values, each with its own rounding, so
#   they agree less closely than one value lies on its axis. Planting
#   no longer groups a computed spectrum, so the row goes with
#   ``group_t_shh_spectrum``, which only the benchmark's tracer still names.
QZ_SINGULAR_TOL = 1e-10
# bounds: |alpha| / ||K||_F and |beta| / ||M||_F of a QZ pair; both at or
#   below it is no regular pencil.
# why: both at rounding-noise level, with headroom for n eps growth.
QZ_INFINITE_TOL = 1e-14
# bounds: |beta| / |alpha| of a QZ pair (and |w| / max |w| of the definite
#   reduction of star-even) at or below which lambda is tagged infinite.
# why: -alpha/beta is then beyond double precision.
REAL_DATA_TOL = 1e-8
# bounds: the largest |imaginary part| of the data of a T-SHH update over
#   its scale, that still counts as real (formerly ``shh._PATTERN_TOL``):
#   of the pencil over max(||M||_F, ||K||_F), and of the change basis, the
#   two Lambdas and the core over their largest Frobenius norm
#   (``t_shh_update``).
# why: the update keeps only the real parts of its factors, which is an
#   update of the data only if the data is real; about sqrt(eps) admits
#   data read from a file or formed in complex arithmetic. Mismatch: the
#   real T-odd/T-even recipes ask the same of their pencil at TAU_STRUCT.
#   Making the two agree changes which inputs one path accepts, so it would
#   be a change of its own.

# -- published reference values
PUBLISHED_VALUE_TOL = 1e-3
# bounds: |lambda - w| / (1 + |w|) within which a computed eigenvalue is
#   taken for a wanted change value w (``nearest_eigenvalues``).
# why: wanted values are published to 4-6 significant digits.
PUBLISHED_MATRIX_TOL = 5e-4
# bounds: max |computed - printed| / max |printed| of a reference case's dM
#   and dK (``reproduce``).
# why: the printed matrices are rounded and computed from printed eigendata;
#   the four cases measure 9e-7 to 8.4e-6.

# -- planting (``randomgen``): a draw outside these is retried, not repaired
MIN_SEPARATION = 1e-5
# bounds: |a - b| / (1 + |a|) (or 1 + max(|a|, |b|)) at which two values
#   count as equal: a change value and a fixed value's symmetry partner,
#   a target and a fixed value, two change values.
# why: keeps planted instances off the boundary of the no-spillover
#   condition and of the Gramian's block structure.
PLANT_BASIS_CUTOFF = 1e-8
# bounds: the least rcond([X_c X_f]) of an accepted planted instance.
# why: four orders above TAU_NUM, so the pairs of a planted file are
#   comfortably independent.
PLANT_GRAMIAN_CUTOFF = 1e-6
# bounds: the least rcond of the change Gramian G of an accepted instance.
# why: six orders above TAU_NUM, so no planted file is near ``SingularG``.


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
    """Frobenius norm; of a vector, that of the diagonal matrix it holds."""
    return float(np.linalg.norm(a, "fro" if a.ndim == 2 else None))


def compact_lambda(lam: np.ndarray) -> np.ndarray:
    """A square Lambda in the form its products take it: a copy of its
    diagonal (1-d) when no entry off the diagonal is nonzero, so that X Lambda
    is a column scaling of X, else ``lam`` itself. Only exact zeros count as
    zero."""
    diag = np.diagonal(lam)
    return diag.copy() if np.count_nonzero(lam) == np.count_nonzero(diag) else lam


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


def realified_pairs(values, vectors=None):
    """(X, Lambda): the real form of eigenpairs (lam_j, x_j) of a real pencil,
    with M X Lambda + K X = 0 whenever each M x_j lam_j + K x_j = 0.

    A real lam (a float, not a complex with zero imaginary part) gives the
    column re x and the 1 x 1 block [lam]. A complex lam = a + ib stands for
    the conjugate pair (lam, conj lam): it gives the columns [re x, im x]
    and the block [[a, b], [-b, a]]. Lambda is block diagonal; X is None
    when no vectors are given. The imaginary value 1j * mu has real part
    +0.0 or -0.0 with the sign of mu, so its block is exactly mu * J2.
    """
    blocks, cols = [], []
    for j, lam in enumerate(values):
        pair = np.iscomplexobj(lam)
        blocks.append(
            np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
            if pair else np.array([[lam]], dtype=float)
        )
        if vectors is not None:
            x = as_matrix(vectors[j], "eigenvector")
            cols += [x.real, x.imag] if pair else [x.real]
    return (None if vectors is None else np.hstack(cols)), block_diag(*blocks)


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose inverse via SVD with relative rank cutoff TAU_NUM.

    The zero matrix maps to the zero matrix of transposed shape.
    """
    a = as_matrix(a, "A")
    if fnorm(a) == 0.0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=np.complex128)
    return np.linalg.pinv(a, rcond=TAU_NUM)


def rcond_estimate(a, floor_scale: float = 0.0) -> float:
    """sigma_min(A) relative to max(sigma_max(A), floor_scale); 0.0 for an
    empty or zero A.

    Gramians G = X^star W X can collapse entirely (e.g. isotropic vectors),
    in which case sigma_min/sigma_max is a meaningless 1; the floor ties the
    estimate to the outer scale ||W||*sigma_max(X)^2 instead.
    """
    s = np.linalg.svd(as_matrix(a, "A"), compute_uv=False)
    denom = max(float(s[0]) if s.size else 0.0, floor_scale)
    return float(s[-1] / denom) if s.size and denom else 0.0


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


def nearest_eigenvalues(eigs, wanted) -> tuple[list[int], list[int]]:
    """(chosen, rest): the index into ``eigs`` of the computed eigenvalue
    nearest each wanted value w, none taken twice, and the indices left.

    Raises NotEigenpair when the nearest is farther than the relative
    PUBLISHED_VALUE_TOL, |lambda - w| / (1 + |w|), which admits wanted
    values published to 4-6 digits.
    """
    rest = list(range(len(eigs)))
    chosen = []
    for w in np.atleast_1d(np.asarray(wanted, dtype=np.complex128)):
        best, best_d = None, np.inf
        for idx in rest:
            d = abs(eigs[idx].value - w) / (1.0 + abs(w))
            if d < best_d:
                best, best_d = idx, d
        if best is None or best_d > PUBLISHED_VALUE_TOL:
            raise NotEigenpair(
                f"no computed eigenvalue matches {w} within relative {PUBLISHED_VALUE_TOL}"
            )
        rest.remove(best)
        chosen.append(best)
    return chosen, rest


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
    # a set, not np.unique, whose first call imports numpy.ma
    if len(set(cols.tolist())) == cols.size:
        return float(cost[np.arange(cols.size), cols].max())
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
