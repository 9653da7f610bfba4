"""Closed-form update families for definite structured pencils.

Covered classes: Hermitian with M > 0, star-odd with M > 0, star-even with
K > 0, their real T-counterparts (built on realified conjugate pairs), a
PSD parameter selection rule, and the quadratic lift mu = lambda^2 for
undamped second-order models.

All recipes assume the change vectors are normalized in the relevant inner
product; the entry points renormalize internally, so any eigenvector
scaling may be passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadBlockShape,
    ComplexInput,
    DimensionMismatch,
    EigenvalueOutsideClass,
    NotEigenpair,
    NotImaginaryDiagonal,
    NotPositiveDefinite,
    NotRealDiagonal,
    PositiveTargetEigenvalue,
    ZeroChangeEigenvalue,
)
from .linalg import (
    J2,
    QZ_INFINITE_TOL,
    TAU_DEFL,
    TAU_NUM,
    PencilEigenpair,
    as_matrix,
    block_diag,
    fnorm,
    herm_eigs,
    unit_eigenpairs,
)
from .pencil import (
    HERMITIAN,
    STAR_EVEN,
    STAR_ODD,
    DeflatingPair,
    StructuredPencil,
    normalize_columns,
)
from .unstructured import UpdateResult

_DIAG_TOL = 1e-10  # relative tolerance for real/imaginary/diagonal checks

# lambda^2 purely imaginary <=> lambda in {±sqrt(a/2)(1+i), ±sqrt(a/2)(1-i)}
E_MEMBERSHIP_TOL = 1e-8


@dataclass(frozen=True)
class DiagonalParams:
    """Diagonal free parameters (entries of Z1, Z2) plus optional extras."""

    z1: np.ndarray
    z2: np.ndarray
    t: float | None = None
    mhat_diag: np.ndarray | None = None


def _diag_vec(v, name: str, err=NotRealDiagonal) -> np.ndarray:
    """Accept a 1-d sequence or a square diagonal matrix; return 1-d."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim == 2:
        scale = 1.0 + float(np.abs(np.diag(arr)).max(initial=0.0))
        off = arr - np.diag(np.diag(arr))
        if np.abs(off).max(initial=0.0) > _DIAG_TOL * scale:
            raise err(f"{name} must be diagonal")
        arr = np.diag(arr)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be a vector or diagonal matrix")
    return arr


def _require_real(v: np.ndarray, name: str) -> np.ndarray:
    scale = 1.0 + float(np.abs(v).max(initial=0.0))
    if np.abs(v.imag).max(initial=0.0) > _DIAG_TOL * scale:
        raise NotRealDiagonal(f"{name} must have real entries")
    return v


def _require_imaginary(v: np.ndarray, name: str) -> np.ndarray:
    scale = 1.0 + float(np.abs(v).max(initial=0.0))
    if np.abs(v.real).max(initial=0.0) > _DIAG_TOL * scale:
        raise NotImaginaryDiagonal(f"{name} must have purely imaginary entries")
    return v


def _require_positive_definite(w: np.ndarray, name: str):
    evals = herm_eigs(w)
    if evals[0] <= TAU_NUM * max(evals[-1], 1e-300):
        raise NotPositiveDefinite(
            f"{name} must be positive definite (min eigenvalue {evals[0]:.3e})"
        )


def _rank_one_expand(w: np.ndarray, x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_i c_i (W x_i)(W x_i)^* without forming the diagonal core."""
    wx = w @ x
    return (wx * coeffs) @ wx.conj().T


# ---------------------------------------------------------------------------
# Hermitian pencils with M > 0 (all eigenvalues real)

def hermitian_core(lam_c, lam_a, z1, z2):
    """Diagonal core (Mh, Kh) for the Hermitian M > 0 family (G = I).

    Mh = Ha[(Lc - La) La + Z1 - Z2 La],  Kh = Ha[(Lc - La) - Z1 La + Z2 La^2]
    with Ha = (La^2 + I)^{-1}; Z1, Z2 real diagonal.
    """
    lc = _require_real(_diag_vec(lam_c, "Lambda_c"), "Lambda_c")
    la = _require_real(_diag_vec(lam_a, "Lambda_a"), "Lambda_a")
    z1 = _require_real(_diag_vec(z1, "Z1"), "Z1")
    z2 = _require_real(_diag_vec(z2, "Z2"), "Z2")
    ha = 1.0 / (la**2 + 1.0)
    mh = ha * ((lc - la) * la + z1 - z2 * la)
    kh = ha * ((lc - la) - z1 * la + z2 * la**2)
    return mh, kh


def commuting_family_params(lam_c, lam_a, phi):
    """(Z1, Z2) recovering the prior positive-definite updating family.

    Z1 = Ha^{-1}(Phi - I), Z2 = Lc - La, with Phi > 0 diagonal (the
    commuting-parameter matrix) and the scaling parameter fixed at 1.
    """
    lc = _require_real(_diag_vec(lam_c, "Lambda_c"), "Lambda_c")
    la = _require_real(_diag_vec(lam_a, "Lambda_a"), "Lambda_a")
    phi = _require_real(_diag_vec(phi, "Phi"), "Phi")
    if np.any(phi.real <= 0):
        raise NotPositiveDefinite("Phi must have positive diagonal entries")
    z1 = (la**2 + 1.0) * (phi - 1.0)
    z2 = lc - la
    return z1, z2


def select_psd_params(lam_c, lam_a, slack: float = 0.0) -> DiagonalParams:
    """Diagonal (Z1, Z2) making both dM and dK positive semidefinite.

    Valid in the K > 0 regime where every target eigenvalue is negative:
    choose z1_i - z2_i*la_i = max{(la_i - lc_i) la_i, lc_i/la_i - 1, 0} + slack
    with z2_i = 0.
    """
    lc = _require_real(_diag_vec(lam_c, "Lambda_c"), "Lambda_c").real
    la = _require_real(_diag_vec(lam_a, "Lambda_a"), "Lambda_a").real
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    if np.any(la >= 0):
        raise PositiveTargetEigenvalue("all target eigenvalues must be negative")
    bound = np.maximum((la - lc) * la, lc / la - 1.0)
    z1 = np.maximum(bound, 0.0) + slack
    z2 = np.zeros_like(z1)
    return DiagonalParams(z1=z1, z2=z2)


def hermitian_update(
    pencil: StructuredPencil, xc, lam_c, lam_a, mhat=None, z1=None, z2=None
) -> UpdateResult:
    """Hermitian update dM = M Xc Mh Xc^* M, dK = M Xc (Lc-La-Mh La) Xc^* M.

    Requires M > 0 and real diagonal Lc, La. The core Mh is either given
    directly (real diagonal) or built from (Z1, Z2); omitted parameters
    default to the dM = 0 branch. Columns of Xc are renormalized so that
    Xc^* M Xc = I. Real inputs produce real perturbations.
    """
    _require_positive_definite(pencil.m, "M")
    lc = _require_real(_diag_vec(lam_c, "Lambda_c"), "Lambda_c")
    la = _require_real(_diag_vec(lam_a, "Lambda_a"), "Lambda_a")
    if mhat is not None:
        mh = _require_real(_diag_vec(mhat, "Mhat"), "Mhat")
        kh = (lc - la) - mh * la
    else:
        if z1 is None:
            z1 = np.zeros_like(lc)
        if z2 is None:
            z2 = np.zeros_like(lc)
        mh, kh = hermitian_core(lc, la, z1, z2)
    xn = normalize_columns(pencil, xc, "M")
    dm = _rank_one_expand(pencil.m, xn, mh)
    dk = _rank_one_expand(pencil.m, xn, kh)
    real_data = (
        np.abs(pencil.m.imag).max() == 0.0
        and np.abs(pencil.k.imag).max() == 0.0
        and np.abs(np.asarray(xc, dtype=complex).imag).max(initial=0.0) == 0.0
    )
    if real_data:
        dm = dm.real.astype(np.complex128)
        dk = dk.real.astype(np.complex128)
    return UpdateResult(
        delta_m=dm,
        delta_k=dk,
        provenance={
            "method": "hermitian-definite",
            "xc_normalized": xn,
            "mhat": mh,
            "khat": kh,
            "lam_c": lc,
            "lam_a": la,
        },
    )


# ---------------------------------------------------------------------------
# star-odd pencils with M > 0 (eigenvalues purely imaginary or zero)

def star_odd_core(lam_c, lam_a, z1, z2):
    """Diagonal core for the star-odd M > 0 family (G = I).

    Mh = Ha[(La - Lc) La + Z1 + Z2 La],  Kh = Ha[(Lc - La) - Z1 La - Z2 La^2]
    with Ha = (I - La^2)^{-1}; Z1 real diagonal, Z2 imaginary diagonal.
    """
    lc = _require_imaginary(_diag_vec(lam_c, "Lambda_c", NotImaginaryDiagonal), "Lambda_c")
    la = _require_imaginary(_diag_vec(lam_a, "Lambda_a", NotImaginaryDiagonal), "Lambda_a")
    z1 = _require_real(_diag_vec(z1, "Z1"), "Z1")
    z2 = _require_imaginary(_diag_vec(z2, "Z2", NotImaginaryDiagonal), "Z2")
    ha = 1.0 / (1.0 - la**2)
    mh = ha * ((la - lc) * la + z1 + z2 * la)
    kh = ha * ((lc - la) - z1 * la - z2 * la**2)
    return mh, kh


def star_odd_update(
    pencil: StructuredPencil, xc, lam_c, lam_a, mhat=None, z1=None, z2=None
) -> UpdateResult:
    """star-odd update: dM Hermitian, dK skew-Hermitian.

    Requires M > 0 and purely imaginary diagonal Lc, La. dM is PSD exactly
    when the bracket (La - Lc) La + Z1 + Z2 La is nonnegative.
    """
    _require_positive_definite(pencil.m, "M")
    lc = _require_imaginary(_diag_vec(lam_c, "Lambda_c", NotImaginaryDiagonal), "Lambda_c")
    la = _require_imaginary(_diag_vec(lam_a, "Lambda_a", NotImaginaryDiagonal), "Lambda_a")
    if mhat is not None:
        mh = _require_real(_diag_vec(mhat, "Mhat"), "Mhat")
        kh = (lc - la) - mh * la
    else:
        if z1 is None:
            z1 = np.zeros(lc.shape)
        if z2 is None:
            z2 = np.zeros(lc.shape)
        mh, kh = star_odd_core(lc, la, z1, z2)
    xn = normalize_columns(pencil, xc, "M")
    return UpdateResult(
        delta_m=_rank_one_expand(pencil.m, xn, mh),
        delta_k=_rank_one_expand(pencil.m, xn, kh),
        provenance={
            "method": "star-odd-definite",
            "xc_normalized": xn,
            "mhat": mh,
            "khat": kh,
            "lam_c": lc,
            "lam_a": la,
        },
    )


# ---------------------------------------------------------------------------
# star-even pencils with K > 0 (eigenvalues purely imaginary, nonzero)

def star_even_core(lam_c, lam_a, z1, z2):
    """Diagonal core for the star-even K > 0 family (G = -Lc^{-1}).

    Mh = Ha[Lc^{-1}(Lc - La) La + Z1 + Z2 La],
    Kh = Ha[Lc^{-1}(La - Lc) - Z1 La - Z2 La^2],
    with Ha = (I - La^2)^{-1}; Z1 imaginary diagonal, Z2 real diagonal.
    """
    lc = _require_imaginary(_diag_vec(lam_c, "Lambda_c", NotImaginaryDiagonal), "Lambda_c")
    la = _require_imaginary(_diag_vec(lam_a, "Lambda_a", NotImaginaryDiagonal), "Lambda_a")
    if np.any(np.abs(lc) <= TAU_NUM * (1.0 + np.abs(lc).max(initial=0.0))):
        raise ZeroChangeEigenvalue("change eigenvalues must be nonzero")
    z1 = _require_imaginary(_diag_vec(z1, "Z1", NotImaginaryDiagonal), "Z1")
    z2 = _require_real(_diag_vec(z2, "Z2"), "Z2")
    ha = 1.0 / (1.0 - la**2)
    mh = ha * ((lc - la) / lc * la + z1 + z2 * la)
    kh = ha * ((la - lc) / lc - z1 * la - z2 * la**2)
    return mh, kh


def star_even_update(
    pencil: StructuredPencil, xc, lam_c, lam_a, mhat=None, z1=None, z2=None
) -> UpdateResult:
    """star-even update: dM skew-Hermitian, dK Hermitian.

    Requires K > 0 and nonzero purely imaginary Lc. Uses the K-normalized
    vectors, under which the update range is K Xc. Shortcuts: Mh = 0 gives
    dM = 0; Mh = Lc^{-1} - La^{-1} gives dK = 0.
    """
    _require_positive_definite(pencil.k, "K")
    lc = _require_imaginary(_diag_vec(lam_c, "Lambda_c", NotImaginaryDiagonal), "Lambda_c")
    la = _require_imaginary(_diag_vec(lam_a, "Lambda_a", NotImaginaryDiagonal), "Lambda_a")
    if np.any(np.abs(lc) <= TAU_NUM * (1.0 + np.abs(lc).max(initial=0.0))):
        raise ZeroChangeEigenvalue("change eigenvalues must be nonzero")
    if mhat is not None:
        mh = _require_imaginary(_diag_vec(mhat, "Mhat", NotImaginaryDiagonal), "Mhat")
        kh = (la - lc) / lc - mh * la
    else:
        if z1 is None:
            z1 = np.zeros(lc.shape)
        if z2 is None:
            z2 = np.zeros(lc.shape)
        mh, kh = star_even_core(lc, la, z1, z2)
    xn = normalize_columns(pencil, xc, "K")
    return UpdateResult(
        delta_m=_rank_one_expand(pencil.k, xn, mh),
        delta_k=_rank_one_expand(pencil.k, xn, kh),
        provenance={
            "method": "star-even-definite",
            "xc_normalized": xn,
            "mhat": mh,
            "khat": kh,
            "lam_c": lc,
            "lam_a": la,
        },
    )


# ---------------------------------------------------------------------------
# real T-odd / T-even pencils: conjugate pairs, realified 2x2 blocks

def _as_real_pencil(pencil: StructuredPencil) -> tuple[np.ndarray, np.ndarray]:
    scale = max(fnorm(pencil.m), fnorm(pencil.k), 1e-300)
    if max(np.abs(pencil.m.imag).max(), np.abs(pencil.k.imag).max()) > _DIAG_TOL * scale:
        raise ComplexInput("this path needs a real pencil")
    return pencil.m.real, pencil.k.real


def _imag_part(lam: complex, name: str) -> float:
    lam = complex(lam)
    if abs(lam.real) > _DIAG_TOL * (1.0 + abs(lam)):
        raise BadBlockShape(f"{name} must be purely imaginary, got {lam}")
    return lam.imag


def _realified_change_basis(w: np.ndarray, eigenpairs) -> tuple[np.ndarray, list[float]]:
    """Stack [re x, im x] per conjugate pair, scaled so X^T W X = I_{2p}."""
    cols = []
    imag_parts = []
    for lam, x in eigenpairs:
        mu = _imag_part(lam, "change eigenvalue")
        if mu == 0.0:
            raise BadBlockShape("change eigenvalues must be nonreal")
        x = as_matrix(x, "eigenvector")
        s = complex((x.conj().T @ w @ x)[0, 0]).real
        if s <= 0:
            raise NotPositiveDefinite("eigenvector has nonpositive W-norm")
        x = x * np.sqrt(2.0 / s)
        cols.append(np.hstack([x.real, x.imag]))
        imag_parts.append(mu)
    return np.hstack(cols), imag_parts


def _check_real_eigenpairs(m, k, eigenpairs):
    for lam, x in eigenpairs:
        x = as_matrix(x, "eigenvector")
        res = fnorm(m @ x * complex(lam) + k @ x)
        scale = (abs(complex(lam)) * fnorm(m) + fnorm(k)) * float(np.linalg.norm(x))
        if res > TAU_DEFL * max(scale, 1e-300):
            raise NotEigenpair(f"({lam}) fails the eigenpair residual test")


def t_odd_real_update(
    pencil: StructuredPencil, eigenpairs, lam_target, alpha, beta
) -> UpdateResult:
    """Real T-odd update built on realified conjugate eigenpairs.

    ``eigenpairs`` holds one (lambda, x) per conjugate pair (lambda = i*mu,
    mu != 0); ``lam_target`` the aimed purely imaginary values. Z1 has
    blocks alpha_j*I2 and Z2 blocks beta_j*J2, giving real symmetric dM and
    skew-symmetric dK.
    """
    m, k = _as_real_pencil(pencil)
    _require_positive_definite(m, "M")
    _check_real_eigenpairs(m, k, eigenpairs)
    p = len(eigenpairs)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if len(lam_target) != p or alpha.shape != (p,) or beta.shape != (p,):
        raise DimensionMismatch("need one target, alpha and beta per pair")
    xhat, mus = _realified_change_basis(m, eigenpairs)
    mus_a = [_imag_part(t, "target eigenvalue") for t in lam_target]
    lam_c = block_diag(*[mu * J2 for mu in mus])
    lam_a = block_diag(*[mu * J2 for mu in mus_a])
    z1 = block_diag(*[a * np.eye(2) for a in alpha])
    z2 = block_diag(*[b * J2 for b in beta])
    ha = np.linalg.inv(np.eye(2 * p) - lam_a @ lam_a)
    mh = ha @ ((lam_a - lam_c) @ lam_a + z1 + z2 @ lam_a)
    kh = ha @ ((lam_c - lam_a) - z1 @ lam_a - z2 @ lam_a @ lam_a)
    mx = m @ xhat
    return UpdateResult(
        delta_m=(mx @ mh @ mx.T).astype(np.complex128),
        delta_k=(mx @ kh @ mx.T).astype(np.complex128),
        provenance={
            "method": "t-odd-real",
            "xc_realified": xhat,
            "mhat": mh,
            "khat": kh,
            "lam_c": lam_c,
            "lam_a": lam_a,
        },
    )


def t_even_real_update(
    pencil: StructuredPencil, eigenpairs, lam_target, alpha, beta
) -> UpdateResult:
    """Real T-even update (K > 0) on realified conjugate eigenpairs.

    Z1 has blocks alpha_j*J2 and Z2 blocks beta_j*I2; dM comes out real
    skew-symmetric and dK symmetric. Change eigenvalues must be nonzero.
    """
    m, k = _as_real_pencil(pencil)
    _require_positive_definite(k, "K")
    _check_real_eigenpairs(m, k, eigenpairs)
    p = len(eigenpairs)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if len(lam_target) != p or alpha.shape != (p,) or beta.shape != (p,):
        raise DimensionMismatch("need one target, alpha and beta per pair")
    for lam, _ in eigenpairs:
        if abs(complex(lam)) <= TAU_NUM:
            raise ZeroChangeEigenvalue("change eigenvalues must be nonzero")
    xhat, mus = _realified_change_basis(k, eigenpairs)
    mus_a = [_imag_part(t, "target eigenvalue") for t in lam_target]
    lam_c = block_diag(*[mu * J2 for mu in mus])
    lam_a = block_diag(*[mu * J2 for mu in mus_a])
    lam_c_inv = np.linalg.inv(lam_c)
    z1 = block_diag(*[a * J2 for a in alpha])
    z2 = block_diag(*[b * np.eye(2) for b in beta])
    ha = np.linalg.inv(np.eye(2 * p) - lam_a @ lam_a)
    mh = ha @ (lam_c_inv @ (lam_c - lam_a) @ lam_a + z1 + z2 @ lam_a)
    kh = ha @ (lam_c_inv @ (lam_a - lam_c) - z1 @ lam_a - z2 @ lam_a @ lam_a)
    kx = k @ xhat
    return UpdateResult(
        delta_m=(kx @ mh @ kx.T).astype(np.complex128),
        delta_k=(kx @ kh @ kx.T).astype(np.complex128),
        provenance={
            "method": "t-even-real",
            "xc_realified": xhat,
            "mhat": mh,
            "khat": kh,
            "lam_c": lam_c,
            "lam_a": lam_a,
        },
    )


# ---------------------------------------------------------------------------
# quadratic lift: second-order model mu = lambda^2

QUADRATIC_CLASSES = ("hermitian", "star-odd", "star-even")


@dataclass(frozen=True)
class QuadraticSpec:
    """Eigenvalue reassignment for lambda^2 M + K, one entry per +/- pair."""

    klass: str
    lam_change: tuple
    lam_target: tuple

    def __post_init__(self):
        if self.klass not in QUADRATIC_CLASSES:
            raise ValueError(f"unknown quadratic class {self.klass!r}")
        if len(self.lam_change) != len(self.lam_target):
            raise DimensionMismatch("need one target per change eigenvalue")
        object.__setattr__(self, "lam_change", tuple(complex(v) for v in self.lam_change))
        object.__setattr__(self, "lam_target", tuple(complex(v) for v in self.lam_target))


def _check_membership(lam: complex, klass: str, role: str):
    sq = lam * lam
    scale = 1.0 + abs(lam) ** 2
    if klass == "hermitian":
        if abs(sq.imag) > E_MEMBERSHIP_TOL * scale:
            raise EigenvalueOutsideClass(
                f"{role} {lam} has nonreal square; not admissible for hermitian"
            )
    else:
        if abs(sq.real) > E_MEMBERSHIP_TOL * scale:
            raise EigenvalueOutsideClass(
                f"{role} {lam} has square off the imaginary axis"
            )
        if klass == "star-even" and abs(lam) <= E_MEMBERSHIP_TOL:
            raise EigenvalueOutsideClass(f"{role} must be nonzero for star-even")


def lift_quadratic(spec: QuadraticSpec):
    """Lifted diagonal (Lc, La) in mu = lambda^2 plus the target tag.

    Validates class membership of every change/target eigenvalue.
    """
    for lam in spec.lam_change:
        _check_membership(lam, spec.klass, "change eigenvalue")
    for lam in spec.lam_target:
        _check_membership(lam, spec.klass, "target eigenvalue")
    lam_c = np.array([v * v for v in spec.lam_change], dtype=np.complex128)
    lam_a = np.array([v * v for v in spec.lam_target], dtype=np.complex128)
    tag = {"hermitian": HERMITIAN, "star-odd": STAR_ODD, "star-even": STAR_EVEN}[
        spec.klass
    ]
    return lam_c, lam_a, tag


def solve_quadratic(
    m, k, spec: QuadraticSpec, z1=None, z2=None, mhat=None,
    strategy: str | None = None, slack: float = 0.0,
):
    """Full quadratic pipeline: lift, find eigendata, dispatch, update.

    Computes the spectrum of the lifted pencil mu*M + K, matches the lifted
    change values against it, and applies the class update with the exact
    computed eigendata. ``strategy='psd-minimal'`` (hermitian class only)
    derives (Z1, Z2) from the PSD selection rule instead of explicit
    parameters. Returns (UpdateResult, info) where info carries the
    computed change/fixed pairs for certification.
    """
    lam_c_wanted, lam_a, tag = lift_quadratic(spec)
    pencil = StructuredPencil(m, k, tag)
    change, fixed = select_eigendata(pencil, lam_c_wanted)
    lam_c = np.array([e.value for e in change], dtype=np.complex128)
    xc = np.hstack([e.vector.reshape(-1, 1) for e in change])
    if strategy is not None:
        if strategy != "psd-minimal":
            raise ValueError(f"unknown strategy {strategy!r}")
        if spec.klass != "hermitian":
            raise EigenvalueOutsideClass(
                "the PSD selection rule applies to the hermitian K > 0 class"
            )
        params = select_psd_params(lam_c.real, lam_a.real, slack=slack)
        z1, z2, mhat = params.z1, params.z2, None
    update = {
        "hermitian": hermitian_update,
        "star-odd": star_odd_update,
        "star-even": star_even_update,
    }[spec.klass]
    result = update(pencil, xc, lam_c, lam_a, mhat=mhat, z1=z1, z2=z2)
    info = {
        "pencil": pencil,
        "lam_c": lam_c,
        "lam_a": lam_a,
        "change": change,
        "fixed": fixed,
    }
    return result, info


def select_eigendata(pencil: StructuredPencil, wanted, tol: float = 1e-3):
    """Split the computed spectrum into matched change pairs and the rest.

    Each wanted value is matched to the nearest computed finite eigenvalue
    (injectively, within a relative tolerance that accommodates truncated
    published values). Returns (change list, fixed list) of eigenpairs.
    The pencil is of one of the three definite classes, and its eigenpairs
    come from the Hermitian-definite solver (``definite_eig``).
    """
    eigs = [e for e in definite_eig(pencil) if e.finite]
    wanted = np.atleast_1d(np.asarray(wanted, dtype=np.complex128))
    available = list(range(len(eigs)))
    change = []
    for w in wanted:
        best, best_d = None, np.inf
        for idx in available:
            d = abs(eigs[idx].value - w) / (1.0 + abs(w))
            if d < best_d:
                best, best_d = idx, d
        if best is None or best_d > tol:
            raise NotEigenpair(
                f"no computed eigenvalue matches {w} within relative {tol}"
            )
        available.remove(best)
        change.append(eigs[best])
    fixed = [eigs[i] for i in available]
    return change, fixed


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^*)/2, real when its imaginary part is exactly zero.

    ``eigh`` reads one triangle only; averaging lets both count, as they do
    in the QZ, for data that is Hermitian only to within TAU_STRUCT.
    """
    h = (a + a.conj().T) / 2.0
    return h.real if not h.imag.any() else h


def definite_eig(pencil: StructuredPencil) -> list[PencilEigenpair]:
    """All eigenpairs of a hermitian (M > 0), star-odd (M > 0) or star-even
    (K > 0) pencil from one Hermitian-definite eigensolve ``A v = w B v``.

    hermitian: (K, M), lambda = -w; star-odd: (-iK, M), lambda = -iw;
    star-even: (iM, K), lambda = -i/w, infinite where |w| is at most
    ``QZ_INFINITE_TOL`` of max |w|. Vectors are unit-norm and phase-fixed as
    in ``eig_pencil``, and exactly real when A and B are real. Raises
    NotPositiveDefinite, worded as by the class updates, when the Cholesky
    factorization of B fails because B is not positive definite.
    """
    import scipy.linalg

    m, k = pencil.m, pencil.k
    if pencil.tag == HERMITIAN:
        a, b, name = k, m, "M"
    elif pencil.tag == STAR_ODD:
        a, b, name = -1j * k, m, "M"
    elif pencil.tag == STAR_EVEN:
        a, b, name = 1j * m, k, "K"
    else:
        raise ValueError(f"no definite solver for structure {pencil.tag}")
    b = _hermitian_part(b)
    try:
        w, v = scipy.linalg.eigh(_hermitian_part(a), b)
    except np.linalg.LinAlgError:
        _require_positive_definite(b, name)
        raise
    if pencil.tag == HERMITIAN:
        values = [complex(-x) for x in w]
    elif pencil.tag == STAR_ODD:
        values = [complex(0.0, -x) for x in w]
    else:
        wmax = np.abs(w).max(initial=0.0)
        values = [
            None if abs(x) <= QZ_INFINITE_TOL * wmax else complex(0.0, -1.0 / x)
            for x in w
        ]
    return unit_eigenpairs(values, v.astype(np.complex128))


def fixed_pair_from_eigs(fixed, normalize_with=None, pencil=None) -> DeflatingPair:
    """Assemble (X_f, Lambda_f) from leftover eigenpairs (diagonal Lambda)."""
    xf = np.hstack([e.vector.reshape(-1, 1) for e in fixed])
    lf = np.diag([e.value for e in fixed]).astype(np.complex128)
    if normalize_with is not None and pencil is not None:
        xf = normalize_columns(pencil, xf, normalize_with)
    return DeflatingPair(xf, lf)
