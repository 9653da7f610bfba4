"""Update recipes for the definite structured pencils.

Covered classes: Hermitian with M > 0, star-odd with M > 0, star-even with
K > 0, their real T-counterparts (built on realified conjugate pairs), a
PSD parameter selection rule, and the quadratic lift mu = lambda^2 for
undamped second-order models.

Every recipe is one ``_class_update``: on a change basis normalized in the
class's positive definite W, it takes its core from ``core_from_parameters``
and hands it to ``structured_update``. The entry points renormalize
internally, so any eigenvector scaling may be passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadBlockShape,
    BadParameters,
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
    EIG_MATCH_TOL, QZ_INFINITE_TOL, TAU_DEFL, TAU_NUM, TAU_STRUCT,
    J2,
    PencilEigenpair,
    as_matrix,
    block_diag,
    check_hermitian,
    eigh_definite,
    fnorm,
    nearest_eigenvalues,
    realified_pairs,
    unit_eigenpairs,
)
from .pencil import (
    HERMITIAN,
    STAR_EVEN,
    STAR_ODD,
    TAG_BY_NAME,
    DeflatingPair,
    StructuredPencil,
    normalize_columns,
)
from .structured import ONE_CORE_SOURCE, core_from_parameters, structured_update
from .unstructured import UpdateProblem, UpdateResult


def _diag_vec(v, name: str, err=NotRealDiagonal) -> np.ndarray:
    """Accept a 1-d sequence or a square diagonal matrix; return 1-d."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim == 2:
        scale = 1.0 + float(np.abs(np.diag(arr)).max(initial=0.0))
        off = arr - np.diag(np.diag(arr))
        if np.abs(off).max(initial=0.0) > TAU_STRUCT * scale:
            raise err(f"{name} must be diagonal")
        arr = np.diag(arr)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be a vector or diagonal matrix")
    return arr


def _real_diag(v, name: str) -> np.ndarray:
    """The diagonal of ``v``, which must have real entries."""
    d = _diag_vec(v, name)
    scale = 1.0 + float(np.abs(d).max(initial=0.0))
    if np.abs(d.imag).max(initial=0.0) > TAU_STRUCT * scale:
        raise NotRealDiagonal(f"{name} must have real entries")
    return d


def _imaginary_diag(v, name: str) -> np.ndarray:
    """The diagonal of ``v``, which must have purely imaginary entries."""
    d = _diag_vec(v, name, NotImaginaryDiagonal)
    scale = 1.0 + float(np.abs(d).max(initial=0.0))
    if np.abs(d.real).max(initial=0.0) > TAU_STRUCT * scale:
        raise NotImaginaryDiagonal(f"{name} must have purely imaginary entries")
    return d


def _require_nonzero(lc: np.ndarray):
    if np.any(np.abs(lc) <= TAU_NUM * (1.0 + np.abs(lc).max(initial=0.0))):
        raise ZeroChangeEigenvalue("change eigenvalues must be nonzero")


def _require_positive_definite(w: np.ndarray, name: str):
    """Raise NotPositiveDefinite unless lambda_min(H) > TAU_NUM * lambda_max(H)
    for H = (W + W^*)/2, after the Hermitian check of ``check_hermitian``.

    A Cholesky factor accepts without any eigenvalue. It reads the lower
    triangle of W, which is the Hermitian H_L with ||H_L - H||_2 <=
    ||W - W^*||_F, and its diagonal is shifted down in place by
    s = 2 TAU_NUM ||W||_F + ||W - W^*||_F. Its backward error is O(n eps)
    ||W||_2, so by Weyl's bound its success gives lambda_min(H) >
    (2 TAU_NUM - O(n eps)) ||W||_F > TAU_NUM lambda_max(H) while
    n eps << TAU_NUM (n eps is 5.7e-14 at n = 512). When it fails,
    ``eigvalsh`` of H decides, and its min eigenvalue words the error.
    """
    w, nw, asym = check_hermitian(w)
    b = np.array(w.real if not w.imag.any() else w)
    b.flat[:: b.shape[0] + 1] -= 2.0 * TAU_NUM * nw + asym
    try:
        np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        evals = np.linalg.eigvalsh((w + w.conj().T) / 2.0)
        if evals[0] <= TAU_NUM * max(evals[-1], 1e-300):
            raise NotPositiveDefinite(
                f"{name} must be positive definite (min eigenvalue {evals[0]:.3e})"
            ) from None


# ---------------------------------------------------------------------------
# one recipe for the definite and real-pair classes

# class: (method, W). W is checked positive definite, and the change basis
# is normalized to X^* W X = I, so that G = X^* M X is I for W = M and
# -Lc^{-1} for W = K (K X = -M X Lc). The class's tag sets the rest: Lc and
# La, Z1 and Mh, and Z2 follow eps1 eps2, eps1 and eps2, as real (eps = 1)
# or imaginary (eps = -1) diagonals, or as I2 or J2 blocks (``_EPS_DIAG``,
# ``_EPS_BLOCK``).
_RECIPES = {
    "hermitian": ("hermitian-definite", "M"),
    "star-odd": ("star-odd-definite", "M"),
    "star-even": ("star-even-definite", "K"),
    "t-odd": ("t-odd-real", "M"),
    "t-even": ("t-even-real", "K"),
}
_EPS_DIAG = {1: _real_diag, -1: _imaginary_diag}
_EPS_BLOCK = {1: np.eye(2), -1: J2}


def _class_update(
    klass: str, pencil: StructuredPencil, xc, lam_c, lam_a, z1, z2, mhat, real: bool,
    provenance: dict,
) -> UpdateResult:
    """``structured_update`` of the pencil under the class's tag, on the
    W-normalized change basis ``xc`` with p x p Lc and La.

    The core is ``core_from_parameters(G, Lc, La, mhat, z1, z2)``. ``real``
    keeps the real parts of the factors, and ``provenance`` is added to the
    result's.
    """
    method, weight = _RECIPES[klass]
    if pencil.tag != TAG_BY_NAME[klass]:  # the kernel takes the class's adjoint
        pencil = StructuredPencil(pencil.m, pencil.k, TAG_BY_NAME[klass])
    _require_positive_definite(pencil.m if weight == "M" else pencil.k, weight)
    if weight == "M":
        g = np.eye(lam_c.shape[0])
    else:
        _require_nonzero(np.linalg.eigvals(lam_c))
        g = -np.linalg.inv(lam_c)
    core = core_from_parameters(g, lam_c, lam_a, mhat, z1, z2)
    result = structured_update(pencil, xc, lam_c, lam_a, core)
    if real:
        result.take_real()
    result.provenance.update(provenance, method=method)
    return result


# ---------------------------------------------------------------------------
# definite classes: diagonal cores on W-normalized eigenvectors

def hermitian_core(lam_c, lam_a, z1, z2):
    """Diagonal core (Mh, Kh) for the Hermitian M > 0 family (G = I).

    Mh = Ha[(Lc - La) La + Z1 - Z2 La],  Kh = Ha[(Lc - La) - Z1 La + Z2 La^2]
    with Ha = (La^2 + I)^{-1}; Z1, Z2 real diagonal. This is the closed form
    of ``parametrized_core`` on that data, the paper's formula.
    """
    lc, la = _real_diag(lam_c, "Lambda_c"), _real_diag(lam_a, "Lambda_a")
    z1, z2 = _real_diag(z1, "Z1"), _real_diag(z2, "Z2")
    ha = 1.0 / (la**2 + 1.0)
    mh = ha * ((lc - la) * la + z1 - z2 * la)
    kh = ha * ((lc - la) - z1 * la + z2 * la**2)
    return mh, kh


def commuting_family_params(lam_c, lam_a, phi):
    """(Z1, Z2) recovering the prior positive-definite updating family.

    Z1 = Ha^{-1}(Phi - I), Z2 = Lc - La, with Phi > 0 diagonal (the
    commuting-parameter matrix) and the scaling parameter fixed at 1.
    """
    lc, la = _real_diag(lam_c, "Lambda_c"), _real_diag(lam_a, "Lambda_a")
    phi = _real_diag(phi, "Phi")
    if np.any(phi.real <= 0):
        raise NotPositiveDefinite("Phi must have positive diagonal entries")
    z1 = (la**2 + 1.0) * (phi - 1.0)
    z2 = lc - la
    return z1, z2


def select_psd_params(lam_c, lam_a, slack: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (z1, z2) of (Z1, Z2) making both dM and dK positive
    semidefinite.

    Valid in the K > 0 regime where every target eigenvalue is negative:
    choose z1_i - z2_i*la_i = max{(la_i - lc_i) la_i, lc_i/la_i - 1, 0} + slack
    with z2_i = 0.
    """
    lc = _real_diag(lam_c, "Lambda_c").real
    la = _real_diag(lam_a, "Lambda_a").real
    if slack < 0:
        raise BadParameters("slack must be nonnegative")
    if np.any(la >= 0):
        raise PositiveTargetEigenvalue("all target eigenvalues must be negative")
    bound = np.maximum((la - lc) * la, lc / la - 1.0)
    z1 = np.maximum(bound, 0.0) + slack
    return z1, np.zeros_like(z1)


def _definite_update(
    klass: str, pencil: StructuredPencil, xc, lam_c, lam_a, mhat, z1, z2
) -> UpdateResult:
    """``_class_update`` on the W-normalized X_c, with diagonal Lc, La and
    diagonal Z1, Z2 (an omitted one zero), or a given diagonal Mh. With
    none of them, Z1 = Z2 = 0."""
    tag = TAG_BY_NAME[klass]
    on_lam, on_z1, on_z2 = (_EPS_DIAG[e] for e in (tag.eps1 * tag.eps2, tag.eps1, tag.eps2))
    lc, la = on_lam(lam_c, "Lambda_c"), on_lam(lam_a, "Lambda_a")
    if mhat is None and z1 is None and z2 is None:
        z1 = z2 = np.zeros(lc.shape)
    mhat, z1, z2 = (
        None if v is None else np.diag(check(v, name))
        for v, check, name in ((mhat, on_z1, "Mhat"), (z1, on_z1, "Z1"), (z2, on_z2, "Z2"))
    )
    xn = normalize_columns(pencil, xc, _RECIPES[klass][1])
    real = klass == "hermitian" and not (
        pencil.m.imag.any()
        or pencil.k.imag.any()
        or np.asarray(xc, dtype=complex).imag.any()
    )
    return _class_update(
        klass, pencil, xn, np.diag(lc), np.diag(la), z1, z2, mhat, real,
        {"xc_normalized": xn, "lam_c": lc, "lam_a": la},
    )


def hermitian_update(
    pencil: StructuredPencil, xc, lam_c, lam_a, mhat=None, z1=None, z2=None
) -> UpdateResult:
    """Hermitian update dM = M Xc Mh Xc^* M, dK = M Xc (Lc-La-Mh La) Xc^* M.

    Requires M > 0 and real diagonal Lc, La. The core Mh is either given
    directly (real diagonal) or built from (Z1, Z2), not both
    (BadParameters). With no parameters, Z1 = Z2 = 0, which is not the
    dM = 0 branch (mhat = 0 is). Columns of Xc are renormalized so that
    Xc^* M Xc = I. Real inputs produce real perturbations.
    """
    return _definite_update("hermitian", pencil, xc, lam_c, lam_a, mhat, z1, z2)


def star_odd_update(
    pencil: StructuredPencil, xc, lam_c, lam_a, mhat=None, z1=None, z2=None
) -> UpdateResult:
    """star-odd update: dM Hermitian, dK skew-Hermitian.

    Requires M > 0 and purely imaginary diagonal Lc, La; Z1 (or Mh) is real
    and Z2 imaginary diagonal, with no parameters Z1 = Z2 = 0. dM is PSD
    exactly when the bracket (La - Lc) La + Z1 + Z2 La is nonnegative.
    """
    return _definite_update("star-odd", pencil, xc, lam_c, lam_a, mhat, z1, z2)


def star_even_update(
    pencil: StructuredPencil, xc, lam_c, lam_a, mhat=None, z1=None, z2=None
) -> UpdateResult:
    """star-even update: dM skew-Hermitian, dK Hermitian.

    Requires K > 0 and nonzero purely imaginary Lc; Z1 (or Mh) is imaginary
    and Z2 real diagonal, with no parameters Z1 = Z2 = 0. Uses the
    K-normalized vectors, under which the update range is K Xc. Shortcuts:
    Mh = 0 gives dM = 0; Mh = Lc^{-1} - La^{-1} gives dK = 0.
    """
    return _definite_update("star-even", pencil, xc, lam_c, lam_a, mhat, z1, z2)


# ---------------------------------------------------------------------------
# real T-odd / T-even pencils: conjugate pairs, realified 2x2 blocks

def _as_real_pencil(pencil: StructuredPencil) -> tuple[np.ndarray, np.ndarray]:
    """(M, K) as contiguous real arrays, for a pencil with no imaginary part."""
    scale = max(fnorm(pencil.m), fnorm(pencil.k), 1e-300)
    if max(np.abs(pencil.m.imag).max(), np.abs(pencil.k.imag).max()) > TAU_STRUCT * scale:
        raise ComplexInput("this path needs a real pencil")
    return np.ascontiguousarray(pencil.m.real), np.ascontiguousarray(pencil.k.real)


def _imag_part(lam: complex, name: str) -> float:
    lam = complex(lam)
    if abs(lam.real) > TAU_STRUCT * (1.0 + abs(lam)):
        raise BadBlockShape(f"{name} must be purely imaginary, got {lam}")
    return lam.imag


def _check_real_eigenpairs(m, k, eigenpairs):
    """Raise NotEigenpair unless ||M x lam + K x|| <= TAU_DEFL (|lam| ||M||_F
    + ||K||_F) ||x|| for every pair. The real M and K act on [re x, im x],
    so neither is cast to complex, and their norms are taken once."""
    nm, nk = fnorm(m), fnorm(k)
    for lam, x in eigenpairs:
        lam, x = complex(lam), as_matrix(x, "eigenvector")
        h, parts = x.shape[1], np.hstack([x.real, x.imag])
        mx, kx = m @ parts, k @ parts
        res = fnorm((mx[:, :h] + 1j * mx[:, h:]) * lam + kx[:, :h] + 1j * kx[:, h:])
        scale = (abs(lam) * nm + nk) * float(np.linalg.norm(x))
        if res > TAU_DEFL * max(scale, 1e-300):
            raise NotEigenpair(f"({lam}) fails the eigenpair residual test")


def _real_pair_update(
    klass: str, pencil: StructuredPencil, eigenpairs, lam_target, alpha, beta
) -> UpdateResult:
    """``_class_update`` on the realified pairs of ``realified_pairs``:
    [re x, im x] per pair, scaled so that X^T W X = I_{2p}, blocks mu_j J2 in
    Lc and La, and alpha_j, beta_j times the class's 2x2 blocks in Z1, Z2."""
    tag = TAG_BY_NAME[klass]
    m, k = _as_real_pencil(pencil)
    _check_real_eigenpairs(m, k, eigenpairs)
    p = len(eigenpairs)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if len(lam_target) != p or alpha.shape != (p,) or beta.shape != (p,):
        raise DimensionMismatch("need one target, alpha and beta per pair")
    mus = [_imag_part(lam, "change eigenvalue") for lam, _ in eigenpairs]
    if 0.0 in mus:
        raise BadBlockShape("change eigenvalues must be nonreal")
    xhat, lam_c = realified_pairs([1j * mu for mu in mus], [x for _, x in eigenpairs])
    w = m if _RECIPES[klass][1] == "M" else k
    for j in range(0, 2 * p, 2):
        # x^* W x of the real W is re(x)^T W re(x) + im(x)^T W im(x)
        s = float(np.vdot(xhat[:, j:j + 2], w @ xhat[:, j:j + 2]))
        if s <= 0:
            raise NotPositiveDefinite("eigenvector has nonpositive W-norm")
        xhat[:, j:j + 2] *= np.sqrt(2.0 / s)
    _, lam_a = realified_pairs([1j * _imag_part(t, "target eigenvalue") for t in lam_target])
    z1 = block_diag(*[a * _EPS_BLOCK[tag.eps1] for a in alpha])
    z2 = block_diag(*[b * _EPS_BLOCK[tag.eps2] for b in beta])
    return _class_update(
        klass, pencil, xhat, lam_c, lam_a, z1, z2, None, True,
        {"xc_realified": xhat, "lam_c": lam_c, "lam_a": lam_a},
    )


def t_odd_real_update(
    pencil: StructuredPencil, eigenpairs, lam_target, alpha, beta
) -> UpdateResult:
    """Real T-odd update built on realified conjugate eigenpairs.

    ``eigenpairs`` holds one (lambda, x) per conjugate pair (lambda = i*mu,
    mu != 0); ``lam_target`` the aimed purely imaginary values. Z1 has
    blocks alpha_j*I2 and Z2 blocks beta_j*J2, giving real symmetric dM and
    skew-symmetric dK.
    """
    return _real_pair_update("t-odd", pencil, eigenpairs, lam_target, alpha, beta)


def t_even_real_update(
    pencil: StructuredPencil, eigenpairs, lam_target, alpha, beta
) -> UpdateResult:
    """Real T-even update (K > 0) on realified conjugate eigenpairs.

    Z1 has blocks alpha_j*J2 and Z2 blocks beta_j*I2; dM comes out real
    skew-symmetric and dK symmetric. Change eigenvalues must be nonzero.
    """
    return _real_pair_update("t-even", pencil, eigenpairs, lam_target, alpha, beta)


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
    # lambda^2 purely imaginary <=> lambda in {±sqrt(a/2)(1+i), ±sqrt(a/2)(1-i)}
    sq = lam * lam
    scale = 1.0 + abs(lam) ** 2
    if klass == "hermitian":
        if abs(sq.imag) > EIG_MATCH_TOL * scale:
            raise EigenvalueOutsideClass(
                f"{role} {lam} has nonreal square; not admissible for hermitian"
            )
    else:
        if abs(sq.real) > EIG_MATCH_TOL * scale:
            raise EigenvalueOutsideClass(
                f"{role} {lam} has square off the imaginary axis"
            )
        if klass == "star-even" and abs(lam) <= EIG_MATCH_TOL:
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
    return lam_c, lam_a, TAG_BY_NAME[spec.klass]


def solve_quadratic(
    m, k, spec: QuadraticSpec, z1=None, z2=None, mhat=None,
    strategy: str | None = None, slack: float | None = None,
):
    """Full quadratic pipeline: lift, find eigendata, dispatch, update.

    Computes the spectrum of the lifted pencil mu*M + K, matches the lifted
    change values against it, and applies the class update with the exact
    computed eigendata. ``strategy='psd-minimal'`` (hermitian class only)
    derives (Z1, Z2) from the PSD selection rule instead of explicit
    parameters. The core comes from one of ``mhat``, ``z1``/``z2`` and
    ``strategy``; more than one raises BadParameters, and so does an unknown
    ``strategy`` or a ``slack`` without one. With none, Z1 = Z2 = 0, as in
    the recipes. Returns (UpdateResult, info) where info carries the lifted
    ``pencil`` and ``problem``, the ``UpdateProblem`` solved (normalized
    change pair, lifted targets, fixed pair), and ``psd``, the matrices the
    strategy makes positive semidefinite, for certification.
    """
    if strategy is not None and (z1 is not None or z2 is not None):
        raise BadParameters(ONE_CORE_SOURCE)
    if slack is not None and strategy is None:
        raise BadParameters("slack is read only with a strategy")
    lam_c_wanted, lam_a, tag = lift_quadratic(spec)
    pencil = StructuredPencil(m, k, tag)
    change, fixed = select_eigendata(pencil, lam_c_wanted)
    lam_c = np.array([e.value for e in change], dtype=np.complex128)
    xc = np.hstack([e.vector.reshape(-1, 1) for e in change])
    if strategy is not None:
        if strategy != "psd-minimal":
            raise BadParameters(f"unknown strategy {strategy!r}")
        if spec.klass != "hermitian":
            raise EigenvalueOutsideClass(
                "the PSD selection rule applies to the hermitian K > 0 class"
            )
        z1, z2 = select_psd_params(lam_c.real, lam_a.real, slack=slack or 0.0)
    result = _definite_update(spec.klass, pencil, xc, lam_c, lam_a, mhat, z1, z2)
    problem = UpdateProblem(
        DeflatingPair(result.provenance["xc_normalized"], np.diag(lam_c)),
        np.diag(lam_a),
        fixed=fixed_pair_from_eigs(fixed),
    )
    psd = ("delta_m", "delta_k") if strategy is not None else ()
    return result, {"pencil": pencil, "problem": problem, "psd": psd}


def select_eigendata(pencil: StructuredPencil, wanted):
    """Split the computed spectrum into matched change pairs and the rest.

    Each wanted value is matched to the nearest computed finite eigenvalue
    by ``nearest_eigenvalues``. Returns (change list, fixed list) of
    eigenpairs. The pencil is of one of the three definite classes, and its eigenpairs
    come from the Hermitian-definite solver (``definite_eig``).
    """
    eigs = [e for e in definite_eig(pencil) if e.finite]
    change, fixed = nearest_eigenvalues(eigs, wanted)
    return [eigs[i] for i in change], [eigs[i] for i in fixed]


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^*)/2, real when its imaginary part is exactly zero.

    The Cholesky factorization of B reads one triangle only; averaging lets
    both count, as they do in the QZ, for data that is Hermitian only to
    within TAU_STRUCT.
    """
    h = (a + a.conj().T) / 2.0
    return h.real if not h.imag.any() else h


DEFINITE_TAGS = (HERMITIAN, STAR_ODD, STAR_EVEN)


def _definite_pair(pencil: StructuredPencil):
    """(A, B, name of B): the pencil as the Hermitian-definite pair
    ``A v = w B v``, with A and B taken as their Hermitian parts.

    hermitian: (K, M); star-odd: (-iK, M); star-even: (iM, K). The pencil's
    eigenvalues are ``_definite_values`` of the w.
    """
    m, k = pencil.m, pencil.k
    if pencil.tag == HERMITIAN:
        a, b, name = k, m, "M"
    elif pencil.tag == STAR_ODD:
        a, b, name = -1j * k, m, "M"
    elif pencil.tag == STAR_EVEN:
        a, b, name = 1j * m, k, "K"
    else:
        raise ValueError(f"no definite solver for structure {pencil.tag}")
    return _hermitian_part(a), _hermitian_part(b), name


def _definite_values(tag, w) -> list[complex | None]:
    """lambda of each w of ``_definite_pair``: -w (hermitian), -iw
    (star-odd), -i/w (star-even), infinite (None) where |w| is at most
    ``QZ_INFINITE_TOL`` of max |w|."""
    if tag == HERMITIAN:
        return [complex(-x) for x in w]
    if tag == STAR_ODD:
        return [complex(0.0, -x) for x in w]
    wmax = np.abs(w).max(initial=0.0)
    return [None if abs(x) <= QZ_INFINITE_TOL * wmax else complex(0.0, -1.0 / x) for x in w]


def definite_eigvals(pencil: StructuredPencil) -> list[complex | None]:
    """The eigenvalues of ``definite_eig`` without eigenvectors.

    Raises ``np.linalg.LinAlgError`` when B (M, or K for star-even) has no
    Cholesky factor, so that a caller can fall back to the QZ.
    """
    a, b, _ = _definite_pair(pencil)
    return _definite_values(pencil.tag, eigh_definite(a, b, vectors=False))


def definite_eig(pencil: StructuredPencil) -> list[PencilEigenpair]:
    """All eigenpairs of a hermitian (M > 0), star-odd (M > 0) or star-even
    (K > 0) pencil from one Hermitian-definite eigensolve ``A v = w B v``
    (``_definite_pair``, ``eigh_definite``).

    Vectors are unit-norm and phase-fixed as in ``eig_pencil``, and exactly
    real when A and B are real. Raises NotPositiveDefinite, worded as by
    the class updates, when the Cholesky factorization of B fails because B
    is not positive definite.
    """
    a, b, name = _definite_pair(pencil)
    try:
        w, v = eigh_definite(a, b)
    except np.linalg.LinAlgError:
        _require_positive_definite(b, name)
        raise
    return unit_eigenpairs(_definite_values(pencil.tag, w), v.astype(np.complex128))


def fixed_pair_from_eigs(eigs) -> DeflatingPair:
    """(X, Lambda) from a list of eigenpairs: vectors as columns, diagonal Lambda."""
    x = np.hstack([e.vector.reshape(-1, 1) for e in eigs])
    return DeflatingPair(x, np.diag([e.value for e in eigs]).astype(np.complex128))
