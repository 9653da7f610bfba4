"""Structure-preserving no-spillover updates.

The central construction: for a structured pencil with change pair
(X_c, Lc), nonsingular Gramian G = X_c^star M X_c and the spectral
condition sigma(Lc) disjoint from sigma(eps1*eps2*Lf^star), any core pair
(Mh, Kh) with

    Mh La + Kh = G (Lc - La)

yields dM = U Mh U^star, dK = U Kh U^star with U = M X_c G^{-1}, and the
fixed pair survives untouched. The update is structure preserving exactly
when lambda*Mh + Kh carries the same (star, eps1, eps2)-structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MissingStar, SingularG
from .linalg import (
    TAU_STRUCT,
    as_matrix,
    fnorm,
    gramian_scale,
    require_square,
    scaled_rcond,
    star_residual,
)
from .pencil import STAR_CONJ, StructuredPencil, StructureTag, star
from .unstructured import UpdateResult, core_family

# G is treated as singular below this reciprocal condition number; we error
# rather than regularize, since regularization silently breaks exactness.
G_RCOND_CUTOFF = 1e-12


@dataclass(frozen=True)
class CoreSolution:
    """Small p x p pair (Mh, Kh) solving Mh La + Kh = G (Lc - La)."""

    mhat: np.ndarray
    khat: np.ndarray

    def __post_init__(self):
        mh = require_square(as_matrix(self.mhat, "Mhat"), "Mhat")
        kh = require_square(as_matrix(self.khat, "Khat"), "Khat")
        if mh.shape != kh.shape:
            raise DimensionMismatch("Mhat and Khat must have equal shapes")
        object.__setattr__(self, "mhat", mh)
        object.__setattr__(self, "khat", kh)

    def equation_residual(self, g, lam_c, lam_a) -> float:
        """||Mh La + Kh - G (Lc - La)||_F."""
        return fnorm(self.mhat @ lam_a + self.khat - g @ (lam_c - lam_a))


def change_gramian(pencil: StructuredPencil, xc):
    """(G, rcond) with G = X_c^star M X_c under the pencil's adjoint.

    The reciprocal condition estimate is floored at the outer scale
    ||M|| sigma_max(X_c)^2, so a fully collapsed Gramian (isotropic X_c)
    reports rcond 0 rather than a vacuous sigma ratio.
    """
    if pencil.tag is None:
        raise MissingStar("the structured path needs a structure tag")
    xc = as_matrix(xc, "X_c")
    if xc.shape[0] != pencil.n:
        raise DimensionMismatch("X_c rows must equal the pencil size")
    g = star(xc, pencil.star) @ pencil.m @ xc
    return g, scaled_rcond(g, gramian_scale(pencil.m, xc))


def build_update_basis(pencil: StructuredPencil, xc, g, rcond) -> np.ndarray:
    """U = M X_c G^{-1}, with X_c^star U = I_p: the range that carries the
    whole update. ``g`` and ``rcond`` are what ``change_gramian`` returned."""
    if rcond <= G_RCOND_CUTOFF:
        raise SingularG(f"X_c^star M X_c is singular (rcond={rcond:.2e})")
    return np.linalg.solve(g.T, (pencil.m @ xc).T).T


def complete_core(g, lam_c, lam_a, mhat) -> CoreSolution:
    """The unique Kh for a given Mh: Kh = G (Lc - La) - Mh La."""
    g = as_matrix(g, "G")
    lam_c = as_matrix(lam_c, "Lambda_c")
    lam_a = as_matrix(lam_a, "Lambda_a")
    mhat = as_matrix(mhat, "Mhat")
    if not (g.shape == lam_c.shape == lam_a.shape == mhat.shape):
        raise DimensionMismatch("G, Lc, La, Mhat must all be p x p")
    return CoreSolution(mhat, g @ (lam_c - lam_a) - mhat @ lam_a)


def parametrized_core(g, lam_c, lam_a, z1, z2) -> CoreSolution:
    """All core solutions, parametrized by free p x p matrices (Z1, Z2).

    Structured cores are obtained by imposing structure on Z1, Z2 (see the
    per-class helpers in ``special``).
    """
    g = as_matrix(g, "G")
    lam_c = as_matrix(lam_c, "Lambda_c")
    lam_a = as_matrix(lam_a, "Lambda_a")
    z1 = as_matrix(z1, "Z1")
    z2 = as_matrix(z2, "Z2")
    if not (g.shape == lam_c.shape == lam_a.shape == z1.shape == z2.shape):
        raise DimensionMismatch("G, Lc, La, Z1, Z2 must all be p x p")
    mh, kh = core_family(g @ (lam_c - lam_a), lam_a, z1, z2)
    return CoreSolution(mh, kh)


def core_structure_flags(
    core: CoreSolution, g, lam_a, tag: StructureTag, tol: float = TAU_STRUCT
):
    """Structure check of lambda*Mh + Kh, plus the equivalent criterion.

    Returns a dict with both verdicts; they agree in exact arithmetic, so a
    disagreement is surfaced as a diagnostic rather than resolved silently.
    """
    mh, kh = core.mhat, core.khat
    conjugate = tag.star == STAR_CONJ

    def _sym(a, eps):
        return star_residual(a, conjugate, eps) <= tol * max(fnorm(a), 1e-300)

    direct = _sym(mh, tag.eps1) and _sym(kh, tag.eps2)
    alt = _sym(mh, tag.eps1) and _sym((mh + g) @ lam_a, tag.eps2)
    return {
        "core_structured": direct,
        "core_structured_alt_criterion": alt,
        "criteria_agree": direct == alt,
    }


def structured_update(
    pencil: StructuredPencil, xc, lam_c, lam_a, core: CoreSolution
) -> UpdateResult:
    """dM = U Mh U^star, dK = U Kh U^star (eigenvalues move, X_c stays).

    The spectral no-spillover condition involves the unknown fixed spectrum
    and cannot be verified here; the result records it as an assumption.
    Structure preservation of the updated pencil is checked via the core
    and reported in the provenance. The result is the factors
    (U, Mh, Kh, U^star) of both products.
    """
    xc = as_matrix(xc, "X_c")
    lam_c = as_matrix(lam_c, "Lambda_c")
    lam_a = as_matrix(lam_a, "Lambda_a")
    g, g_rcond = change_gramian(pencil, xc)
    u = build_update_basis(pencil, xc, g, g_rcond)
    flags = core_structure_flags(core, g, lam_a, pencil.tag)
    return UpdateResult(
        factors=(u, core.mhat, core.khat, star(u, pencil.star)),
        provenance={
            "method": "structured",
            "g": g,
            "g_rcond": g_rcond,
            "core_residual": core.equation_residual(g, lam_c, lam_a),
            "assumed_spectral_condition": True,
            **flags,
        },
    )


def scaled_gramian_core(g, lam_c, lam_a, t: float) -> CoreSolution:
    """The one-parameter subclass Mh = t G, Kh = G (Lc - (1+t) La).

    Preserves structure whenever G La is eps2-symmetric under the tag.
    """
    g = as_matrix(g, "G")
    lam_c = as_matrix(lam_c, "Lambda_c")
    lam_a = as_matrix(lam_a, "Lambda_a")
    return CoreSolution(t * g, g @ (lam_c - (1.0 + t) * lam_a))
