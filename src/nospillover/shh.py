"""star-skew-Hamiltonian/Hamiltonian (SHH) pencils and their J-twisted
updates.

A 2n x 2n pencil is SHH when (JM)^star = -JM and (JK)^star = JK for the
canonical J = [[0, I], [-I, 0]]; equivalently J L(lambda) is star-even.
The update is the star-even construction conjugated back by J.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadBlockShape, ComplexInput, DimensionMismatch, NotSHH, NotStructured
from .linalg import (
    EIG_MATCH_TOL, REAL_DATA_TOL, T_SHH_PARTNER_FACTOR,
    J2,
    as_matrix,
    block_diag,
    eig_pencil,
    realified_pairs,
    require_square,
)
from .pencil import STAR_CONJ, STAR_TRANS, StructuredPencil, StructureTag, star
from .structured import CoreSolution, change_gramian, structured_update
from .unstructured import UpdateResult


def canonical_j(size: int) -> np.ndarray:
    """J = [[0, I_n], [-I_n, 0]] of order ``size`` (= 2n)."""
    if size % 2:
        raise DimensionMismatch("SHH pencils have even size")
    n = size // 2
    j = np.zeros((size, size))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def apply_j(a: np.ndarray, transpose: bool = False) -> np.ndarray:
    """J A (or J^T A = -J A) by a block swap of the rows of A.

    No product is formed: each row is moved and negated. Both halves are
    written as 0.0 + x and 0.0 - x, so exact zeros come out +0.0, as from a
    dense product with J.
    """
    h = a.shape[0] // 2
    if transpose:
        return np.concatenate([0.0 - a[h:], a[:h] + 0.0])
    return np.concatenate([a[h:] + 0.0, 0.0 - a[:h]])


@dataclass(frozen=True)
class SHHPencil:
    """lambda*M + K with M star-skew-Hamiltonian and K star-Hamiltonian.

    It is checked, and kept, as the star-even pencil J L(lambda) it reduces
    to, which every update and Gramian of the pencil runs on. M and K are
    read as ``StructuredPencil`` reads them: in place when contiguous
    complex128, read-only through the pencil.
    """

    m: np.ndarray
    k: np.ndarray
    star: str = STAR_CONJ
    _even: StructuredPencil = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = require_square(as_matrix(self.m, "M"), "M")
        k = require_square(as_matrix(self.k, "K"), "K")
        if m.shape != k.shape:
            raise DimensionMismatch("M and K must have equal shapes")
        if m.shape[0] % 2:
            raise DimensionMismatch("SHH pencils have even size")
        if self.star not in (STAR_CONJ, STAR_TRANS):
            raise ValueError("star must be '*' or 'T'")
        try:
            even = StructuredPencil(apply_j(m), apply_j(k), StructureTag(self.star, -1, 1))
        except NotStructured as exc:
            raise NotSHH(f"(JM, JK) fails the skew/symmetric test: {exc}") from None
        m.setflags(write=False)
        k.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_even", even)

    @property
    def size(self) -> int:
        return self.m.shape[0]

    @property
    def j(self) -> np.ndarray:
        return canonical_j(self.size)

    def even_pencil(self) -> StructuredPencil:
        """The star-even pencil J L(lambda) this SHH pencil reduces to."""
        return self._even

    def eig(self):
        return eig_pencil(self.m, self.k)


def shh_gramian(shh: SHHPencil, xc):
    """(G, rcond) with G = X_c^star (J M) X_c, the Gramian of J L(lambda)."""
    return change_gramian(shh.even_pencil(), xc)


def shh_update(shh: SHHPencil, xc, lam_c, lam_a, core: CoreSolution) -> UpdateResult:
    """dM = J^star U Mh U^star, dK = J^star U Kh U^star, U = J M X_c G^{-1}.

    This is ``structured_update`` on the star-even pencil J L(lambda), taken
    back by J^star = J^T, which makes the left factor J^T U. The core must
    solve Mh La + Kh = G (Lc - La) with G = X_c^star J M X_c; the result
    stays SHH whenever lambda*Mh + Kh is (star, -1, 1)-structured.
    """
    result = structured_update(shh.even_pencil(), xc, lam_c, lam_a, core)
    u, mhat, khat, us = result.factors
    result.factors = (apply_j(u, transpose=True), mhat, khat, us)
    result.provenance["method"] = "shh"
    return result


# ---------------------------------------------------------------------------
# real T-SHH: quadruples, imaginary pairs, real pairs

def t_shh_lambda(grouping_shape, quad_values, imag_values, real_values) -> np.ndarray:
    """Block-diagonal Lambda for grouped values, built by ``realified_pairs``
    from lam and -conj(lam) per quadruple, i*mu per imaginary pair and lam
    and -lam per real pair. Imaginary and real values are taken on their
    axis, to EIG_MATCH_TOL."""
    m1, m2p, pr = grouping_shape
    if len(quad_values) != m1 or len(imag_values) != m2p or len(real_values) != pr:
        raise DimensionMismatch("value counts do not match the grouping shape")
    values = []
    for v in map(complex, quad_values):
        values += [v, -v.conjugate()]
    for v in map(complex, imag_values):
        if abs(v.real) > EIG_MATCH_TOL * (1 + abs(v)):
            raise BadBlockShape(f"imaginary-pair value {v} must be imaginary")
        values.append(1j * v.imag)
    for v in map(complex, real_values):
        if abs(v.imag) > EIG_MATCH_TOL * (1 + abs(v)):
            raise BadBlockShape(f"real-pair value {v} must be real")
        values += [v.real, -v.real]
    if not values:
        raise DimensionMismatch("empty grouping")
    return realified_pairs(values)[1]


def t_shh_mhat(grouping_shape, quad_alpha, quad_beta, imag_beta, real_beta) -> np.ndarray:
    """Structured Mh: quadruple blocks [[0, aI+bJ], [-aI+bJ, 0]], pair blocks
    b*J2; the Z1 of ``t_shh_z_params``."""
    if len(quad_alpha) != len(quad_beta):
        raise DimensionMismatch("parameter counts do not match the grouping shape")
    z1, _ = t_shh_z_params(
        grouping_shape,
        [(a, b, 0.0, 0.0) for a, b in zip(quad_alpha, quad_beta)],
        [(b, 0.0) for b in imag_beta],
        [(b, 0.0) for b in real_beta],
    )
    return z1


def t_shh_z_params(grouping_shape, quad, imag, real) -> tuple[np.ndarray, np.ndarray]:
    """(Z1, Z2) with the patterned blocks of the parametrized T-SHH family.

    quad: per quadruple (alpha, beta, u, v) giving
        Z1_j = [[0, aI+bJ], [-aI+bJ, 0]],  Z2_j = [[0, uI+vJ], [uI-vJ, 0]];
    imag: per imaginary pair (beta, u) giving Z1 = b*J2, Z2 = u*I2;
    real: per real pair (beta, u) giving Z1 = b*J2, Z2 = u*[[0,1],[1,0]].
    """
    m1, m2p, pr = grouping_shape
    if len(quad) != m1 or len(imag) != m2p or len(real) != pr:
        raise DimensionMismatch("parameter counts do not match the grouping shape")
    z1b, z2b = [], []
    for a, b, u, v in quad:
        blk1 = np.zeros((4, 4))
        blk1[:2, 2:] = a * np.eye(2) + b * J2
        blk1[2:, :2] = -a * np.eye(2) + b * J2
        z1b.append(blk1)
        blk2 = np.zeros((4, 4))
        blk2[:2, 2:] = u * np.eye(2) + v * J2
        blk2[2:, :2] = u * np.eye(2) - v * J2
        z2b.append(blk2)
    for b, u in imag:
        z1b.append(b * J2)
        z2b.append(u * np.eye(2))
    for b, u in real:
        z1b.append(b * J2)
        z2b.append(u * np.array([[0.0, 1.0], [1.0, 0.0]]))
    if not z1b:
        raise DimensionMismatch("empty grouping")
    return block_diag(*z1b), block_diag(*z2b)


def t_shh_update(shh: SHHPencil, xc, lam_c, lam_a, core: CoreSolution) -> UpdateResult:
    """``shh_update`` of a real T-SHH pencil, kept real.

    Takes what ``structured_update`` and ``shh_update`` take: a real change
    pair (X_c, Lc) and targets La, with the blocks of ``t_shh_lambda`` (as a
    ``t-shh`` problem file holds them), and a core on re(G), for instance
    ``core_from_parameters`` of ``t_shh_mhat`` or ``t_shh_z_params``. The
    update is then real in exact arithmetic, so the real parts of its
    factors are kept. A pencil, change pair, Lambda or core with an
    imaginary part above REAL_DATA_TOL of its scale raises ComplexInput,
    since the real parts would not be an update of it.
    """
    if shh.star != STAR_TRANS:
        raise BadBlockShape("t_shh_update needs a T-SHH pencil")
    for what, parts in (
        ("pencil", (shh.m, shh.k)),
        ("change basis", (xc,)),
        ("Lambda", (lam_c, lam_a)),
        ("core", (core.mhat, core.khat)),
    ):
        parts = [np.asarray(a) for a in parts]
        scale = max(max(np.linalg.norm(a) for a in parts), 1e-300)
        if max(np.abs(a.imag).max(initial=0.0) for a in parts) > REAL_DATA_TOL * scale:
            raise ComplexInput(f"T-SHH update needs a real {what}")
    result = shh_update(shh, xc, lam_c, lam_a, core)
    result.take_real()
    result.provenance["method"] = "t-shh"
    return result


def group_t_shh_spectrum(eigs):
    """Group the full spectrum of a real T-SHH pencil, given as ``shh.eig()``.

    Returns ((quadruples, imag_pairs, real_pairs), leftovers). quadruples
    holds (lam, x, xhat) with re(lam) > 0, im(lam) > 0, where x and xhat are
    eigenvectors for lam and -conj(lam); imag_pairs holds (lam, x) with
    lam = i*mu, mu > 0; real_pairs holds (lam, x, xhat) with lam > 0 real and
    x, xhat real eigenvectors for lam and -lam. leftovers lists the
    eigenpairs that could not be grouped (e.g. near-zero eigenvalues).
    Pairing is strict: a candidate quadruple without all four members
    present is rejected into leftovers. A value is on an axis to
    EIG_MATCH_TOL; partners match, and |lambda| is near zero, to
    EIG_MATCH_TOL times T_SHH_PARTNER_FACTOR.
    """
    eigs = [e for e in eigs if e.finite]
    used = [False] * len(eigs)

    def _find(value):
        for i, e in enumerate(eigs):
            if used[i]:
                continue
            if abs(e.value - value) <= EIG_MATCH_TOL * (1 + abs(value)) * T_SHH_PARTNER_FACTOR:
                return i
        return None

    quadruples, imag_pairs, real_pairs, leftovers = [], [], [], []
    order = sorted(
        range(len(eigs)), key=lambda i: (-abs(eigs[i].value), i)
    )
    for i in order:
        if used[i]:
            continue
        lam = eigs[i].value
        s = 1 + abs(lam)
        if abs(lam) <= EIG_MATCH_TOL * T_SHH_PARTNER_FACTOR:
            leftovers.append(eigs[i])
            used[i] = True
            continue
        if abs(lam.real) <= EIG_MATCH_TOL * s:
            if lam.imag < 0:
                continue  # handled from its positive partner
            used[i] = True
            jpart = _find(np.conj(lam))
            if jpart is None:
                leftovers.append(eigs[i])
                continue
            used[jpart] = True
            imag_pairs.append((lam, eigs[i].vector.reshape(-1, 1)))
        elif abs(lam.imag) <= EIG_MATCH_TOL * s:
            if lam.real < 0:
                continue
            used[i] = True
            jpart = _find(-lam)
            if jpart is None:
                leftovers.append(eigs[i])
                continue
            used[jpart] = True
            x = eigs[i].vector.reshape(-1, 1)
            xh = eigs[jpart].vector.reshape(-1, 1)
            real_pairs.append((lam.real + 0j, x.real, xh.real))
        else:
            if not (lam.real > 0 and lam.imag > 0):
                continue
            used[i] = True
            others = [_find(np.conj(lam)), _find(-np.conj(lam)), _find(-lam)]
            if any(o is None for o in others):
                leftovers.append(eigs[i])
                continue
            for o in others:
                used[o] = True
            xhat_idx = others[1]  # eigenvector of -conj(lam)
            quadruples.append(
                (
                    lam,
                    eigs[i].vector.reshape(-1, 1),
                    eigs[xhat_idx].vector.reshape(-1, 1),
                )
            )
    for i, e in enumerate(eigs):
        if not used[i]:
            leftovers.append(e)
    return (tuple(quadruples), tuple(imag_pairs), tuple(real_pairs)), leftovers
