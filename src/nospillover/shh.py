"""star-skew-Hamiltonian/Hamiltonian (SHH) pencils and their J-twisted
updates.

A 2n x 2n pencil is SHH when (JM)^star = -JM and (JK)^star = JK for the
canonical J = [[0, I], [-I, 0]]; equivalently J L(lambda) is star-even.
The update is the star-even construction conjugated back by J.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadBlockPattern,
    BadBlockShape,
    ComplexInput,
    DimensionMismatch,
    NotSHH,
    NotSimpleEigenvalues,
    NotStructured,
    RepeatedEigenvalue,
    SingularG,
)
from .linalg import (
    EIG_MATCH_TOL,
    J2,
    as_matrix,
    block_diag,
    eig_pencil,
    fnorm,
    require_square,
)
from .pencil import STAR_CONJ, STAR_TRANS, StructuredPencil, StructureTag, star
from .structured import (
    G_RCOND_CUTOFF,
    CoreSolution,
    change_gramian,
    complete_core,
    parametrized_core,
    structured_update,
)
from .unstructured import UpdateResult

_PATTERN_TOL = 1e-8  # relative tolerance for G / parameter block patterns


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
    to, which every update and Gramian of the pencil runs on.
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
# complex *-SHH: couples (lambda, -conj(lambda)) plus imaginary singles

def _couple_count_ok(lam_diag: np.ndarray, num_couples: int) -> bool:
    p = lam_diag.size
    return 0 <= 2 * num_couples <= p


def _validate_star_grouped_lambda(lam, num_couples: int, name: str) -> np.ndarray:
    """diag(l1, -conj(l1), ..., lm, -conj(lm), imaginary tail)."""
    lam = require_square(as_matrix(lam, name), name)
    d = np.diag(lam)
    if fnorm(lam - np.diag(d)) > _PATTERN_TOL * max(fnorm(lam), 1e-300):
        raise BadBlockPattern(f"{name} must be diagonal")
    if not _couple_count_ok(d, num_couples):
        raise BadBlockPattern("num_couples does not fit the matrix size")
    for j in range(num_couples):
        a, b = d[2 * j], d[2 * j + 1]
        if abs(b + np.conj(a)) > EIG_MATCH_TOL * (1 + abs(a)):
            raise BadBlockPattern(
                f"{name} entries {2 * j},{2 * j + 1} are not a (l, -conj l) couple"
            )
        if abs(a.real) <= EIG_MATCH_TOL * (1 + abs(a)):
            raise BadBlockPattern(
                f"{name} couple value {a} should have nonzero real part"
            )
    for kk in range(2 * num_couples, d.size):
        if abs(d[kk].real) > EIG_MATCH_TOL * (1 + abs(d[kk])):
            raise BadBlockPattern(f"{name} tail entry {d[kk]} must be imaginary")
    return lam


def _check_block_pattern(z: np.ndarray, num_couples: int, kind: str, name: str):
    """kind 'z1': couples [[0, a], [-conj a, 0]], imaginary tail;
    kind 'z2': couples [[0, b], [conj b, 0]], real tail."""
    p = z.shape[0]
    scale = max(fnorm(z), 1e-300)
    mask = np.zeros((p, p), dtype=bool)
    for j in range(num_couples):
        i0 = 2 * j
        mask[i0, i0 + 1] = mask[i0 + 1, i0] = True
        a = z[i0, i0 + 1]
        mirror = -np.conj(a) if kind == "z1" else np.conj(a)
        if abs(z[i0 + 1, i0] - mirror) > _PATTERN_TOL * scale:
            raise BadBlockPattern(f"{name} couple block {j} violates its pattern")
    for kk in range(2 * num_couples, p):
        mask[kk, kk] = True
        v = z[kk, kk]
        bad = abs(v.real) if kind == "z1" else abs(v.imag)
        if bad > _PATTERN_TOL * scale:
            raise BadBlockPattern(
                f"{name} tail entry {kk} must be "
                + ("imaginary" if kind == "z1" else "real")
            )
    if np.abs(np.where(mask, 0.0, z)).max(initial=0.0) > _PATTERN_TOL * scale:
        raise BadBlockPattern(f"{name} has entries outside its block pattern")


def _validate_star_gramian(g: np.ndarray, num_couples: int):
    """G = diag(G_1, ..., G_m, g_{m+1}, ..., g_p), G_j = [[0, g], [-conj g, 0]],
    imaginary tail; the form implied by simple grouped eigenvalues."""
    try:
        _check_block_pattern(g, num_couples, "z1", "G")
    except BadBlockPattern as exc:
        raise NotSimpleEigenvalues(
            f"Gramian does not have the simple-eigenvalue block form: {exc}"
        ) from None


def star_shh_core(g, lam_c, lam_a, z1, z2, num_couples: int) -> CoreSolution:
    """Structured core for *-SHH from patterned parameters (Z1, Z2).

    Z1 carries couple blocks [[0, a], [-conj a, 0]] and an imaginary tail;
    Z2 couple blocks [[0, b], [conj b, 0]] and a real tail. The resulting
    dM is *-skew-Hamiltonian and dK *-Hamiltonian.
    """
    g = require_square(as_matrix(g, "G"), "G")
    lam_c = _validate_star_grouped_lambda(lam_c, num_couples, "Lambda_c")
    lam_a = _validate_star_grouped_lambda(lam_a, num_couples, "Lambda_a")
    z1 = require_square(as_matrix(z1, "Z1"), "Z1")
    z2 = require_square(as_matrix(z2, "Z2"), "Z2")
    if not (g.shape == lam_c.shape == lam_a.shape == z1.shape == z2.shape):
        raise DimensionMismatch("G, Lc, La, Z1, Z2 must all be p x p")
    _validate_star_gramian(g, num_couples)
    _check_block_pattern(z1, num_couples, "z1", "Z1")
    _check_block_pattern(z2, num_couples, "z2", "Z2")
    return parametrized_core(g, lam_c, lam_a, z1, z2)


# ---------------------------------------------------------------------------
# real T-SHH: quadruples, imaginary pairs, real pairs

@dataclass(frozen=True)
class EigGrouping:
    """Grouped change eigendata of a real T-SHH pencil.

    quadruples: (lam, x, xhat) with re(lam) > 0, im(lam) > 0; x and xhat are
    eigenvectors for lam and -conj(lam). imag_pairs: (lam, x) with lam = i*mu,
    mu > 0. real_pairs: (lam, x, xhat) with lam > 0 real; x, xhat real
    eigenvectors for lam and -lam.
    """

    quadruples: tuple = ()
    imag_pairs: tuple = ()
    real_pairs: tuple = ()

    @property
    def column_count(self) -> int:
        return 4 * len(self.quadruples) + 2 * len(self.imag_pairs) + 2 * len(
            self.real_pairs
        )

    def change_values(self) -> list[complex]:
        vals = []
        for lam, _, _ in self.quadruples:
            lam = complex(lam)
            vals += [lam, np.conj(lam), -np.conj(lam), -lam]
        for lam, _ in self.imag_pairs:
            lam = complex(lam)
            vals += [lam, np.conj(lam)]
        for lam, _, _ in self.real_pairs:
            lam = complex(lam)
            vals += [lam, -lam]
        return vals


def _quad_block(lam: complex) -> np.ndarray:
    lam = complex(lam)
    hat = np.array(
        [[lam.real, lam.imag], [-lam.imag, lam.real]]
    )
    out = np.zeros((4, 4))
    out[:2, :2] = hat
    out[2:, 2:] = -hat.T
    return out


def t_shh_lambda(grouping_shape, quad_values, imag_values, real_values) -> np.ndarray:
    """Block-diagonal Lambda for grouped values (quadruple/imag/real blocks)."""
    m1, m2p, pr = grouping_shape
    if len(quad_values) != m1 or len(imag_values) != m2p or len(real_values) != pr:
        raise DimensionMismatch("value counts do not match the grouping shape")
    blocks = [_quad_block(v) for v in quad_values]
    for v in imag_values:
        v = complex(v)
        if abs(v.real) > EIG_MATCH_TOL * (1 + abs(v)):
            raise BadBlockShape(f"imaginary-pair value {v} must be imaginary")
        blocks.append(v.imag * J2)
    for v in real_values:
        v = complex(v)
        if abs(v.imag) > EIG_MATCH_TOL * (1 + abs(v)):
            raise BadBlockShape(f"real-pair value {v} must be real")
        blocks.append(np.diag([v.real, -v.real]))
    if not blocks:
        raise DimensionMismatch("empty grouping")
    return block_diag(*blocks)


def t_shh_basis(grouping: EigGrouping) -> tuple[np.ndarray, np.ndarray]:
    """(X_c, Lambda_c) with real X_c columns per group and block Lambda_c."""
    cols = []
    for lam, x, xhat in grouping.quadruples:
        lam = complex(lam)
        if abs(lam.real) <= EIG_MATCH_TOL * (1 + abs(lam)) or abs(
            lam.imag
        ) <= EIG_MATCH_TOL * (1 + abs(lam)):
            raise BadBlockShape(
                f"quadruple value {lam} needs nonzero real and imaginary parts"
            )
        x = as_matrix(x, "x")
        xhat = as_matrix(xhat, "xhat")
        cols.append(np.hstack([x.real, x.imag, xhat.real, xhat.imag]))
    for lam, x in grouping.imag_pairs:
        lam = complex(lam)
        if abs(lam.real) > EIG_MATCH_TOL * (1 + abs(lam)) or lam.imag == 0:
            raise BadBlockShape(f"imaginary-pair value {lam} must be i*mu, mu != 0")
        x = as_matrix(x, "x")
        cols.append(np.hstack([x.real, x.imag]))
    for lam, x, xhat in grouping.real_pairs:
        lam = complex(lam)
        if abs(lam.imag) > EIG_MATCH_TOL * (1 + abs(lam)) or lam.real == 0:
            raise BadBlockShape(f"real-pair value {lam} must be real nonzero")
        x = as_matrix(x, "x")
        xhat = as_matrix(xhat, "xhat")
        if max(np.abs(x.imag).max(), np.abs(xhat.imag).max()) > _PATTERN_TOL * (
            np.abs(x).max() + np.abs(xhat).max()
        ):
            raise ComplexInput("real-pair eigenvectors must be real")
        cols.append(np.hstack([x.real, xhat.real]))
    if not cols:
        raise DimensionMismatch("empty grouping")
    xc = np.hstack(cols)
    shape = (
        len(grouping.quadruples),
        len(grouping.imag_pairs),
        len(grouping.real_pairs),
    )
    lam_c = t_shh_lambda(
        shape,
        [lam for lam, _, _ in grouping.quadruples],
        [lam for lam, _ in grouping.imag_pairs],
        [lam for lam, _, _ in grouping.real_pairs],
    )
    return xc, lam_c


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


def _validate_t_gramian(g: np.ndarray, shape):
    """G = diag of [[0, uI+vJ], [-uI+vJ, 0]] quadruple blocks and v*J2 pairs."""
    m1, m2p, pr = shape
    scale = max(fnorm(g), 1e-300)
    pos = 0
    mask = np.zeros(g.shape, dtype=bool)
    for _ in range(m1):
        blk = g[pos : pos + 4, pos : pos + 4].real
        top = blk[:2, 2:]
        bot = blk[2:, :2]
        u = top[0, 0]
        v = top[0, 1]
        want_top = u * np.eye(2) + v * J2
        want_bot = -u * np.eye(2) + v * J2
        if (
            np.abs(top - want_top).max() > _PATTERN_TOL * scale
            or np.abs(bot - want_bot).max() > _PATTERN_TOL * scale
        ):
            raise NotSimpleEigenvalues("quadruple Gramian block off pattern")
        mask[pos : pos + 2, pos + 2 : pos + 4] = True
        mask[pos + 2 : pos + 4, pos : pos + 2] = True
        pos += 4
    for _ in range(m2p + pr):
        blk = g[pos : pos + 2, pos : pos + 2].real
        v = blk[0, 1]
        if np.abs(blk - v * J2).max() > _PATTERN_TOL * scale:
            raise NotSimpleEigenvalues("pair Gramian block off pattern")
        mask[pos : pos + 2, pos : pos + 2] = True
        pos += 2
    if np.abs(np.where(mask, 0.0, g.real)).max(initial=0.0) > _PATTERN_TOL * scale:
        raise NotSimpleEigenvalues("Gramian has coupling outside its blocks")
    if np.abs(g.imag).max(initial=0.0) > _PATTERN_TOL * scale:
        raise ComplexInput("T-SHH Gramian must be real")


def t_shh_update(
    shh: SHHPencil,
    grouping: EigGrouping,
    quad_targets,
    imag_targets,
    real_targets,
    mhat=None,
    z_params=None,
) -> UpdateResult:
    """Real T-SHH update on grouped eigendata.

    Targets are given per group (quadruple values with re, im != 0;
    imaginary pair values; real pair values). The core comes either from a
    structured ``mhat`` (see t_shh_mhat) or from patterned (Z1, Z2) given as
    ``z_params`` (see t_shh_z_params); passing neither uses Mh = 0.
    """
    if shh.star != STAR_TRANS:
        raise BadBlockShape("t_shh_update needs a T-SHH pencil")
    scale = max(fnorm(shh.m), fnorm(shh.k), 1e-300)
    if max(np.abs(shh.m.imag).max(), np.abs(shh.k.imag).max()) > _PATTERN_TOL * scale:
        raise ComplexInput("T-SHH update needs a real pencil")
    vals = grouping.change_values()
    for i, a in enumerate(vals):
        for b in vals[i + 1 :]:
            if abs(a - b) <= EIG_MATCH_TOL * (1 + max(abs(a), abs(b))):
                raise RepeatedEigenvalue(
                    f"change eigenvalues must be distinct, found {a} twice"
                )
    xc, lam_c = t_shh_basis(grouping)
    if xc.shape[1] > shh.size:
        raise DimensionMismatch("grouping has more columns than the pencil size")
    shape = (
        len(grouping.quadruples),
        len(grouping.imag_pairs),
        len(grouping.real_pairs),
    )
    lam_a = t_shh_lambda(shape, quad_targets, imag_targets, real_targets)
    g, g_rcond = shh_gramian(shh, xc)
    if g_rcond <= G_RCOND_CUTOFF:
        raise SingularG(f"X_c^T J M X_c is singular (rcond={g_rcond:.2e})")
    _validate_t_gramian(g, shape)
    g = g.real
    if z_params is not None:
        z1, z2 = z_params
        core = parametrized_core(g, lam_c, lam_a, z1, z2)
    else:
        if mhat is None:
            mhat = np.zeros_like(g)
        core = complete_core(g, lam_c, lam_a, mhat)
    xc_c = xc.astype(np.complex128)
    result = shh_update(shh, xc_c, lam_c, lam_a, core)
    result.take_real()
    result.provenance.update(
        {"method": "t-shh", "grouping_shape": shape, "lam_c": lam_c, "lam_a": lam_a}
    )
    return result


def group_t_shh_spectrum(eigs, tol: float = 1e-8):
    """Group the full spectrum of a real T-SHH pencil, given as ``shh.eig()``.

    Returns (groups, leftovers) where groups is an EigGrouping covering every
    eigenvalue that participates in a quadruple / imaginary pair / real pair,
    and leftovers is the list of eigenpairs that could not be grouped (e.g.
    near-zero eigenvalues). Pairing is strict: a candidate quadruple without
    all four members present is rejected into leftovers.
    """
    eigs = [e for e in eigs if e.finite]
    used = [False] * len(eigs)

    def _find(value):
        for i, e in enumerate(eigs):
            if used[i]:
                continue
            if abs(e.value - value) <= tol * (1 + abs(value)) * 1e4:
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
        if abs(lam) <= tol * 1e4:
            leftovers.append(eigs[i])
            used[i] = True
            continue
        if abs(lam.real) <= tol * s:
            if lam.imag < 0:
                continue  # handled from its positive partner
            used[i] = True
            jpart = _find(np.conj(lam))
            if jpart is None:
                leftovers.append(eigs[i])
                continue
            used[jpart] = True
            imag_pairs.append((lam, eigs[i].vector.reshape(-1, 1)))
        elif abs(lam.imag) <= tol * s:
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
    return (
        EigGrouping(
            quadruples=tuple(quadruples),
            imag_pairs=tuple(imag_pairs),
            real_pairs=tuple(real_pairs),
        ),
        leftovers,
    )
