"""Seeded random structured pencils with planted complementary pairs.

An instance is built from a known eigenbasis, so no eigensolver runs. A
class draws its spectrum as the blocks of a block-diagonal pencil
lambda*D_M + D_K with D_K = -D_M Lambda, whose eigenbasis is the identity:

- a self-paired value lambda = eps1 eps2 lambda^star is a 1 x 1 block;
- a partner pair (mu, eps1 eps2 mu^star) is the 2 x 2 block
  D_M = [[0, m], [eps1 m^star, 0]] with Lambda = diag(mu, eps1 eps2 mu^star);
- a real T-SHH quadruple or pair is the block of ``t_shh_mhat`` with the
  Lambda of ``t_shh_lambda`` (4 x 4 for a quadruple, 2 x 2 for a pair).

Each block carries the (star, eps1, eps2) structure of the class, for SHH
the star-even one of J L(lambda). X is drawn in the style of randsvd
(N. J. Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
SIAM 2002, ch. 28): X = U S V^star with random unitary (for T-SHH real
orthogonal) U and V and singular values spread log-uniformly over
``_COND_SPREAD``, its columns then scaled to unit norm, so that
Y = X^{-1} = C V S^{-1} U^star needs no inversion. Then M = Y^star D_M Y
and K = Y^star D_K Y (J^T times them for SHH) satisfy M X Lambda + K X = 0:
the change/fixed split, the values and the vectors are known by
construction.

Every class plants through one retry loop, ``_plant``: attempt a draws from
the generator seeded ``[seed, a, *key]``, and the first draw that passes
``_accepted`` is the instance. The checks are the no-spillover condition
(no change value near the symmetry partner of a fixed value), pairwise
distinct change values, rcond([X_c X_f]), the rcond of the change Gramian,
and targets off the fixed spectrum. The core parameters of the problem
file come from the streams ``[seed, 777]``, ``[seed, 778]`` and
``[seed, 779]``, so the output is a pure function of (seed, n, p, class).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BadParameters
from .linalg import (
    MIN_SEPARATION, PLANT_BASIS_CUTOFF, PLANT_GRAMIAN_CUTOFF, block_diag, rcond_estimate,
)
from .pencil import (
    STAR_EVEN,
    STAR_TRANS,
    T_EVEN,
    DeflatingPair,
    StructuredPencil,
    StructureTag,
    TAG_BY_NAME,
    star,
    star_scalar,
    symmetry_partner,
)
from .shh import SHHPencil, apply_j, shh_gramian, t_shh_lambda, t_shh_mhat

RANDOM_CLASSES = (*TAG_BY_NAME, "star-shh", "t-shh")

_MAX_ATTEMPTS = 64
# sigma_max / sigma_min that the singular values of X span. With it the
# unit-column cond([X_c X_f]) is about 140-200 at n = 60, above the medians
# (70-110) of the eigenbases of dense random structured pencils. A wider
# spread shrinks the scaled rcond of an SHH change Gramian toward
# PLANT_GRAMIAN_CUTOFF: a spread of 1e3 takes it to about 1e-6 at n = 240.
_COND_SPREAD = 200.0
_T_SHH_SIZES = (4, 2, 2)  # columns of a quadruple, an imaginary pair, a real pair


@dataclass(frozen=True)
class PlantedProblem:
    """A pencil with matched change/fixed eigendata, targets, and the core
    parameters of its problem file."""

    pencil: StructuredPencil | SHHPencil
    change: DeflatingPair
    fixed: DeflatingPair
    target_lam: np.ndarray
    parameters: dict
    seed: int
    attempt: int


@dataclass(frozen=True)
class _Spectrum:
    """One attempt's blocks; the first p columns are the change pair."""

    d_m: np.ndarray  # block-diagonal D_M (of J M for SHH)
    lam: np.ndarray  # block-diagonal Lambda, with D_K = -D_M Lambda
    p: int
    target_lam: np.ndarray
    parameters: dict


def _complex_randn(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _crandn(rng) -> complex:
    return complex(*rng.standard_normal(2))


def _refuse_negative(seed: int, n: int) -> None:
    """Refuse a negative seed or order n before any draw: a numpy seed
    takes non-negative integers only, and the order is part of the seed."""
    for name, value in (("seed", seed), ("n", n)):
        if value < 0:
            raise BadParameters(f"need {name} >= 0 (got {name}={value})")


def _plant(
    seed: int, key: tuple, draw, tag: StructureTag, shh: str | None, what: str
) -> PlantedProblem:
    """The retry loop every class plants through.

    ``draw(rng)`` gives a ``_Spectrum`` (or None) of a pencil with the
    block structure ``tag``, made SHH with that star when ``shh`` is given;
    ``what`` names the instance in the error raised when no attempt is
    accepted.
    """
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt, *key])
        spectrum = draw(rng)
        if spectrum is None:
            continue
        pencil, x = _assemble(rng, spectrum, tag, shh)
        p = spectrum.p
        xc, lam_c = x[:, :p], spectrum.lam[:p, :p]
        xf, values_f = _complex_pairs(x[:, p:], spectrum.lam[p:, p:])
        if _accepted(pencil, tag, xc, lam_c, xf, values_f, spectrum.target_lam):
            # X_f is [X_c X_f] less p columns, so by interlacing sigma_min(X_f)
            # >= sigma_min([X_c X_f]) and sigma_max(X_f) <= sigma_max([X_c X_f]):
            # rcond(X_f) >= rcond([X_c X_f]) >= PLANT_BASIS_CUTOFF, four orders
            # above the TAU_NUM rank check that the pair would repeat
            return PlantedProblem(
                pencil,
                DeflatingPair(xc, lam_c),
                DeflatingPair._prechecked(xf, values_f),
                spectrum.target_lam,
                spectrum.parameters,
                seed,
                attempt,
            )
    raise BadParameters(f"could not plant a well-conditioned instance for seed={seed}, {what}")


def _basis(rng, n: int, real: bool):
    """(X, Y) with Y = X^{-1}: X = U S V^star scaled to unit columns, with
    U, V from the QR of Gaussian matrices and log10 of each singular value
    uniform on [-log10 _COND_SPREAD, 0]."""
    u, v = (np.linalg.qr(rng.standard_normal((n, n)) if real else _complex_randn(rng, n))[0]
            for _ in range(2))
    s = _COND_SPREAD ** -rng.random(n)
    x = (u * s) @ v.conj().T
    norms = np.linalg.norm(x, axis=0)
    return x / norms, ((v / s) @ u.conj().T) * norms[:, None]


def _banded_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A @ B for a block-diagonal A with blocks of order at most 4, read as
    a band of three diagonals on each side of the main one."""
    out = a.diagonal()[:, None] * b
    for d in range(1, 4):
        out[:-d] += a.diagonal(d)[:, None] * b[d:]
        out[d:] += a.diagonal(-d)[:, None] * b[:-d]
    return out


def _assemble(rng, spectrum: _Spectrum, tag: StructureTag, shh: str | None):
    """(pencil, X): M = Y^star D_M Y and K = -Y^star D_M Lambda Y made exactly
    ``tag``-structured (then J^T M, J^T K for SHH), and the eigenbasis X."""
    x, y = _basis(rng, spectrum.lam.shape[0], shh == STAR_TRANS)
    ys = star(y, tag.star)
    m = ys @ _banded_product(spectrum.d_m, y)
    k = ys @ _banded_product(spectrum.d_m, -_banded_product(spectrum.lam, y))
    m = (m + tag.eps1 * star(m, tag.star)) / 2
    k = (k + tag.eps2 * star(k, tag.star)) / 2
    if shh is None:
        return StructuredPencil(m, k, tag), x
    return SHHPencil(apply_j(m, transpose=True), apply_j(k, transpose=True), shh), x


def _complex_pairs(x: np.ndarray, lam: np.ndarray):
    """(X, values): the complex eigenpairs of a pair (X, Lambda) whose
    Lambda has 1 x 1 blocks and realified 2 x 2 blocks [[a, b], [-b, a]]
    (``realified_pairs``), which the columns [c1, c2] give as c1 + i c2 for
    a + ib and c1 - i c2 for a - ib. A diagonal Lambda is kept as it is."""
    cols, values, j = [], [], 0
    while j < lam.shape[0]:
        if j + 1 < lam.shape[0] and lam[j, j + 1] != 0:
            z, v = x[:, j] + 1j * x[:, j + 1], complex(lam[j, j], lam[j, j + 1])
            cols += [z, z.conj()]
            values += [v, v.conjugate()]
            j += 2
        else:
            cols.append(x[:, j])
            values.append(lam[j, j])
            j += 1
    return np.column_stack(cols).astype(complex, copy=False), np.array(values, dtype=complex)


def _accepted(pencil, tag, xc, lam_c, xf, values_f, target_lam) -> bool:
    """The checks of the module docstring. Values pair under ``tag``, that
    of J L(lambda) for SHH; an SHH pencil has the scaled rcond of
    ``shh_gramian``, the others a plain sigma ratio."""
    if isinstance(pencil, SHHPencil):
        g_rcond = shh_gramian(pencil, xc)[1]
    else:
        g_rcond = rcond_estimate(star(xc, tag.star) @ pencil.m @ xc)
    values_c = _complex_pairs(xc, lam_c)[1]
    partners = symmetry_partner(values_f, tag)
    for c in values_c:
        if np.any(np.abs(partners - c) <= MIN_SEPARATION * (1 + np.abs(c))):
            return False
    # pairwise-distinct change values keep the Gramian block structure
    if any(abs(a - b) <= MIN_SEPARATION * (1 + max(abs(a), abs(b)))
           for a, b in combinations(values_c, 2)):
        return False
    basis_rcond = rcond_estimate(np.hstack([xc, xf]))
    if basis_rcond < PLANT_BASIS_CUTOFF or g_rcond < PLANT_GRAMIAN_CUTOFF:
        return False
    for t in np.linalg.eigvals(target_lam):
        if np.any(np.abs(values_f - t) <= MIN_SEPARATION * (1 + abs(t))):
            return False
    return True


# ---------------------------------------------------------------------------
# the six symmetry classes and star-shh: self-paired values and partner pairs

def _orbit_block(rng, tag: StructureTag, pair: bool):
    """(D_M, Lambda) of one partner pair, or of one self-paired value."""
    z, m = _crandn(rng), _crandn(rng)
    m_star = tag.eps1 * star_scalar(m, tag.star)
    if pair:
        return np.array([[0, m], [m_star, 0]]), np.diag([z, symmetry_partner(z, tag)[0]])
    # the projections onto D_M^star = eps1 D_M and onto the self-paired values
    d = (m + m_star) / 2
    return np.array([[d]]), np.array([[(z + symmetry_partner(z, tag)[0]) / 2]])


def _orbit_spectrum(rng, tag: StructureTag, n: int, pairs: int, singles: int, parameters):
    """``pairs`` change pairs and ``singles`` self-paired change values, then
    fixed ones up to n. A class with no pairs (symmetric) fixes singles, a
    T class with pairs fixes pairs and at odd n its one zero, and a star
    class a random number of pairs; targets keep each orbit's pattern.
    Returns None when no fixed column is left."""
    rest = n - 2 * pairs - singles
    if rest <= 0:
        return None
    if tag.star == STAR_TRANS and tag.eps1 * tag.eps2 == 1:
        fixed_pairs = 0
    elif tag.star == STAR_TRANS:
        fixed_pairs = rest // 2
    else:
        fixed_pairs = int(rng.integers(rest // 2 + 1))
    kinds = [True] * pairs + [False] * singles
    kinds += [True] * fixed_pairs + [False] * (rest - 2 * fixed_pairs)
    d_m, lam = zip(*(_orbit_block(rng, tag, pair) for pair in kinds))
    firsts = [block[0, 0] for block in lam[: pairs + singles]]
    return _Spectrum(
        block_diag(*d_m),
        block_diag(*lam),
        2 * pairs + singles,
        np.diag(_orbit_targets(rng, tag, firsts, pairs)),
        parameters,
    )


def _orbit_targets(rng, tag: StructureTag, firsts, pairs: int) -> list:
    """Targets near the first value of each change orbit: mu and its partner
    for a pair, mu kept at least 0.1 off its partner, or the projection of
    mu onto the self-paired values for a single."""
    targets = []
    for j, value in enumerate(firsts):
        mu = value * (1 + 0.1 * rng.standard_normal()) + 0.2 * _crandn(rng)
        gap = mu - symmetry_partner(mu, tag)[0]
        if j >= pairs:
            targets.append(mu - gap / 2)
            continue
        if abs(gap) < 0.1:
            mu += 0.1 * np.exp(1j * np.angle(gap))
        targets += [mu, symmetry_partner(mu, tag)[0]]
    return targets


def _scaled_gramian_parameters(seed: int) -> dict:
    """``t`` of the scaled-Gramian core, from the stream [seed, 777]."""
    rng = np.random.default_rng([seed, 777])
    return {"t": float(np.round(rng.uniform(-0.5, 0.5), 6))}


def plant_problem(seed: int, n: int, p: int, class_name: str) -> PlantedProblem:
    """Deterministic planted instance for one of the six symmetry classes:
    p // 2 partner pairs and p % 2 self-paired values change (p
    self-paired values for symmetric, whose every value is its own
    partner)."""
    _refuse_negative(seed, n)
    if class_name not in TAG_BY_NAME:
        raise BadParameters(f"unknown class {class_name!r}")
    if not 0 < p < n:
        raise BadParameters("need 0 < p < n")
    if class_name == "t-even" and n % 2:
        # complex skew-symmetric M is structurally singular at odd sizes
        raise BadParameters("t-even instances need even n")
    if p % 2 and (class_name == "t-even" or (class_name == "t-odd" and not n % 2)):
        # the spectrum pairs lambda with -lambda; only the zero eigenvalue of
        # a t-odd K at odd n is its own partner and can fill an odd p
        raise BadParameters(
            f"{class_name} instances at even n need even p (got p={p}): their "
            "spectrum has no self-paired eigenvalue"
        )
    tag = TAG_BY_NAME[class_name]
    pairs = 0 if class_name == "symmetric" else p // 2
    parameters = _scaled_gramian_parameters(seed)
    return _plant(
        seed,
        (n, p),
        lambda rng: _orbit_spectrum(rng, tag, n, pairs, p - 2 * pairs, parameters),
        tag,
        None,
        f"n={n}, p={p}, class={class_name}",
    )


# ---------------------------------------------------------------------------
# SHH instances

def _star_shh_parameters(seed: int, p: int, num_couples: int) -> dict:
    """Patterned (Z1, Z2), from the stream [seed, 778]: couple blocks
    [[0, a], [-conj a, 0]] and [[0, b], [conj b, 0]], then an imaginary Z1
    and a real Z2 tail, which make lambda*Mh + Kh (*, -1, 1)-structured."""
    rng = np.random.default_rng([seed, 778])
    z1 = np.zeros((p, p), dtype=complex)
    z2 = np.zeros((p, p), dtype=complex)
    for j in range(num_couples):
        a = rng.standard_normal() + 1j * rng.standard_normal()
        b = rng.standard_normal() + 1j * rng.standard_normal()
        z1[2 * j, 2 * j + 1], z1[2 * j + 1, 2 * j] = a, -np.conj(a)
        z2[2 * j, 2 * j + 1], z2[2 * j + 1, 2 * j] = b, np.conj(b)
    for kk in range(2 * num_couples, p):
        z1[kk, kk] = 1j * rng.standard_normal()
        z2[kk, kk] = rng.standard_normal()
    return {"z1": z1, "z2": z2}


def plant_star_shh(seed: int, half_n: int, num_couples: int, num_imag: int) -> PlantedProblem:
    """Planted *-SHH instance changing exactly ``num_couples`` (l, -conj l)
    couples and ``num_imag`` purely imaginary eigenvalues."""
    _refuse_negative(seed, 2 * half_n)
    if min(num_couples, num_imag) < 0 or num_couples + num_imag == 0:
        raise BadParameters("star-shh instances need p >= 1: at least one change value")
    parameters = _star_shh_parameters(seed, 2 * num_couples + num_imag, num_couples)
    return _plant(
        seed,
        (half_n, num_couples, num_imag),
        lambda rng: _orbit_spectrum(rng, STAR_EVEN, 2 * half_n, num_couples, num_imag, parameters),
        STAR_EVEN,
        "*",
        f"n={2 * half_n}, couples={num_couples}, imag={num_imag}, class=star-shh",
    )


def _t_shh_parameters(seed: int, shape: tuple) -> dict:
    """Mh = ``t_shh_mhat`` of the group ``shape``, its values (quad_alpha,
    quad_beta, imag_beta, real_beta) drawn in turn from the stream
    [seed, 779] and rounded to 6 digits."""
    rng = np.random.default_rng([seed, 779])
    values = (np.round(rng.standard_normal(count), 6) for count in (shape[0], *shape))
    return {"mhat": t_shh_mhat(shape, *values)}


def _by_kind(kind: int, value) -> list:
    """The per-kind value lists of ``t_shh_lambda`` for one group of ``kind``."""
    return [[value] if k == kind else [] for k in range(3)]


def _t_shh_group(rng, kind: int):
    """(D_M, Lambda, value) of one group of ``kind`` (quadruple, imaginary
    pair, real pair), with the value a + ib, ib or a of a drawn (a, b)."""
    a, b, alpha, beta = rng.standard_normal(4)
    value = (complex(a, b), 1j * b, a)[kind]
    shape = tuple(int(k == kind) for k in range(3))
    d_m = t_shh_mhat(shape, [alpha] * shape[0], *([beta] * count for count in shape))
    return d_m, t_shh_lambda(shape, *_by_kind(kind, value)), value


def _t_shh_spectrum(rng, n: int, seed: int):
    """One changed group, its kind drawn among those that leave a fixed
    column, then fixed groups of drawn kinds up to n. The target keeps the
    group's kind, off the axes it must leave."""
    fits = [k for k in range(3) if _T_SHH_SIZES[k] < n]
    if not fits:
        return None
    kinds = [fits[int(rng.integers(len(fits)))]]
    rest = n - _T_SHH_SIZES[kinds[0]]
    while rest:
        fits = [k for k in range(3) if _T_SHH_SIZES[k] <= rest]
        kinds.append(fits[int(rng.integers(len(fits)))])
        rest -= _T_SHH_SIZES[kinds[-1]]
    d_m, lam, values = zip(*(_t_shh_group(rng, kind) for kind in kinds))
    kind = kinds[0]
    mu = complex(values[0]) * (1 + 0.1 * rng.standard_normal()) + 0.1 * _crandn(rng)
    mu = (mu, 1j * mu.imag, mu.real)[kind]
    if kind != 1 and abs(mu.real) < 0.05:
        mu += 0.1
    if kind != 2 and abs(mu.imag) < 0.05:
        mu += 0.1j
    shape = tuple(int(k == kind) for k in range(3))
    return _Spectrum(
        block_diag(*d_m),
        block_diag(*lam),
        _T_SHH_SIZES[kind],
        t_shh_lambda(shape, *_by_kind(kind, mu)),
        _t_shh_parameters(seed, shape),
    )


def plant_t_shh(seed: int, half_n: int) -> PlantedProblem:
    """Planted real T-SHH instance changing one full symmetry group.

    The group kind (quadruple, imaginary pair, real pair) is drawn among
    those that leave a fixed pair, so p is 4 or 2. The change pair is the
    real basis of the group with its block Lambda (``t_shh_lambda``).
    """
    _refuse_negative(seed, 2 * half_n)
    return _plant(
        seed,
        (half_n,),
        lambda rng: _t_shh_spectrum(rng, 2 * half_n, seed),
        T_EVEN,
        STAR_TRANS,
        f"n={2 * half_n}, class=t-shh",
    )
