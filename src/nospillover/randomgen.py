"""Seeded random structured pencils with planted complementary pairs.

Every class plants through one retry loop, ``_plant``: attempt a draws a
pencil from the generator seeded ``[seed, a, *key]``, the class splits its
spectrum into a change part with targets and a fixed part, and the first
split that passes ``_accepted`` is the instance. The shared checks are the
no-spillover condition (no change value near the symmetry partner of a
fixed value, under the tag of J L(lambda) for SHH), rcond([X_c X_f]), the
rcond of the change Gramian, and targets off the fixed spectrum. The checks
that differ between classes stay in their split functions. The core
parameters of the problem file come from the streams ``[seed, 777]``,
``[seed, 778]`` and ``[seed, 779]``, so the output is a pure function of
(seed, n, p, class).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BadParameters, NoSpilloverError
from .linalg import (
    MIN_SEPARATION, PLANT_BASIS_CUTOFF, PLANT_GRAMIAN_CUTOFF, STAR_SHH_MATE_TOL,
    STAR_SHH_SELF_TOL, T_SHH_GROUP_TOL, largest_entry_scaled, rcond_estimate,
)
from .pencil import (
    STAR_EVEN,
    DeflatingPair,
    StructuredPencil,
    StructureTag,
    TAG_BY_NAME,
    star,
    star_scalar,
    symmetry_partner,
)
from .shh import (
    EigGrouping,
    SHHPencil,
    apply_j,
    group_t_shh_spectrum,
    shh_gramian,
    t_shh_basis,
    t_shh_lambda,
)

RANDOM_CLASSES = (*TAG_BY_NAME, "star-shh", "t-shh")

_MAX_ATTEMPTS = 64


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
class _Split:
    """One attempt's split of the spectrum, before the shared checks."""

    xc: np.ndarray  # change basis, p columns
    lam_c: np.ndarray  # p x p change Lambda
    change_values: np.ndarray  # the eigenvalues of lam_c
    fixed_idx: list  # indices of the fixed eigenpairs
    target_lam: np.ndarray  # p x p target Lambda
    parameters: dict
    check_targets: bool = True  # keep the targets off the fixed spectrum


def _complex_randn(rng, n) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _columns(eigs, idx) -> np.ndarray:
    return np.hstack([eigs[i].vector.reshape(-1, 1) for i in idx])


def _plant(seed: int, key: tuple, draw, split, what: str) -> PlantedProblem:
    """The retry loop every class plants through.

    ``draw(rng)`` gives the pencil and ``split(pencil, eigs, rng)`` a
    ``_Split`` of its eigenpairs ``eigs`` (or None); ``what`` names the
    instance in the error raised when no attempt is accepted.
    """
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt, *key])
        pencil = draw(rng)
        eigs = pencil.eig()
        if not all(e.finite for e in eigs):
            continue
        chosen = split(pencil, eigs, rng)
        if chosen is None or not chosen.fixed_idx:
            continue
        xf = _columns(eigs, chosen.fixed_idx)
        lam_f = np.array([eigs[i].value for i in chosen.fixed_idx])
        if _accepted(pencil, chosen, xf, lam_f):
            return PlantedProblem(
                pencil,
                DeflatingPair(chosen.xc, chosen.lam_c),
                DeflatingPair(xf, np.diag(lam_f)),
                chosen.target_lam,
                chosen.parameters,
                seed,
                attempt,
            )
    raise BadParameters(f"could not plant a well-conditioned instance for seed={seed}, {what}")


def _accepted(pencil, chosen: _Split, xf: np.ndarray, lam_f: np.ndarray) -> bool:
    """The checks every class shares (see the module docstring). An SHH
    pencil pairs its spectrum under the tag of J L(lambda) and has the
    scaled rcond of ``shh_gramian``; the others their tag and a plain
    sigma ratio."""
    if isinstance(pencil, SHHPencil):
        tag = pencil.even_pencil().tag
        g_rcond = shh_gramian(pencil, chosen.xc)[1]
    else:
        tag = pencil.tag
        g_rcond = rcond_estimate(star(chosen.xc, tag.star) @ pencil.m @ chosen.xc)
    partners = symmetry_partner(lam_f, tag)
    for c in chosen.change_values:
        if np.any(np.abs(partners - c) <= MIN_SEPARATION * (1 + np.abs(c))):
            return False
    basis_rcond = rcond_estimate(np.hstack([chosen.xc, xf]))
    if basis_rcond < PLANT_BASIS_CUTOFF or g_rcond < PLANT_GRAMIAN_CUTOFF:
        return False
    if chosen.check_targets:
        for t in np.diag(chosen.target_lam):
            if np.any(np.abs(lam_f - t) <= MIN_SEPARATION * (1 + abs(t))):
                return False
    return True


def _distinct(values, pair_scale) -> bool:
    """No two values closer than MIN_SEPARATION * pair_scale(a, b)."""
    return not any(
        abs(a - b) <= MIN_SEPARATION * pair_scale(a, b) for a, b in combinations(values, 2)
    )


# ---------------------------------------------------------------------------
# the six symmetry classes

def random_structured_pencil(rng, n: int, tag: StructureTag) -> StructuredPencil:
    """Dense random pencil with exact (star, eps1, eps2)-structure."""
    a = _complex_randn(rng, n)
    b = _complex_randn(rng, n)
    m = (a + tag.eps1 * star(a, tag.star)) / 2
    k = (b + tag.eps2 * star(b, tag.star)) / 2
    return StructuredPencil(m, k, tag)


def _orbits(values: np.ndarray, tag: StructureTag, self_tol, mate_tol, mate_scale):
    """Eigenvalue indices in symmetry orbits, or None if a value has no
    partner: (i,) when lambda_i is within ``self_tol`` of its own partner,
    (i, j) when lambda_j is within ``mate_tol * mate_scale(lambda_i,
    lambda_j)`` of the partner of lambda_i."""
    partner = symmetry_partner(values, tag)
    used = [False] * len(values)
    orbits = []
    for i, v in enumerate(values):
        if used[i]:
            continue
        used[i] = True
        if abs(partner[i] - v) <= self_tol * (1 + abs(v)):
            orbits.append((i,))
            continue
        mate = None
        for j in range(len(values)):
            near = abs(values[j] - partner[i]) <= mate_tol * mate_scale(v, values[j])
            if not used[j] and near:
                mate = j
                break
        if mate is None:
            return None  # spectrum not symmetry-closed at tolerance; retry
        used[mate] = True
        orbits.append((i, mate))
    return orbits


def _pick_orbits(orbits, p: int, rng):
    """A subset of orbits with total size exactly p (or None)."""
    order = list(rng.permutation(len(orbits)))
    singles = [i for i in order if len(orbits[i]) == 1]
    pairs = [i for i in order if len(orbits[i]) == 2]
    for npairs in range(min(len(pairs), p // 2), -1, -1):
        nsingles = p - 2 * npairs
        if nsingles <= len(singles):
            chosen = pairs[:npairs] + singles[:nsingles]
            return [orbits[i] for i in chosen]
    return None


def _perturb_target(value: complex, tag: StructureTag, rng) -> complex:
    """A random target near ``value`` respecting self-symmetry when needed."""
    shift = 0.2 * (rng.standard_normal() + 1j * rng.standard_normal())
    mu = value * (1 + 0.1 * rng.standard_normal()) + shift
    partner = tag.eps1 * tag.eps2 * star_scalar(mu, tag.star)
    if abs(star_scalar(value, tag.star) * tag.eps1 * tag.eps2 - value) <= MIN_SEPARATION * (
        1 + abs(value)
    ):
        # self-symmetric slot: project the target onto the fixed-point set
        return (mu + partner) / 2
    return mu


def _scaled_gramian_parameters(seed: int) -> dict:
    """``t`` of the scaled-Gramian core, from the stream [seed, 777]."""
    rng = np.random.default_rng([seed, 777])
    return {"t": float(np.round(rng.uniform(-0.5, 0.5), 6))}


def plant_problem(seed: int, n: int, p: int, class_name: str) -> PlantedProblem:
    """Deterministic planted instance for one of the six symmetry classes."""
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
    return _plant(
        seed,
        (n, p),
        lambda rng: random_structured_pencil(rng, n, tag),
        lambda pencil, eigs, rng: _split_orbits(pencil, eigs, rng, p, seed),
        f"n={n}, p={p}, class={class_name}",
    )


def _split_orbits(pencil, eigs, rng, p: int, seed: int):
    """p change values made of whole symmetry orbits."""
    tag = pencil.tag
    values = np.array([e.value for e in eigs])
    orbits = _orbits(values, tag, MIN_SEPARATION, MIN_SEPARATION, lambda v, w: 1 + abs(w))
    if orbits is None:
        return None
    chosen = _pick_orbits(orbits, p, rng)
    if chosen is None:
        return None
    change_idx = [i for orbit in chosen for i in orbit]
    lam_c = values[change_idx]
    # pairwise-distinct change values keep the Gramian block structure
    if not _distinct(lam_c, lambda a, b: 1 + max(abs(a), abs(b))):
        return None
    # targets keep each orbit's symmetry pattern: mu, or mu and its partner
    target = []
    for orbit in chosen:
        mu = _perturb_target(values[orbit[0]], tag, rng)
        target.append(mu)
        if len(orbit) == 2:
            target.append(tag.eps1 * tag.eps2 * star_scalar(mu, tag.star))
    return _Split(
        _columns(eigs, change_idx),
        np.diag(lam_c),
        lam_c,
        [i for i in range(len(eigs)) if i not in change_idx],
        np.diag(target),
        _scaled_gramian_parameters(seed),
    )


# ---------------------------------------------------------------------------
# SHH instances

def random_shh_pencil(rng, half_n: int, which_star: str) -> SHHPencil:
    """Random SHH pencil of size 2*half_n: M = -J S, K = -J H with S
    star-skew and H star-symmetric (real entries for star = 'T')."""
    size = 2 * half_n
    if which_star == "*":
        a, b = _complex_randn(rng, size), _complex_randn(rng, size)
    else:
        a = rng.standard_normal((size, size)).astype(complex)
        b = rng.standard_normal((size, size)).astype(complex)
    s = (a - star(a, which_star)) / 2
    h = (b + star(b, which_star)) / 2
    return SHHPencil(apply_j(s, transpose=True), apply_j(h, transpose=True), which_star)


def _star_shh_parameters(seed: int, p: int, num_couples: int) -> dict:
    """Patterned (Z1, Z2), from the stream [seed, 778]: couple blocks
    [[0, a], [-conj a, 0]] and [[0, b], [conj b, 0]], then an imaginary Z1
    and a real Z2 tail, which make lambda*Mh + Kh (*, -1, 1)-structured.
    ``num_couples`` is written with them to keep the files' bytes; no code
    reads it."""
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
    return {"z1": z1, "z2": z2, "num_couples": num_couples}


def plant_star_shh(seed: int, half_n: int, num_couples: int, num_imag: int) -> PlantedProblem:
    """Planted *-SHH instance changing ``num_couples`` (l, -conj l) couples
    and ``num_imag`` purely imaginary eigenvalues, trimmed to what the drawn
    spectrum offers."""
    if min(num_couples, num_imag) < 0 or num_couples + num_imag == 0:
        raise BadParameters("star-shh instances need p >= 1: at least one change value")
    return _plant(
        seed,
        (half_n, num_couples, num_imag),
        lambda rng: random_shh_pencil(rng, half_n, "*"),
        lambda pencil, eigs, rng: _split_couples(eigs, rng, num_couples, num_imag, seed),
        f"n={2 * half_n}, couples={num_couples}, imag={num_imag}, class=star-shh",
    )


def _split_couples(eigs, rng, num_couples: int, num_imag: int, seed: int):
    values = np.array([e.value for e in eigs])
    orbits = _orbits(
        values, STAR_EVEN, STAR_SHH_SELF_TOL, STAR_SHH_MATE_TOL, lambda v, w: 1 + abs(v)
    )
    if orbits is None:
        return None
    couples = [orbit for orbit in orbits if len(orbit) == 2]
    singles = [orbit[0] for orbit in orbits if len(orbit) == 1]
    # the drawn spectrum may offer fewer couples/imaginary values than asked
    # for; trim to availability but keep at least one change value
    nc = min(num_couples, len(couples))
    ni = min(num_imag, len(singles))
    if 2 * nc + ni == 0:
        return None
    rng.shuffle(couples)
    rng.shuffle(singles)
    change_idx = [i for pair in couples[:nc] for i in pair] + singles[:ni]
    lam_c = values[change_idx]
    if not _distinct(lam_c, lambda a, b: 1 + abs(a)):
        return None
    targets = []
    for pair in couples[:nc]:
        mu = values[pair[0]] * (1 + 0.1 * rng.standard_normal()) + 0.2 * (
            rng.standard_normal() + 1j * rng.standard_normal()
        )
        if abs(mu.real) < 0.05:
            mu += 0.1 * np.sign(mu.real or 1.0)
        targets += [mu, -np.conj(mu)]
    for idx in singles[:ni]:
        wobble = values[idx].imag * (1 + 0.1 * rng.standard_normal())
        targets.append(1j * (wobble + 0.2 * rng.standard_normal()))
    return _Split(
        np.hstack([largest_entry_scaled(eigs[i].vector).reshape(-1, 1) for i in change_idx]),
        np.diag(lam_c),
        lam_c,
        [i for i in range(len(eigs)) if i not in change_idx],
        np.diag(targets),
        _star_shh_parameters(seed, len(change_idx), nc),
    )


def _t_shh_parameters(seed: int, shape: tuple) -> dict:
    """Group counts and ``t_shh_mhat`` parameters, from the stream [seed, 779]."""
    rng = np.random.default_rng([seed, 779])
    return {
        "num_quadruples": shape[0],
        "num_imag_pairs": shape[1],
        "num_real_pairs": shape[2],
        "quad_alpha": list(np.round(rng.standard_normal(shape[0]), 6)),
        "quad_beta": list(np.round(rng.standard_normal(shape[0]), 6)),
        "imag_beta": list(np.round(rng.standard_normal(shape[1]), 6)),
        "real_beta": list(np.round(rng.standard_normal(shape[2]), 6)),
    }


def plant_t_shh(seed: int, half_n: int) -> PlantedProblem:
    """Planted real T-SHH instance changing one full symmetry group.

    The group kind (quadruple, imaginary pair, real pair) is drawn among
    those the spectrum offers, so p is 4 or 2. The change pair is the real
    basis of ``t_shh_basis`` with its block Lambda.
    """
    return _plant(
        seed,
        (half_n,),
        lambda rng: random_shh_pencil(rng, half_n, "T"),
        lambda pencil, eigs, rng: _split_group(eigs, rng, seed),
        f"n={2 * half_n}, class=t-shh",
    )


def _split_group(eigs, rng, seed: int):
    full, leftovers = group_t_shh_spectrum(eigs)
    if leftovers:
        return None
    kinds = (full.quadruples, full.imag_pairs, full.real_pairs)
    offered = [k for k, groups in enumerate(kinds) if groups]
    if not offered:
        return None
    kind = offered[int(rng.integers(len(offered)))]
    groups = kinds[kind]
    group = groups[int(rng.integers(len(groups)))]
    lam = complex(group[0])
    if kind == 0:  # quadruple
        mu = lam * (1 + 0.1 * rng.standard_normal()) + 0.1 * (
            rng.standard_normal() + 1j * rng.standard_normal()
        )
        if abs(mu.real) < 0.05 or abs(mu.imag) < 0.05:
            mu = mu + 0.1 + 0.1j
    elif kind == 1:  # imaginary pair
        mu = 1j * (lam.imag * (1 + 0.1 * rng.standard_normal()) + 0.1 * rng.standard_normal())
        if abs(mu.imag) < 0.05:
            mu = 1j * (mu.imag + 0.1)
    else:  # real pair
        mu = lam.real * (1 + 0.1 * rng.standard_normal()) + 0.1 * rng.standard_normal()
        if abs(mu) < 0.05:
            mu += 0.1
    grouping = EigGrouping(*((group,) if k == kind else () for k in range(3)))
    shape = tuple(int(k == kind) for k in range(3))
    # fixed pair: all eigenpairs whose values are not in the change group
    change_values = grouping.change_values()
    fixed_idx = []
    for i, e in enumerate(eigs):
        if not any(abs(e.value - r) <= T_SHH_GROUP_TOL * (1 + abs(r)) for r in change_values):
            fixed_idx.append(i)
    if len(fixed_idx) != len(eigs) - grouping.column_count:
        return None
    try:
        xc, lam_c = t_shh_basis(grouping)
    except NoSpilloverError:
        return None
    return _Split(
        xc.astype(complex),
        lam_c,
        np.array(change_values),
        fixed_idx,
        t_shh_lambda(shape, *((mu,) if k == kind else () for k in range(3))),
        _t_shh_parameters(seed, shape),
        check_targets=False,
    )

