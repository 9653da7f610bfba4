"""Seeded random structured pencils with planted complementary pairs.

Generators draw a structured pencil, compute its full eigendecomposition,
and split the spectrum into a change part and a fixed part so that the
no-spillover spectral condition holds. Instances failing conditioning
checks are retried with deterministic sub-seeds, so output is a pure
function of (seed, n, p, class).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameters
from .linalg import largest_entry_scaled, rcond_estimate
from .pencil import (
    DeflatingPair,
    StructuredPencil,
    StructureTag,
    TAG_BY_NAME,
    star,
    star_scalar,
    symmetry_partner,
)
from .shh import EigGrouping, SHHPencil, apply_j, group_t_shh_spectrum

RANDOM_CLASSES = (
    "symmetric",
    "hermitian",
    "t-odd",
    "star-odd",
    "t-even",
    "star-even",
    "star-shh",
    "t-shh",
)

_MIN_SEPARATION = 1e-5
_MAX_ATTEMPTS = 64


@dataclass(frozen=True)
class PlantedProblem:
    """A structured pencil with matched change/fixed eigendata and targets."""

    pencil: StructuredPencil
    change: DeflatingPair
    fixed: DeflatingPair
    target_lam: np.ndarray
    seed: int
    attempt: int

    @property
    def tag(self) -> StructureTag:
        return self.pencil.tag


@dataclass(frozen=True)
class PlantedSHH:
    shh: SHHPencil
    change_x: np.ndarray
    change_lam: np.ndarray
    target_lam: np.ndarray
    fixed: DeflatingPair
    num_couples: int  # star case; -1 for T case
    grouping: EigGrouping | None
    target_groups: tuple | None
    seed: int
    attempt: int


def _complex_randn(rng, n, m=None) -> np.ndarray:
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_structured_pencil(rng, n: int, tag: StructureTag) -> StructuredPencil:
    """Dense random pencil with exact (star, eps1, eps2)-structure."""
    a = _complex_randn(rng, n)
    b = _complex_randn(rng, n)
    m = (a + tag.eps1 * star(a, tag.star)) / 2
    k = (b + tag.eps2 * star(b, tag.star)) / 2
    return StructuredPencil(m, k, tag)


def _orbits(values: np.ndarray, tag: StructureTag):
    """Split eigenvalue indices into symmetry orbits (singles and pairs)."""
    partner = symmetry_partner(values, tag)
    used = [False] * len(values)
    orbits = []
    for i, v in enumerate(values):
        if used[i]:
            continue
        used[i] = True
        if abs(partner[i] - v) <= _MIN_SEPARATION * (1 + abs(v)):
            orbits.append((i,))
            continue
        mate = None
        for j in range(len(values)):
            if not used[j] and abs(values[j] - partner[i]) <= _MIN_SEPARATION * (
                1 + abs(values[j])
            ):
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
    if abs(star_scalar(value, tag.star) * tag.eps1 * tag.eps2 - value) <= _MIN_SEPARATION * (
        1 + abs(value)
    ):
        # self-symmetric slot: project the target onto the fixed-point set
        return (mu + partner) / 2
    return mu


def plant_problem(seed: int, n: int, p: int, class_name: str) -> PlantedProblem:
    """Deterministic planted instance for one of the six symmetry classes."""
    if class_name not in TAG_BY_NAME:
        raise BadParameters(f"unknown class {class_name!r}")
    if not 0 < p < n:
        raise BadParameters("need 0 < p < n")
    if class_name == "t-even" and n % 2:
        # complex skew-symmetric M is structurally singular at odd sizes
        raise BadParameters("t-even instances need even n")
    tag = TAG_BY_NAME[class_name]
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt, n, p])
        pencil = random_structured_pencil(rng, n, tag)
        planted = _try_plant(pencil, p, rng, tag)
        if planted is not None:
            change, fixed, target = planted
            return PlantedProblem(pencil, change, fixed, target, seed, attempt)
    raise BadParameters(
        f"could not plant a well-conditioned instance for seed={seed}, "
        f"n={n}, p={p}, class={class_name}"
    )


def _try_plant(pencil: StructuredPencil, p: int, rng, tag: StructureTag):
    eigs = pencil.eig()
    if not all(e.finite for e in eigs):
        return None
    values = np.array([e.value for e in eigs])
    orbits = _orbits(values, tag)
    if orbits is None:
        return None
    chosen = _pick_orbits(orbits, p, rng)
    if chosen is None:
        return None
    change_idx = [i for orbit in chosen for i in orbit]
    fixed_idx = [i for i in range(len(eigs)) if i not in change_idx]
    lam_c = values[change_idx]
    lam_f = values[fixed_idx]
    # spectral condition: change values away from partners of fixed values
    partners = symmetry_partner(lam_f, tag)
    for c in lam_c:
        if np.any(np.abs(partners - c) <= _MIN_SEPARATION * (1 + np.abs(c))):
            return None
    # pairwise-distinct change values keep the Gramian block structure
    for i in range(len(lam_c)):
        for j in range(i + 1, len(lam_c)):
            if abs(lam_c[i] - lam_c[j]) <= _MIN_SEPARATION * (
                1 + max(abs(lam_c[i]), abs(lam_c[j]))
            ):
                return None
    xc = np.hstack([eigs[i].vector.reshape(-1, 1) for i in change_idx])
    xf = np.hstack([eigs[i].vector.reshape(-1, 1) for i in fixed_idx])
    if rcond_estimate(np.hstack([xc, xf])) < 1e-8:
        return None
    g = star(xc, tag.star) @ pencil.m @ xc
    if rcond_estimate(g) < 1e-6:
        return None
    # targets: per-orbit perturbations respecting the symmetry pattern
    target = np.zeros(len(change_idx), dtype=complex)
    pos = 0
    for orbit in chosen:
        if len(orbit) == 1:
            target[pos] = _perturb_target(values[orbit[0]], tag, rng)
            pos += 1
        else:
            mu = _perturb_target(values[orbit[0]], tag, rng)
            target[pos] = mu
            target[pos + 1] = tag.eps1 * tag.eps2 * star_scalar(mu, tag.star)
            pos += 2
    # keep targets off the fixed spectrum for clean multiset matching
    for t in target:
        if np.any(np.abs(lam_f - t) <= _MIN_SEPARATION * (1 + abs(t))):
            return None
    change = DeflatingPair(xc, np.diag(lam_c))
    fixed = DeflatingPair(xf, np.diag(lam_f))
    return change, fixed, np.diag(target)


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


def plant_star_shh(seed: int, half_n: int, num_couples: int, num_imag: int) -> PlantedSHH:
    """Planted *-SHH instance changing ``num_couples`` (l, -conj l) couples
    and ``num_imag`` purely imaginary eigenvalues."""
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt, half_n, num_couples, num_imag])
        shh = random_shh_pencil(rng, half_n, "*")
        planted = _try_plant_star_shh(shh, num_couples, num_imag, rng)
        if planted is not None:
            xc, lam_c, lam_a, fixed, eff_couples = planted
            return PlantedSHH(
                shh, xc, lam_c, lam_a, fixed, eff_couples, None, None, seed, attempt
            )
    raise BadParameters(
        f"could not plant *-SHH instance (seed={seed}, n={2 * half_n}, "
        f"couples={num_couples}, imag={num_imag})"
    )


def _try_plant_star_shh(shh: SHHPencil, num_couples: int, num_imag: int, rng):
    eigs = [e for e in shh.eig() if e.finite]
    if len(eigs) < shh.size:
        return None
    values = np.array([e.value for e in eigs])
    tol = 1e-8
    used = [False] * len(eigs)
    couples, singles = [], []
    for i, v in enumerate(values):
        if used[i]:
            continue
        if abs(v.real) <= tol * (1 + abs(v)):
            singles.append(i)
            used[i] = True
            continue
        mate = None
        for j in range(len(values)):
            if not used[j] and j != i and abs(values[j] + np.conj(v)) <= 1e-6 * (
                1 + abs(v)
            ):
                mate = j
                break
        if mate is None:
            return None
        used[i] = used[mate] = True
        couples.append((i, mate))
    # the drawn spectrum may offer fewer couples/imaginary values than asked
    # for; trim to availability but keep at least one change value
    nc = min(num_couples, len(couples))
    ni = min(num_imag, len(singles))
    if 2 * nc + ni == 0:
        return None
    rng.shuffle(couples)
    rng.shuffle(singles)
    chosen_c = couples[:nc]
    chosen_s = singles[:ni]
    change_idx = [i for pair in chosen_c for i in pair] + list(chosen_s)
    fixed_idx = [i for i in range(len(eigs)) if i not in change_idx]
    lam_c = values[change_idx]
    lam_f = values[fixed_idx]
    for c in lam_c:
        if np.any(np.abs(-np.conj(lam_f) - c) <= _MIN_SEPARATION * (1 + abs(c))):
            return None
    for i in range(len(lam_c)):
        for j in range(i + 1, len(lam_c)):
            if abs(lam_c[i] - lam_c[j]) <= _MIN_SEPARATION * (1 + abs(lam_c[i])):
                return None
    xc = np.hstack(
        [largest_entry_scaled(eigs[i].vector).reshape(-1, 1) for i in change_idx]
    )
    xf = np.hstack([eigs[i].vector.reshape(-1, 1) for i in fixed_idx])
    if rcond_estimate(np.hstack([xc, xf])) < 1e-8:
        return None
    from .shh import shh_gramian

    g, g_rcond = shh_gramian(shh, xc)
    if g_rcond < 1e-6:
        return None
    targets = []
    for pair in chosen_c:
        mu = values[pair[0]] * (1 + 0.1 * rng.standard_normal()) + 0.2 * (
            rng.standard_normal() + 1j * rng.standard_normal()
        )
        if abs(mu.real) < 0.05:
            mu += 0.1 * np.sign(mu.real or 1.0)
        targets += [mu, -np.conj(mu)]
    for idx in chosen_s:
        wobble = values[idx].imag * (1 + 0.1 * rng.standard_normal())
        targets.append(1j * (wobble + 0.2 * rng.standard_normal()))
    lam_a = np.array(targets)
    for t in lam_a:
        if np.any(np.abs(lam_f - t) <= _MIN_SEPARATION * (1 + abs(t))):
            return None
    return xc, np.diag(lam_c), np.diag(lam_a), DeflatingPair(xf, np.diag(lam_f)), nc


def plant_t_shh(seed: int, half_n: int) -> PlantedSHH:
    """Planted real T-SHH instance changing one full symmetry group.

    Picks whichever group kind (quadruple, imaginary pair, real pair) the
    drawn spectrum offers, preferring quadruples.
    """
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt, half_n])
        shh = random_shh_pencil(rng, half_n, "T")
        planted = _try_plant_t_shh(shh, rng)
        if planted is not None:
            grouping, target_groups, fixed = planted
            return PlantedSHH(
                shh,
                np.zeros((0, 0)),
                np.zeros((0, 0)),
                np.zeros((0, 0)),
                fixed,
                -1,
                grouping,
                target_groups,
                seed,
                attempt,
            )
    raise BadParameters(f"could not plant T-SHH instance (seed={seed}, n={2 * half_n})")


def _try_plant_t_shh(shh: SHHPencil, rng):
    eigs = [e for e in shh.eig() if e.finite]
    full, leftovers = group_t_shh_spectrum(eigs)
    if leftovers:
        return None
    options = []
    if full.quadruples:
        options.append("quad")
    if full.imag_pairs:
        options.append("imag")
    if full.real_pairs:
        options.append("real")
    if not options:
        return None
    kind = options[int(rng.integers(len(options)))]
    if kind == "quad":
        idx = int(rng.integers(len(full.quadruples)))
        grouping = EigGrouping(quadruples=(full.quadruples[idx],))
        lam = complex(full.quadruples[idx][0])
        mu = lam * (1 + 0.1 * rng.standard_normal()) + 0.1 * (
            rng.standard_normal() + 1j * rng.standard_normal()
        )
        if abs(mu.real) < 0.05 or abs(mu.imag) < 0.05:
            mu = mu + 0.1 + 0.1j
        target_groups = ((mu,), (), ())
        removed = {lam, np.conj(lam), -np.conj(lam), -lam}
    elif kind == "imag":
        idx = int(rng.integers(len(full.imag_pairs)))
        grouping = EigGrouping(imag_pairs=(full.imag_pairs[idx],))
        lam = complex(full.imag_pairs[idx][0])
        mu = 1j * (lam.imag * (1 + 0.1 * rng.standard_normal()) + 0.1 * rng.standard_normal())
        if abs(mu.imag) < 0.05:
            mu = 1j * (mu.imag + 0.1)
        target_groups = ((), (mu,), ())
        removed = {lam, np.conj(lam)}
    else:
        idx = int(rng.integers(len(full.real_pairs)))
        grouping = EigGrouping(real_pairs=(full.real_pairs[idx],))
        lam = complex(full.real_pairs[idx][0])
        mu = lam.real * (1 + 0.1 * rng.standard_normal()) + 0.1 * rng.standard_normal()
        if abs(mu) < 0.05:
            mu += 0.1
        target_groups = ((), (), (mu,))
        removed = {lam, -lam}
    # fixed pair: all eigenpairs whose values are not in the change group
    fixed_idx = []
    for i, e in enumerate(eigs):
        if not any(abs(e.value - r) <= 1e-6 * (1 + abs(r)) for r in removed):
            fixed_idx.append(i)
    if len(fixed_idx) != len(eigs) - grouping.column_count:
        return None
    xf = np.hstack([eigs[i].vector.reshape(-1, 1) for i in fixed_idx])
    lf = np.diag([eigs[i].value for i in fixed_idx])
    change_vals = grouping.change_values()
    for c in change_vals:
        for i in fixed_idx:
            if abs(-eigs[i].value - c) <= _MIN_SEPARATION * (1 + abs(c)):
                return None
    xc, _ = _t_shh_basis_or_none(grouping)
    if xc is None:
        return None
    if rcond_estimate(np.hstack([xc, xf])) < 1e-8:
        return None
    from .shh import shh_gramian

    g, g_rcond = shh_gramian(shh, xc.astype(complex))
    if g_rcond < 1e-6:
        return None
    return grouping, target_groups, DeflatingPair(xf, lf)


def _t_shh_basis_or_none(grouping: EigGrouping):
    from .errors import NoSpilloverError
    from .shh import t_shh_basis

    try:
        return t_shh_basis(grouping)
    except NoSpilloverError:
        return None, None
