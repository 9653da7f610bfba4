"""Planted instances: built from a known eigenbasis with no QZ, and at least
as hard as the QZ-based draws they replaced."""

import numpy as np
import pytest
import scipy.linalg

import nospillover.linalg
import nospillover.shh
from nospillover.linalg import fnorm
from nospillover.pencil import symmetry_partner
from nospillover.randomgen import RANDOM_CLASSES, plant_problem, plant_star_shh, plant_t_shh
from nospillover.shh import SHHPencil

# median cond([X_c X_f]) with unit columns of the instances that the QZ-based
# draws planted at n=60, p=4, seeds 1-8, rounded down (their range was 44 to
# 1.4e3)
QZ_DRAW_MEDIANS = {
    "symmetric": 75.6,
    "hermitian": 85.6,
    "t-odd": 69.6,
    "star-odd": 93.1,
    "t-even": 84.2,
    "star-even": 82.2,
    "star-shh": 87.6,
    "t-shh": 105.8,
}


def plant(klass, seed, n, p):
    """The instance ``random --seed seed --n n --p p --class klass`` writes."""
    if klass == "star-shh":
        return plant_star_shh(seed, n // 2, p // 2, p % 2)
    if klass == "t-shh":
        return plant_t_shh(seed, n // 2)
    return plant_problem(seed, n, p, klass)


def pair_relative_residual(pencil, pair):
    """||M X Lam + K X||_F over (||M||_F ||Lam||_F + ||K||_F) ||X||_F, as the
    certificate scales a pair residual."""
    m, k, x, lam = pencil.m, pencil.k, pair.x, pair.lam
    scale = (fnorm(m) * fnorm(lam) + fnorm(k)) * fnorm(x)
    return fnorm(m @ x @ lam + k @ x) / scale


def unit_column_cond(planted):
    x = np.hstack([planted.change.x, planted.fixed.x])
    s = np.linalg.svd(x / np.linalg.norm(x, axis=0), compute_uv=False)
    return s[0] / s[-1]


def test_plants_every_class_without_a_qz(monkeypatch):
    def no_qz(*args, **kwargs):
        raise AssertionError("planting ran a QZ")

    monkeypatch.setattr(nospillover.linalg, "eig_pencil", no_qz)
    monkeypatch.setattr(nospillover.shh, "eig_pencil", no_qz)
    monkeypatch.setattr(scipy.linalg, "eig", no_qz)
    for klass in RANDOM_CLASSES:
        for n in (8, 60):
            for p in (2, 4):
                planted = plant(klass, 3, n, p)
                assert planted.change.x.shape[0] == n
                assert pair_relative_residual(planted.pencil, planted.fixed) <= 1e-13


@pytest.mark.parametrize("klass", RANDOM_CLASSES)
def test_as_hard_as_the_qz_draws_and_exact(klass):
    planted = [plant(klass, seed, 60, 4) for seed in range(1, 9)]
    assert np.median([unit_column_cond(pp) for pp in planted]) >= QZ_DRAW_MEDIANS[klass]
    for pp in planted:
        for pair in (pp.change, pp.fixed):
            assert pair_relative_residual(pp.pencil, pair) <= 1e-13


def orbit_kinds(planted):
    """Which kinds of orbit the spectrum of one instance has: a T-SHH one its
    quadruples and imaginary and real pairs, another one its self-paired
    values and partner pairs."""
    values = np.concatenate([np.linalg.eigvals(planted.change.lam), np.diag(planted.fixed.lam)])
    if isinstance(planted.pencil, SHHPencil):
        if planted.pencil.star == "T":
            on_axis = np.minimum(np.abs(values.real), np.abs(values.imag)) <= 1e-12
            return {"quadruple" if not axis else "imaginary" if abs(v.imag) > abs(v.real)
                    else "real" for v, axis in zip(values, on_axis)}
        tag = planted.pencil.even_pencil().tag
    else:
        tag = planted.pencil.tag
    partners = symmetry_partner(values, tag)
    return {"single" if gap <= 1e-12 * (1 + abs(v)) else "pair"
            for v, gap in zip(values, np.abs(values - partners))}


@pytest.mark.parametrize("klass,kinds", [
    ("symmetric", {"single"}),
    ("hermitian", {"single", "pair"}),
    ("t-odd", {"pair"}),
    ("star-odd", {"single", "pair"}),
    ("t-even", {"pair"}),
    ("star-even", {"single", "pair"}),
    ("star-shh", {"single", "pair"}),
    ("t-shh", {"quadruple", "imaginary", "real"}),
])
def test_draws_keep_their_orbit_kinds(klass, kinds):
    assert set().union(*(orbit_kinds(plant(klass, seed, 12, 2)) for seed in range(1, 9))) == kinds


def test_t_odd_at_odd_n_has_its_zero():
    values = np.diag(plant_problem(4, 9, 3, "t-odd").change.lam)
    assert np.count_nonzero(np.abs(values) <= 1e-12) == 1


@pytest.mark.parametrize("n", [8, 60, 240])
def test_star_shh_plants_the_p_asked_for(n):
    for p in (1, 2, 3, 4):
        planted = plant("star-shh", 4242, n, p)
        values = np.diag(planted.change.lam)
        assert planted.change.x.shape[1] == p
        assert planted.parameters["num_couples"] == p // 2
        assert np.count_nonzero(values.real == 0) == p % 2
