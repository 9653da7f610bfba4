"""Shared generators for the definite structured classes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import nospillover
from nospillover.linalg import eig_pencil
from nospillover.pencil import (
    HERMITIAN,
    STAR_EVEN,
    STAR_ODD,
    T_EVEN,
    T_ODD,
    StructuredPencil,
)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _split(eigs, p, key=None):
    eigs = sorted(eigs, key=key) if key else list(eigs)
    change, fixed = eigs[:p], eigs[p:]
    xc = np.hstack([e.vector.reshape(-1, 1) for e in change])
    lam_c = np.array([e.value for e in change])
    xf = np.hstack([e.vector.reshape(-1, 1) for e in fixed])
    lam_f = np.array([e.value for e in fixed])
    return xc, lam_c, xf, lam_f


def plant_hermitian_definite(seed, n=6, p=2):
    """Hermitian pencil with M > 0; returns pencil and split eigendata."""
    rng = np.random.default_rng([seed, 1])
    b = crandn(rng, n, n)
    m = b @ b.conj().T + n * np.eye(n)
    h = crandn(rng, n, n)
    k = h + h.conj().T
    pencil = StructuredPencil(m, k, HERMITIAN)
    return (pencil,) + _split(eig_pencil(m, k), p, key=lambda e: e.value.real)


def plant_hermitian_definite_pd_k(seed, n=6, p=2):
    """Hermitian pencil with M > 0 and K > 0 (all eigenvalues negative)."""
    rng = np.random.default_rng([seed, 2])
    b = crandn(rng, n, n)
    m = b @ b.conj().T + n * np.eye(n)
    c = crandn(rng, n, n)
    k = c @ c.conj().T + n * np.eye(n)
    pencil = StructuredPencil(m, k, HERMITIAN)
    return (pencil,) + _split(eig_pencil(m, k), p, key=lambda e: e.value.real)


def plant_star_odd(seed, n=6, p=2):
    """star-odd pencil with M > 0; eigenvalues purely imaginary."""
    rng = np.random.default_rng([seed, 3])
    b = crandn(rng, n, n)
    m = b @ b.conj().T + n * np.eye(n)
    c = crandn(rng, n, n)
    k = (c - c.conj().T) / 2
    pencil = StructuredPencil(m, k, STAR_ODD)
    return (pencil,) + _split(eig_pencil(m, k), p, key=lambda e: e.value.imag)


def plant_star_even(seed, n=6, p=2):
    """star-even pencil with K > 0; eigenvalues purely imaginary nonzero."""
    rng = np.random.default_rng([seed, 4])
    a = crandn(rng, n, n)
    m = (a - a.conj().T) / 2
    b = crandn(rng, n, n)
    k = b @ b.conj().T + n * np.eye(n)
    pencil = StructuredPencil(m, k, STAR_EVEN)
    return (pencil,) + _split(eig_pencil(m, k), p, key=lambda e: e.value.imag)


def plant_t_odd_real(seed, n=6, pairs=1):
    """Real T-odd pencil with M > 0; returns conjugate-pair eigendata.

    Gives (pencil, change_eigenpairs, fixed_eigs) where change_eigenpairs
    holds one (lam, x) per chosen conjugate pair (im(lam) > 0) and
    fixed_eigs the remaining eigenpairs.
    """
    rng = np.random.default_rng([seed, 5])
    b = rng.standard_normal((n, n))
    m = b @ b.T + n * np.eye(n)
    c = rng.standard_normal((n, n))
    k = c - c.T
    pencil = StructuredPencil(m, k, T_ODD)
    eigs = [e for e in eig_pencil(m, k) if e.finite]
    ups = sorted(
        [e for e in eigs if e.value.imag > 1e-8], key=lambda e: -e.value.imag
    )
    chosen = ups[:pairs]
    chosen_vals = {id(e) for e in chosen}
    partners = []
    for e in chosen:
        for f in eigs:
            if abs(f.value - np.conj(e.value)) <= 1e-8 * (1 + abs(e.value)):
                partners.append(f)
                break
    fixed = [
        e
        for e in eigs
        if id(e) not in chosen_vals and all(e is not f for f in partners)
    ]
    change = [(e.value, e.vector.reshape(-1, 1)) for e in chosen]
    return pencil, change, fixed


def plant_t_even_real(seed, n=6, pairs=1):
    """Real T-even pencil with K > 0 (n must be even)."""
    rng = np.random.default_rng([seed, 6])
    a = rng.standard_normal((n, n))
    m = a - a.T
    b = rng.standard_normal((n, n))
    k = b @ b.T + n * np.eye(n)
    pencil = StructuredPencil(m, k, T_EVEN)
    eigs = [e for e in eig_pencil(m, k) if e.finite]
    ups = sorted(
        [e for e in eigs if e.value.imag > 1e-8], key=lambda e: -e.value.imag
    )
    chosen = ups[:pairs]
    partners = []
    for e in chosen:
        for f in eigs:
            if abs(f.value - np.conj(e.value)) <= 1e-8 * (1 + abs(e.value)):
                partners.append(f)
                break
    fixed = [
        e
        for e in eigs
        if all(e is not c for c in chosen) and all(e is not f for f in partners)
    ]
    change = [(e.value, e.vector.reshape(-1, 1)) for e in chosen]
    return pencil, change, fixed


def fresh_python_env():
    """The environment of a new interpreter that imports this checkout's package."""
    src = str(Path(nospillover.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_fresh_python(code):
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    return subprocess.run(
        [sys.executable, "-c", code],
        env=fresh_python_env(),
        capture_output=True,
        text=True,
    )


def hungarian_max(cost):
    """Largest entry of scipy's minimum-cost assignment: the matching reference."""
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def relative_cost(a, b):
    """|a_i - b_j| / (1 + max(|a_i|, |b_j|)) for every pair."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return np.abs(a[:, None] - b[None, :]) / (
        1.0 + np.maximum(np.abs(a)[:, None], np.abs(b)[None, :])
    )


def spillover_residual(pencil, delta_m, delta_k, fixed_eigs):
    """Relative fixed-pair residual of the updated pencil."""
    from nospillover.linalg import fnorm

    xf = np.hstack([e.vector.reshape(-1, 1) for e in fixed_eigs])
    lf = np.diag([e.value for e in fixed_eigs])
    m1, k1 = pencil.m + delta_m, pencil.k + delta_k
    return fnorm(m1 @ xf @ lf + k1 @ xf) / (fnorm(m1) * (1 + fnorm(lf)) + fnorm(k1))


def t_shh_groups(planted):
    """(EigGrouping, target groups) of a ``plant_t_shh`` instance, read back
    from its change basis (the columns ``t_shh_basis`` builds) and from the
    blocks of its change and target Lambdas."""
    from nospillover.shh import EigGrouping

    counts = [planted.parameters[key] for key in
              ("num_quadruples", "num_imag_pairs", "num_real_pairs")]
    x = planted.change.x.real
    lam_c, lam_a = planted.change.lam.real, planted.target_lam.real
    groups, targets = ([], [], []), ([], [], [])
    pos = 0
    for kind, count in enumerate(counts):
        for _ in range(count):
            c = x[:, pos:pos + 4]
            if kind == 0:  # quadruple: x.real, x.imag, xhat.real, xhat.imag
                lam = complex(lam_c[pos, pos], lam_c[pos, pos + 1])
                mu = complex(lam_a[pos, pos], lam_a[pos, pos + 1])
                groups[0].append((lam, c[:, :1] + 1j * c[:, 1:2], c[:, 2:3] + 1j * c[:, 3:4]))
            elif kind == 1:  # imaginary pair: x.real, x.imag
                lam, mu = 1j * lam_c[pos, pos + 1], 1j * lam_a[pos, pos + 1]
                groups[1].append((lam, c[:, :1] + 1j * c[:, 1:2]))
            else:  # real pair: x, xhat
                lam, mu = complex(lam_c[pos, pos]), lam_a[pos, pos]
                groups[2].append((lam, c[:, :1], c[:, 1:2]))
            targets[kind].append(mu)
            pos += 4 if kind == 0 else 2
    return EigGrouping(*map(tuple, groups)), tuple(map(tuple, targets))
