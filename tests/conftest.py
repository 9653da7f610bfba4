"""Shared generators: dense random structured and SHH pencils, and planted
instances of the definite structured classes."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

import nospillover
from nospillover.linalg import TAU_NUM, as_matrix, block_diag, eig_pencil, fnorm
from nospillover.pencil import (
    HERMITIAN,
    STAR_EVEN,
    STAR_ODD,
    T_EVEN,
    T_ODD,
    StructuredPencil,
    star,
)
from nospillover.shh import SHHPencil, apply_j
from nospillover.unstructured import UpdateResult


def finite_eigenvalues(pairs) -> np.ndarray:
    """The finite eigenvalues of a list of pencil eigenpairs."""
    return np.array([p.value for p in pairs if p.finite], dtype=np.complex128)


def pencil_scale(pencil) -> float:
    """||M||_F + ||K||_F of a pencil."""
    return fnorm(pencil.m) + fnorm(pencil.k)


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose inverse via SVD with relative rank cutoff TAU_NUM, the
    reference for ``solve_general``'s minimum-norm solution. The zero matrix
    maps to the zero matrix of transposed shape."""
    a = as_matrix(a, "A")
    if fnorm(a) == 0.0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=np.complex128)
    return np.linalg.pinv(a, rcond=TAU_NUM)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dense_update(dm, dk) -> UpdateResult:
    """The update (dM, dK) as a format-1 delta file gives it: the factors
    (I_n, dM, dK, I_n)."""
    eye = np.eye(np.shape(dm)[0])
    return UpdateResult(factors=(eye, dm, dk, eye))


def random_structured_pencil(rng, n, tag):
    """Dense random pencil with exact (star, eps1, eps2)-structure."""
    a = crandn(rng, n, n)
    b = crandn(rng, n, n)
    m = (a + tag.eps1 * star(a, tag.star)) / 2
    k = (b + tag.eps2 * star(b, tag.star)) / 2
    return StructuredPencil(m, k, tag)


def random_shh_pencil(rng, half_n, which_star):
    """Random SHH pencil of size 2*half_n: M = -J S, K = -J H with S
    star-skew and H star-symmetric (real entries for star = 'T')."""
    size = 2 * half_n
    if which_star == "*":
        a, b = crandn(rng, size, size), crandn(rng, size, size)
    else:
        a = rng.standard_normal((size, size)).astype(complex)
        b = rng.standard_normal((size, size)).astype(complex)
    s = (a - star(a, which_star)) / 2
    h = (b + star(b, which_star)) / 2
    return SHHPencil(apply_j(s, transpose=True), apply_j(h, transpose=True), which_star)


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


def realified_fixed_pair(seed, n=8, pairs=1):
    """(pencil, X, Lambda) of a real T-odd pencil's fixed conjugate pairs
    (x, a + ib) in realified form ([re x, im x], [[a, b], [-b, a]])."""
    pencil, _, fixed = plant_t_odd_real(seed, n=n, pairs=pairs)
    upper = [e for e in fixed if e.value.imag > 0][:2]
    x = np.hstack([np.column_stack([e.vector.real, e.vector.imag]) for e in upper])
    lam = block_diag(
        *[np.array([[e.value.real, e.value.imag], [-e.value.imag, e.value.real]])
          for e in upper]
    )
    return pencil, x, lam.astype(complex)


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


def encode_matrix(a) -> list:
    """``a`` as the nested JSON lists of a file: each entry as its [re, im]
    pair of floats, bit for bit."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def same_values(a, b) -> bool:
    """Whether two parsed JSON trees hold the same values: equal keys,
    types and strings, and floats with equal bit patterns (-0.0 is not 0.0,
    and NaN equals NaN)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_values(a[key], b[key]) for key in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_values, a, b))
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


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


def t_shh_shape(planted):
    """(quadruples, imaginary pairs, real pairs) of a ``plant_t_shh`` instance,
    whose one changed group is read off its change Lambda: a 4 x 4 block is
    a quadruple, a 2 x 2 block with a zero diagonal an imaginary pair, and a
    diagonal one a real pair."""
    lam = planted.change.lam
    if lam.shape == (4, 4):
        return (1, 0, 0)
    return (0, 1, 0) if not lam.diagonal().any() else (0, 0, 1)


def t_shh_solve(planted, mhat=None, z_params=None):
    """``t_shh_update`` of a ``plant_t_shh`` instance on its change pair and
    targets, with the core ``core_from_parameters`` builds on re(G) from
    ``mhat`` or ``z_params`` = (Z1, Z2), Mh = 0 when neither is given."""
    from nospillover.shh import shh_gramian, t_shh_update
    from nospillover.structured import core_from_parameters

    xc, lam_c, lam_a = planted.change.x, planted.change.lam, planted.target_lam
    g, _ = shh_gramian(planted.pencil, xc)
    z1, z2 = (None, None) if z_params is None else z_params
    core = core_from_parameters(g.real, lam_c, lam_a, mhat=mhat, z1=z1, z2=z2)
    return t_shh_update(planted.pencil, xc, lam_c, lam_a, core)
