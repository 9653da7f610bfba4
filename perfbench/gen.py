"""Seeded pencils with a known eigendecomposition, built without QZ.

A pencil is assembled as M = Y^s D_M Y, K = Y^s D_K Y with Y = X^{-1},
where (D_M, D_K) is block diagonal with 1x1 or 2x2 blocks and ``s`` is the
adjoint ('*' or 'T'). If each block pencil is (s, eps1, eps2)-structured,
so is (M, K), and its eigenvectors are X times the block eigenvectors. That
costs one inverse and two products, so planting at n=512 takes a fraction
of a second where a full QZ with eigenvectors takes several.

X is a random unitary (orthogonal for real pencils) times I + 0.2 G/sqrt(n),
so its condition number stays near 2 at every size.
"""

from __future__ import annotations

import numpy as np


def star(a: np.ndarray, which: str) -> np.ndarray:
    """Adjoint over the last two axes: conjugate transpose for '*'."""
    t = np.swapaxes(a, -1, -2)
    return t.conj() if which == "*" else t


def partner(z, which: str, eps1: int, eps2: int):
    """The eigenvalue eps1 * eps2 * z^s that the structure pairs with z."""
    return eps1 * eps2 * (np.conj(z) if which == "*" else z)


def randn(rng, shape, real: bool) -> np.ndarray:
    """Standard normal entries; complex ones have unit variance."""
    if real:
        return rng.standard_normal(shape)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def basis(rng, n: int, real: bool) -> np.ndarray:
    q, _ = np.linalg.qr(randn(rng, (n, n), real))
    return q @ (np.eye(n) + 0.2 * randn(rng, (n, n), real) / np.sqrt(n))


def structured_blocks(rng, nb: int, which: str, eps1: int, eps2: int):
    """nb random 2x2 (D_M, D_K) blocks with the (which, eps1, eps2) symmetry.

    Blocks whose eigenvalues leave [0.1, 10] in modulus are redrawn, so no
    block makes M nearly singular or the spectrum badly scaled.
    """
    out_m, out_k = [], []
    while len(out_m) < nb:
        a = randn(rng, (2 * nb, 2, 2), False)
        c = randn(rng, (2 * nb, 2, 2), False)
        dm = (a + eps1 * star(a, which)) / 2
        dk = (c + eps2 * star(c, which)) / 2
        lam, _ = block_eig(dm, dk)
        mod = np.abs(lam)
        keep = np.all((mod >= 0.1) & (mod <= 10.0), axis=1)
        out_m.extend(dm[keep])
        out_k.extend(dk[keep])
    return np.array(out_m[:nb]), np.array(out_k[:nb])


def block_eig(dm: np.ndarray, dk: np.ndarray):
    """Eigenpairs of each block pencil lambda*D_M + D_K: (nb, b), (nb, b, b)."""
    lam, vec = np.linalg.eig(np.linalg.solve(dm, -dk))
    return lam.astype(complex), vec.astype(complex)


def assemble(rng, dm: np.ndarray, dk: np.ndarray, which: str, eps1=None, eps2=None,
             real: bool = False):
    """(M, K, eigenvectors, eigenvalues) of the pencil built on the blocks.

    Column j of the eigenvector matrix belongs to eigenvalue j; block b owns
    columns b*bs .. b*bs + bs - 1. With eps1/eps2 given, M and K are
    symmetrized to carry that structure exactly.
    """
    nb, bs, _ = dm.shape
    n = nb * bs
    x = basis(rng, n, real)
    y = np.linalg.inv(x)
    yb = y.reshape(nb, bs, n)
    ys = star(y, which)
    m = ys @ np.einsum("kij,kjn->kin", dm, yb).reshape(n, n)
    k = ys @ np.einsum("kij,kjn->kin", dk, yb).reshape(n, n)
    if eps1 is not None:
        m = (m + eps1 * star(m, which)) / 2
        k = (k + eps2 * star(k, which)) / 2
    lam, vec = block_eig(dm, dk)
    vectors = np.einsum("nki,kij->nkj", x.reshape(n, nb, bs), vec).reshape(n, n)
    return m.astype(complex), k.astype(complex), vectors, lam.reshape(n)


def perturb(rng, z: complex) -> complex:
    return complex(z * (1 + 0.1 * rng.standard_normal())
                   + 0.2 * (rng.standard_normal() + 1j * rng.standard_normal()))


def orbit_targets(rng, lam: np.ndarray, which: str, eps1: int, eps2: int):
    """Targets for a change set made of whole 2x2 blocks.

    A block holds either two self-paired eigenvalues, each moved to a
    self-paired target, or a pair (z, partner(z)), moved to (t, partner(t)).
    Returns None for a block too close to the boundary between the two.
    """
    out = []
    for z1, z2 in lam.reshape(-1, 2):
        tiny = 1e-10 * (1 + abs(z1))
        if abs(z1 - z2) <= 1e-3 * (1 + abs(z1)):
            return None
        if abs(partner(z1, which, eps1, eps2) - z1) <= tiny:
            for z in (z1, z2):
                t = perturb(rng, z)
                out.append((t + partner(t, which, eps1, eps2)) / 2)
        elif abs(partner(z1, which, eps1, eps2) - z2) <= tiny:
            t = perturb(rng, z1)
            out += [t, partner(t, which, eps1, eps2)]
        else:
            return None
    return np.array(out)


def well_spaced(rng, n: int, lo: float = 1.0, hi: float = 5.0) -> np.ndarray:
    """n values in [lo, hi], consecutive ones at least (hi-lo)/(2n) apart."""
    step = (hi - lo) / n
    return lo + step * (np.arange(n) + 0.25 + 0.5 * rng.random(n))


DEFINITE = {
    # class: (eps1, eps2, positive definite matrix, axis of the eigenvalues)
    "hermitian": (1, 1, "M", 1.0),
    "star-odd": (1, -1, "M", 1j),
    "star-even": (-1, 1, "K", 1j),
}


def definite_pencil(rng, n: int, klass: str):
    """Definite-class pencil from 1x1 blocks, eigenvalues well spaced on its axis.

    The positive matrix's block is d in [1, 2); the other block is chosen so
    that the eigenvalue -D_K/D_M equals the drawn value.
    """
    eps1, eps2, positive, axis = DEFINITE[klass]
    mu = axis * well_spaced(rng, n) * rng.choice([-1.0, 1.0], n)
    d = 1.0 + rng.random(n)
    dm, dk = (d, -mu * d) if positive == "M" else (-d / mu, d)
    blocks = [np.asarray(b, dtype=complex).reshape(n, 1, 1) for b in (dm, dk)]
    return assemble(rng, *blocks, "*", eps1, eps2)
