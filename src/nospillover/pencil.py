"""Structured pencils lambda*M + K and deflating-pair algebra.

A pencil has (star, eps1, eps2)-structure when M^star = eps1*M and
K^star = eps2*K with star in {transpose, conjugate-transpose}. Deflating
pairs (X, Lambda) satisfy M X Lambda + K X = 0 with X of full column rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, MissingStar, NotPositiveDefinite, NotStructured
from .linalg import (
    TAU_NUM, TAU_STRUCT, as_matrix, compact_lambda, fnorm, require_square, star_residual,
)

STAR_CONJ = "*"
STAR_TRANS = "T"


def star(a: np.ndarray, which: str) -> np.ndarray:
    """A^star: conjugate transpose for '*', plain transpose for 'T'."""
    if which == STAR_CONJ:
        return a.conj().T
    if which == STAR_TRANS:
        return a.T
    raise ValueError(f"unknown adjoint type {which!r}")


def star_scalar(z: complex, which: str) -> complex:
    return np.conj(z) if which == STAR_CONJ else z


@dataclass(frozen=True)
class StructureTag:
    """One of the six symmetry classes (star, eps1, eps2)."""

    star: str
    eps1: int
    eps2: int

    def __post_init__(self):
        if self.star not in (STAR_CONJ, STAR_TRANS):
            raise ValueError(f"star must be '*' or 'T', got {self.star!r}")
        if self.eps1 not in (-1, 1) or self.eps2 not in (-1, 1):
            raise ValueError("eps1 and eps2 must be +1 or -1")

    @property
    def name(self) -> str:
        return _TAG_NAMES[self]


SYMMETRIC = StructureTag(STAR_TRANS, 1, 1)
HERMITIAN = StructureTag(STAR_CONJ, 1, 1)
T_ODD = StructureTag(STAR_TRANS, 1, -1)
STAR_ODD = StructureTag(STAR_CONJ, 1, -1)
T_EVEN = StructureTag(STAR_TRANS, -1, 1)
STAR_EVEN = StructureTag(STAR_CONJ, -1, 1)

ALL_TAGS = (SYMMETRIC, HERMITIAN, T_ODD, STAR_ODD, T_EVEN, STAR_EVEN)

_TAG_NAMES = {
    SYMMETRIC: "symmetric",
    HERMITIAN: "hermitian",
    T_ODD: "t-odd",
    STAR_ODD: "star-odd",
    T_EVEN: "t-even",
    STAR_EVEN: "star-even",
}

TAG_BY_NAME = {name: tag for tag, name in _TAG_NAMES.items()}


def structure_residuals(m: np.ndarray, k: np.ndarray, tag: StructureTag, norms=None):
    """Relative symmetry residuals ||M^star - eps1 M||_F / ||M||_F (and the
    same for K, eps2) under the given tag, by the tiled ``star_residual``.

    ``norms`` is (||M||_F, ||K||_F) when the caller has them already.
    """
    nm, nk = (fnorm(m), fnorm(k)) if norms is None else norms
    conjugate = tag.star == STAR_CONJ
    rm = star_residual(m, conjugate, tag.eps1) / max(nm, 1e-300)
    rk = star_residual(k, conjugate, tag.eps2) / max(nk, 1e-300)
    return rm, rk


def classify_structure(m, k) -> list[StructureTag]:
    """All structure tags whose symmetry residuals are within TAU_STRUCT."""
    m = require_square(as_matrix(m, "M"), "M")
    k = as_matrix(k, "K")
    if k.shape != m.shape:
        raise DimensionMismatch(f"M is {m.shape} but K is {k.shape}")
    norms = fnorm(m), fnorm(k)
    found = []
    for tag in ALL_TAGS:
        rm, rk = structure_residuals(m, k, tag, norms)
        if rm <= TAU_STRUCT and rk <= TAU_STRUCT:
            found.append(tag)
    return found


@dataclass(frozen=True)
class StructuredPencil:
    """Square pencil lambda*M + K with an optional structure tag."""

    m: np.ndarray
    k: np.ndarray
    tag: StructureTag | None = None

    def __post_init__(self):
        m = require_square(as_matrix(self.m, "M"), "M")
        k = as_matrix(self.k, "K")
        if k.shape != m.shape:
            raise DimensionMismatch(f"M is {m.shape} but K is {k.shape}")
        if self.tag is not None:
            rm, rk = structure_residuals(m, k, self.tag)
            if rm > TAU_STRUCT or rk > TAU_STRUCT:
                raise NotStructured(
                    f"pencil does not have {self.tag.name} structure "
                    f"(residuals {rm:.2e}, {rk:.2e})"
                )
        m.setflags(write=False)
        k.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)

    @classmethod
    def _prechecked(cls, m: np.ndarray, k: np.ndarray, tag: StructureTag | None):
        """The pencil of complex128 M and K whose tag residuals the caller has
        already checked: neither is copied or checked again."""
        pencil = object.__new__(cls)
        for name, value in (("m", m), ("k", k), ("tag", tag)):
            object.__setattr__(pencil, name, value)
        return pencil

    @property
    def n(self) -> int:
        return self.m.shape[0]

    @property
    def star(self) -> str:
        if self.tag is None:
            raise MissingStar("pencil is unstructured: it has no adjoint")
        return self.tag.star

    def eig(self):
        return linalg.eig_pencil(self.m, self.k)


class DeflatingPair:
    """(X, Lambda) with M X Lambda + K X = 0; Lambda need not be diagonal.

    The pair decides once, when it is built, whether Lambda is diagonal (no
    nonzero off its diagonal, ``linalg.compact_lambda``). A diagonal Lambda,
    as in every planted, quadratic and ``random`` fixed pair, is kept as its
    values, so a fixed pair of order n - p holds no (n - p)^2 matrix;
    ``lam`` forms the matrix on each access. ``lam_compact`` is Lambda as
    kept: the 1-d values of a diagonal Lambda, else the matrix.
    """

    __slots__ = ("x", "lam_compact")

    def __init__(self, x, lam):
        x = as_matrix(x, "X")
        lam = require_square(as_matrix(lam, "Lambda"), "Lambda")
        if lam.shape[0] != x.shape[1]:
            raise DimensionMismatch(
                f"X has {x.shape[1]} columns but Lambda is {lam.shape}"
            )
        if x.shape[1] > 0 and linalg.rcond_estimate(x) <= TAU_NUM:
            raise DimensionMismatch("X is column rank deficient")
        lam = compact_lambda(lam)
        x.setflags(write=False)
        lam.setflags(write=False)
        self.x = x
        self.lam_compact = lam

    @property
    def lam(self) -> np.ndarray:
        lam = self.lam_compact
        return np.diag(lam) if lam.ndim == 1 else lam

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues of Lambda: its values when diagonal."""
        lam = self.lam_compact
        return lam if lam.ndim == 1 else np.linalg.eigvals(lam)


def normalize_columns(
    pencil: StructuredPencil, x, mode: str = "M"
) -> np.ndarray:
    """Rescale columns so that X^* W X = I (W = M or K by ``mode``).

    Works when the column-space Gramian is Hermitian positive definite
    (e.g. eigenvectors of a pencil with W > 0); repeated-eigenvalue blocks
    are handled by the Cholesky factor, which performs Gram-Schmidt in the
    W-inner product. Each output column is phase-rotated so its
    largest-magnitude entry is real positive.
    """
    x = as_matrix(x, "X")
    if mode not in ("M", "K"):
        raise ValueError("mode must be 'M' or 'K'")
    w = pencil.m if mode == "M" else pencil.k
    c = x.conj().T @ w @ x
    evals = linalg.herm_eigs(c)  # raises NotHermitian for bad W/X
    if evals[0] <= TAU_NUM * max(fnorm(c), 1e-300):
        raise NotPositiveDefinite(
            f"{mode}-Gramian of X is not positive definite (min eig {evals[0]:.2e})"
        )
    r = np.linalg.cholesky((c + c.conj().T) / 2.0).conj().T  # c = r^* r
    out = np.linalg.solve(r.T, x.T).T  # x @ inv(r)
    for j in range(out.shape[1]):
        out[:, j] = linalg._fix_phase(out[:, j])
    return out


def symmetry_partner(lam_values, tag: StructureTag) -> np.ndarray:
    """eps1*eps2*lambda^star applied entrywise to a list of eigenvalues."""
    vals = np.atleast_1d(np.asarray(lam_values, dtype=np.complex128))
    return tag.eps1 * tag.eps2 * np.array(
        [star_scalar(v, tag.star) for v in vals]
    )
