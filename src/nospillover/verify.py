"""Verification certificates for computed updates.

Everything is reported, nothing is thrown: a Certificate collects residuals
(target, spillover), structure residuals, definiteness margins and an
optional spectrum match, and aggregates them into a single pass flag.

The target and spillover residuals are ``||M1 X Lam + K1 X||_F`` of a pair
on the updated pencil (M1, K1). A diagonal Lam, as in every planted and
quadratic fixed pair, is applied as a column scaling of M1 X; any other
Lam is multiplied densely. A ``DeflatingPair`` keeps a diagonal Lam as its
values (``lam_compact``), so the fixed pair is read as kept, with no scan
for zeros and no n x n Lam; the p x p target block is sorted by the same
rule, ``linalg.compact_lambda``. ||M1||_F and ||K1||_F are computed once
per certificate.

Cost model: each pair block costs one O(n^3) product pair, M1 X and K1 X.
Everything else is O(n^2) and reads each n x n matrix in contiguous
passes; ||Lam_f||_F of a diagonal fixed Lam is O(n), from its values.
M1 = M + (left mhat) right is formed once, from the update's factors, in
O(n a b + n^2 b) for an a x b core: O(n^2 p) on every solve path, O(n^3)
for a format-1 delta file, whose factors are (I_n, dM, dK, I_n). dM and dK
are formed only when ``psd`` names them. The structure
residuals are tiled passes (``linalg.star_residual``), not a transposed
read of a whole matrix.

The spectrum match takes the eigenvalues of a hermitian, star-odd or
star-even pencil from the Hermitian-definite reduction when its definite
matrix has a Cholesky factor (oracle ``"definite"``), and from a
values-only QZ otherwise (oracle ``"qz"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteEntries, SingularPencil
from .linalg import (
    TAU_DEFL, TAU_PSD, TAU_SPECTRUM, TAU_STRUCT,
    compact_lambda,
    eig_pencil,  # noqa: F401  perfbench/tests wraps verify.eig_pencil by this name
    eigvals_pencil,
    fnorm,
    herm_eigs,
    match_multisets,
)
from .pencil import DeflatingPair, StructuredPencil, structure_residuals
from .shh import SHHPencil, apply_j
from .special import DEFINITE_TAGS, definite_eigvals
from .unstructured import UpdateProblem, UpdateResult


@dataclass
class SpectrumMatch:
    max_distance: float
    unmatched: int
    infinite_computed: int
    oracle: str = "qz"  # "definite" or "qz": where the computed spectrum came from

    @property
    def passed(self) -> bool:
        return self.unmatched == 0 and self.max_distance <= TAU_SPECTRUM


@dataclass
class Certificate:
    """Residuals of an update; a spillover-only certificate has no target."""

    target_residual: float | None = None
    target_relative: float | None = None
    spillover_residual: float | None = None
    spillover_relative: float | None = None
    structure_residuals: dict = field(default_factory=dict)
    definiteness: dict = field(default_factory=dict)
    spectrum: SpectrumMatch | None = None
    tol_defl: float = TAU_DEFL

    @property
    def passed(self) -> bool:
        residuals = (self.target_relative, self.spillover_relative)
        ok = all(value <= self.tol_defl for value in residuals if value is not None)
        for value in self.structure_residuals.values():
            ok = ok and value <= TAU_STRUCT
        for value in self.definiteness.values():
            ok = ok and value >= -TAU_PSD
        if self.spectrum is not None:
            ok = ok and self.spectrum.passed
        return bool(ok)

    def summary_lines(self) -> list[str]:
        lines = []
        if self.target_residual is not None:
            lines.append(
                f"target residual    {self.target_residual:.3e} "
                f"(relative {self.target_relative:.3e})"
            )
        if self.spillover_residual is not None:
            lines.append(
                f"spillover residual {self.spillover_residual:.3e} "
                f"(relative {self.spillover_relative:.3e})"
            )
        for name, value in self.structure_residuals.items():
            lines.append(f"structure[{name}]    {value:.3e}")
        for name, value in self.definiteness.items():
            lines.append(f"min eig[{name}]      {value:.3e}")
        if self.spectrum is not None:
            lines.append(
                f"spectrum match     max dist {self.spectrum.max_distance:.3e}, "
                f"unmatched {self.spectrum.unmatched}"
            )
        lines.append("PASS" if self.passed else "FAIL")
        return lines


def _spectrum(pencil_or_mk) -> tuple[list[complex | None], str]:
    """(eigenvalues, oracle): the Hermitian-definite reduction for a pencil
    with a definite tag whose definite matrix has a Cholesky factor, else
    the values-only QZ."""
    if isinstance(pencil_or_mk, StructuredPencil):
        if pencil_or_mk.tag in DEFINITE_TAGS:
            try:
                return definite_eigvals(pencil_or_mk), "definite"
            except np.linalg.LinAlgError:
                pass
        pencil_or_mk = pencil_or_mk.m, pencil_or_mk.k
    return eigvals_pencil(*pencil_or_mk), "qz"


def spectrum_match(pencil_or_mk, expected) -> SpectrumMatch:
    """Match the computed spectrum against an expected multiset.

    The spectrum comes from ``_spectrum``: the Hermitian-definite reduction
    for a hermitian, star-odd or star-even ``StructuredPencil`` whose M (K
    for star-even) has a Cholesky factor, else a values-only QZ of the
    pencil or of the ``(M, K)`` tuple. The matching is
    ``match_multisets``'s minimum-cost assignment under
    |a-b|/(1+max(|a|,|b|)), which passes within TAU_SPECTRUM. Raises
    SingularPencil for non-regular pencils.
    """
    values, oracle = _spectrum(pencil_or_mk)
    computed = np.array([v for v in values if v is not None], dtype=np.complex128)
    infinite = len(values) - computed.size
    expected = np.atleast_1d(np.asarray(expected, dtype=np.complex128))
    maxdist, unmatched = match_multisets(expected, computed)
    return SpectrumMatch(maxdist, unmatched + infinite, infinite, oracle)


def certify(
    pencil: StructuredPencil | SHHPencil,
    result: UpdateResult,
    problem: UpdateProblem,
    expected_spectrum=None,
    psd: tuple[str, ...] = (),
    tol_defl: float = TAU_DEFL,
) -> Certificate:
    """Certificate for (dM, dK) against the problem's target and fixed pairs.

    ``psd`` names matrices whose minimum Hermitian eigenvalue should be
    reported ('delta_m', 'delta_k', 'm_updated', 'k_updated'). Structure
    residuals are computed against the pencil's tag when present; for an
    SHH pencil they are those of the star-even pencil J L(lambda) after the
    update, reported as ``jm_updated_skew`` and ``jk_updated_sym``.
    """
    m1, k1, norms = _updated_pencil(pencil, result)
    cert = _pair_certificate(pencil, m1, k1, norms, problem.fixed, tol_defl)
    cert.target_residual, cert.target_relative = _pair_residual(
        m1, k1, norms, problem.xa, compact_lambda(problem.target_lam)
    )
    for name in psd:
        matrix = {
            "delta_m": lambda: result.delta_m,
            "delta_k": lambda: result.delta_k,
            "m_updated": lambda: m1,
            "k_updated": lambda: k1,
        }[name]()
        evals = herm_eigs(matrix)
        scale = max(fnorm(matrix), 1e-300)
        cert.definiteness[name] = float(evals[0]) / scale
    if expected_spectrum is not None:
        # the updated pencil keeps the tag, for the definite oracle, only
        # when it has one and the structure residuals just computed pass
        structured = (
            isinstance(pencil, StructuredPencil)
            and cert.structure_residuals
            and all(value <= TAU_STRUCT for value in cert.structure_residuals.values())
        )
        updated = StructuredPencil._prechecked(m1, k1, pencil.tag) if structured else (m1, k1)
        try:
            cert.spectrum = spectrum_match(updated, expected_spectrum)
        except SingularPencil:
            cert.spectrum = SpectrumMatch(np.inf, len(expected_spectrum), 0)
    return cert


def certify_spillover(
    pencil: StructuredPencil | SHHPencil,
    result: UpdateResult,
    fixed: DeflatingPair,
    tol_defl: float = TAU_DEFL,
) -> Certificate:
    """Spillover-only certificate: the fixed pair's residual and the structure
    residuals of the updated pencil, for when no targets are known."""
    return _pair_certificate(pencil, *_updated_pencil(pencil, result), fixed, tol_defl)


def _updated_pencil(pencil, result: UpdateResult):
    """(M1, K1, (||M1||_F, ||K1||_F)) of the updated pencil M1 = M + dM,
    K1 = K + dK.

    It forms (left @ mhat) @ right, the same product as ``result.delta_m``,
    and adds M to it in place, so M1 equals ``pencil.m + result.delta_m``
    bit for bit without a separate dM. M and K are finite, so a NaN or Inf
    in the update shows in the norms; it raises NonFiniteEntries, named for
    dM or dK.
    """
    left, mhat, khat, right = result.factors
    with np.errstate(invalid="ignore"):  # an Inf times an exact zero is NaN, still non-finite
        m1, k1 = [((left @ core) @ right).astype(np.complex128, copy=False)
                  for core in (mhat, khat)]
    m1 += pencil.m
    k1 += pencil.k
    norms = fnorm(m1), fnorm(k1)
    for name, matrix, norm in (("dM", m1, norms[0]), ("dK", k1, norms[1])):
        if not np.isfinite(norm) and not np.isfinite(matrix).all():
            raise NonFiniteEntries(f"{name} contains NaN or Inf entries")
    return m1, k1, norms


def _pair_residual(m1, k1, norms, x, lam) -> tuple[float, float]:
    """||M1 X Lam + K1 X||_F, absolute and relative to (||M1|| ||Lam|| + ||K1||) ||X||,
    with ``norms`` = (||M1||_F, ||K1||_F) and ``lam`` in the form
    ``compact_lambda`` gives.

    The values of a diagonal Lam scale the columns of M1 X in place of a
    third O(n^3) product; any other Lam, such as a realified or T-SHH
    block, is multiplied densely. The sum is accumulated in M1 X.
    """
    r = m1 @ x
    if lam.ndim == 1:
        r *= lam
    else:
        r = r @ lam
    r += k1 @ x
    res = fnorm(r)
    scale = (norms[0] * fnorm(lam) + norms[1]) * fnorm(x)
    return res, res / max(scale, 1e-300)


def _pair_certificate(pencil, m1, k1, norms, fixed, tol_defl) -> Certificate:
    """Spillover and structure residuals of the updated pencil (M1, K1),
    whose Frobenius norms are ``norms``; J keeps them, as a signed row
    permutation."""
    cert = Certificate(tol_defl=tol_defl)
    if fixed is not None:
        cert.spillover_residual, cert.spillover_relative = _pair_residual(
            m1, k1, norms, fixed.x, fixed.lam_compact
        )
    if isinstance(pencil, SHHPencil):
        rm, rk = structure_residuals(
            apply_j(m1), apply_j(k1), pencil.even_pencil().tag, norms
        )
        cert.structure_residuals = {"jm_updated_skew": rm, "jk_updated_sym": rk}
    elif pencil.tag is not None:
        rm, rk = structure_residuals(m1, k1, pencil.tag, norms)
        cert.structure_residuals = {"m_updated": rm, "k_updated": rk}
    return cert
