"""Verification certificates for computed updates.

Everything is reported, nothing is thrown: a Certificate collects residuals
(target, spillover), structure residuals, definiteness margins and an
optional spectrum match, and aggregates them into a single pass flag.

The spectrum match takes the eigenvalues of a hermitian, star-odd or
star-even pencil from the Hermitian-definite reduction when its definite
matrix has a Cholesky factor (oracle ``"definite"``), and from a
values-only QZ otherwise (oracle ``"qz"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularPencil
from .linalg import (
    TAU_DEFL,
    TAU_STRUCT,
    as_matrix,
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

TAU_SPECTRUM = 1e-7  # relative distance of each matched eigenvalue
TAU_PSD = 1e-10  # how far below zero a reported min eigenvalue may be


@dataclass
class SpectrumMatch:
    max_distance: float
    unmatched: int
    infinite_computed: int
    tol: float
    oracle: str = "qz"  # "definite" or "qz": where the computed spectrum came from

    @property
    def passed(self) -> bool:
        return self.unmatched == 0 and self.max_distance <= self.tol


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


def spectrum_match(pencil_or_mk, expected, tol: float = TAU_SPECTRUM) -> SpectrumMatch:
    """Match the computed spectrum against an expected multiset.

    The spectrum comes from ``_spectrum``: the Hermitian-definite reduction
    for a hermitian, star-odd or star-even ``StructuredPencil`` whose M (K
    for star-even) has a Cholesky factor, else a values-only QZ of the
    pencil or of the ``(M, K)`` tuple. The matching is
    ``match_multisets``'s minimum-cost assignment under
    |a-b|/(1+max(|a|,|b|)). Raises SingularPencil for non-regular pencils.
    """
    values, oracle = _spectrum(pencil_or_mk)
    computed = np.array([v for v in values if v is not None], dtype=np.complex128)
    infinite = len(values) - computed.size
    expected = np.atleast_1d(np.asarray(expected, dtype=np.complex128))
    maxdist, unmatched = match_multisets(expected, computed)
    return SpectrumMatch(maxdist, unmatched + infinite, infinite, tol, oracle)


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
    dm, dk = as_matrix(result.delta_m, "dM"), as_matrix(result.delta_k, "dK")
    m1, k1 = pencil.m + dm, pencil.k + dk
    cert = _pair_certificate(pencil, m1, k1, problem.fixed, tol_defl)
    cert.target_residual, cert.target_relative = _pair_residual(
        m1, k1, problem.xa, problem.target_lam
    )
    for name in psd:
        matrix = {
            "delta_m": dm,
            "delta_k": dk,
            "m_updated": m1,
            "k_updated": k1,
        }[name]
        evals = herm_eigs(matrix)
        scale = max(fnorm(matrix), 1e-300)
        cert.definiteness[name] = float(evals[0]) / scale
    if expected_spectrum is not None:
        # the updated pencil keeps the tag, for the definite oracle, only
        # when it has one and its structure residuals pass
        structured = (
            isinstance(pencil, StructuredPencil)
            and cert.structure_residuals
            and all(value <= TAU_STRUCT for value in cert.structure_residuals.values())
        )
        updated = StructuredPencil(m1, k1, pencil.tag) if structured else (m1, k1)
        try:
            cert.spectrum = spectrum_match(updated, expected_spectrum)
        except SingularPencil:
            cert.spectrum = SpectrumMatch(np.inf, len(expected_spectrum), 0, TAU_SPECTRUM)
    return cert


def certify_spillover(
    pencil: StructuredPencil | SHHPencil,
    result: UpdateResult,
    fixed: DeflatingPair,
    tol_defl: float = TAU_DEFL,
) -> Certificate:
    """Spillover-only certificate: the fixed pair's residual and the structure
    residuals of the updated pencil, for when no targets are known."""
    dm, dk = as_matrix(result.delta_m, "dM"), as_matrix(result.delta_k, "dK")
    return _pair_certificate(pencil, pencil.m + dm, pencil.k + dk, fixed, tol_defl)


def _pair_residual(m1, k1, x, lam) -> tuple[float, float]:
    """||M1 X Lam + K1 X||_F, absolute and relative to (||M1|| ||Lam|| + ||K1||) ||X||."""
    res = fnorm(m1 @ x @ lam + k1 @ x)
    scale = (fnorm(m1) * fnorm(lam) + fnorm(k1)) * fnorm(x)
    return res, res / max(scale, 1e-300)


def _pair_certificate(pencil, m1, k1, fixed, tol_defl) -> Certificate:
    """Spillover and structure residuals of the updated pencil (M1, K1)."""
    cert = Certificate(tol_defl=tol_defl)
    if fixed is not None:
        cert.spillover_residual, cert.spillover_relative = _pair_residual(
            m1, k1, fixed.x, fixed.lam
        )
    if isinstance(pencil, SHHPencil):
        rm, rk = structure_residuals(apply_j(m1), apply_j(k1), pencil.even_pencil().tag)
        cert.structure_residuals = {"jm_updated_skew": rm, "jk_updated_sym": rk}
    elif pencil.tag is not None:
        rm, rk = structure_residuals(m1, k1, pencil.tag)
        cert.structure_residuals = {"m_updated": rm, "k_updated": rk}
    return cert
