"""Verification certificates for computed updates.

Everything is reported, nothing is thrown: a Certificate collects residuals
(target, spillover), structure residuals, definiteness margins and an
optional spectrum match, and aggregates them into a single pass flag.
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
from .unstructured import UpdateProblem, UpdateResult


@dataclass
class SpectrumMatch:
    max_distance: float
    unmatched: int
    infinite_computed: int
    tol: float

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
    tol_struct: float = TAU_STRUCT
    tol_psd: float = 1e-10

    @property
    def passed(self) -> bool:
        residuals = (self.target_relative, self.spillover_relative)
        ok = all(value <= self.tol_defl for value in residuals if value is not None)
        for value in self.structure_residuals.values():
            ok = ok and value <= self.tol_struct
        for value in self.definiteness.values():
            ok = ok and value >= -self.tol_psd
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


def spectrum_match(
    pencil_or_mk, expected, tol: float = 1e-7, allow_subset: bool = False
) -> SpectrumMatch:
    """Match the computed spectrum against an expected multiset.

    The spectrum comes from a values-only QZ of the pencil; the matching is
    ``match_multisets``'s minimum-cost assignment under
    |a-b|/(1+max(|a|,|b|)). With ``allow_subset`` the expected values only
    need to appear somewhere in the spectrum. Raises SingularPencil for
    non-regular pencils.
    """
    if isinstance(pencil_or_mk, StructuredPencil):
        m, k = pencil_or_mk.m, pencil_or_mk.k
    else:
        m, k = pencil_or_mk
    values = eigvals_pencil(m, k)
    computed = np.array([v for v in values if v is not None], dtype=np.complex128)
    infinite = len(values) - computed.size
    expected = np.atleast_1d(np.asarray(expected, dtype=np.complex128))
    if allow_subset and expected.size > computed.size:
        return SpectrumMatch(np.inf, expected.size - computed.size, infinite, tol)
    maxdist, unmatched = match_multisets(expected, computed)
    if allow_subset:
        return SpectrumMatch(maxdist, 0, infinite, tol)
    return SpectrumMatch(maxdist, unmatched + infinite, infinite, tol)


def certify(
    pencil: StructuredPencil,
    result: UpdateResult,
    problem: UpdateProblem,
    expected_spectrum=None,
    psd: tuple[str, ...] = (),
    check_structure: bool = True,
    tol_defl: float = TAU_DEFL,
    spectrum_tol: float = 1e-7,
) -> Certificate:
    """Certificate for (dM, dK) against the problem's target and fixed pairs.

    ``psd`` names matrices whose minimum Hermitian eigenvalue should be
    reported ('delta_m', 'delta_k', 'm_updated', 'k_updated'). Structure
    residuals are computed against the pencil's tag when present.
    """
    dm, dk = as_matrix(result.delta_m, "dM"), as_matrix(result.delta_k, "dK")
    m1, k1 = pencil.m + dm, pencil.k + dk
    cert = _pair_certificate(pencil, m1, k1, problem.fixed, check_structure, tol_defl)
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
        try:
            cert.spectrum = spectrum_match(
                (m1, k1), expected_spectrum, tol=spectrum_tol
            )
        except SingularPencil:
            cert.spectrum = SpectrumMatch(np.inf, len(expected_spectrum), 0, spectrum_tol)
    return cert


def certify_spillover(
    pencil: StructuredPencil,
    result: UpdateResult,
    fixed: DeflatingPair,
    tol_defl: float = TAU_DEFL,
) -> Certificate:
    """Spillover-only certificate: the fixed pair's residual and the structure
    residuals of the updated pencil, for when no targets are known."""
    dm, dk = as_matrix(result.delta_m, "dM"), as_matrix(result.delta_k, "dK")
    return _pair_certificate(
        pencil, pencil.m + dm, pencil.k + dk, fixed, check_structure=True, tol_defl=tol_defl
    )


def _pair_residual(m1, k1, x, lam) -> tuple[float, float]:
    """||M1 X Lam + K1 X||_F, absolute and relative to (||M1|| ||Lam|| + ||K1||) ||X||."""
    res = fnorm(m1 @ x @ lam + k1 @ x)
    scale = (fnorm(m1) * fnorm(lam) + fnorm(k1)) * fnorm(x)
    return res, res / max(scale, 1e-300)


def _pair_certificate(pencil, m1, k1, fixed, check_structure, tol_defl) -> Certificate:
    """Spillover and structure residuals of the updated pencil (M1, K1)."""
    cert = Certificate(tol_defl=tol_defl)
    if fixed is not None:
        cert.spillover_residual, cert.spillover_relative = _pair_residual(
            m1, k1, fixed.x, fixed.lam
        )
    if check_structure and pencil.tag is not None:
        rm, rk = structure_residuals(m1, k1, pencil.tag)
        cert.structure_residuals = {"m_updated": rm, "k_updated": rk}
    return cert
