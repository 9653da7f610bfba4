"""Bundled reference problems with published expected results.

Four worked examples from the literature, stored at their printed
precision (4-6 significant digits). Each case builds its problem file from
the exact (M, K) inputs, and the `reproduce` command solves it as
``solve`` does, with ``dispatch.solve_problem``: eigendata recomputed in
full precision, the update certified with ``verify.certify``, spectrum
match included. It then compares the perturbations with the printed
matrices.

Deviations are measured entrywise, scaled by the largest printed
magnitude, since the printed data itself is truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dispatch import SHH_STARS, solve_problem
from .fileio import PairBlock, ProblemFile
from .linalg import (
    PUBLISHED_MATRIX_TOL, TAU_PSD, TAU_STRUCT,
    eig_pencil, herm_eigs, largest_entry_scaled, nearest_eigenvalues,
)
from .pencil import TAG_BY_NAME, StructureTag, structure_residuals
from .shh import apply_j
from .verify import Certificate

_H61_M = np.diag([1.294] * 5)
_H61_K = [
    [1188.5, 196.6, 0.0, 0.0, -642.4],
    [196.6, 626.3, 0.0, -555.6, 0.0],
    [0.0, 0.0, 1188.5, -196.6, -546.1],
    [0.0, -555.6, -196.6, 626.3, 196.6],
    [-642.4, 0.0, -546.1, 196.6, 4019.1],
]
_H61_XC = [
    [-0.177539, 0.125286],
    [-0.018246, -0.611759],
    [-0.153557, -0.085635],
    [0.056719, -0.611579],
    [0.845073, 0.038600],
]
_H61_DM = 1e-3 * np.array(
    [
        [0.5674, -2.7703, -0.3878, -2.7695, 0.1747],
        [-2.7703, 13.5270, 1.8935, 13.5231, -0.8535],
        [-0.3878, 1.8935, 0.2651, 1.8930, -0.1196],
        [-2.7695, 13.5231, 1.8930, 13.5191, -0.8532],
        [0.1747, -0.8535, -0.1196, -0.8532, 0.0543],
    ]
)
_H61_DK = 1e-2 * np.array(
    [
        [2.4878, 0.2557, 2.1517, -0.7948, -11.8415],
        [0.2557, 0.0263, 0.2211, -0.0817, -1.2170],
        [2.1517, 0.2211, 1.8611, -0.6874, -10.2420],
        [-0.7948, -0.0817, -0.6874, 0.2539, 3.7831],
        [-11.8415, -1.2170, -10.2420, 3.7831, 56.3650],
    ]
)
_H61_XF = [
    [0.547227, 0.642402, -0.115946],
    [-0.262485, 0.244128, -0.519345],
    [0.522356, -0.545451, -0.414139],
    [0.313086, -0.033487, 0.544433],
    [0.183201, 0.043366, -0.147365],
]

_O62_M = [
    [7.73863 + 0.00000j, -1.98637 - 4.01069j, 4.09960 - 3.39198j, -0.13418 + 2.89422j],
    [-1.98637 + 4.01069j, 6.55893 + 0.00000j, 1.90812 + 3.90598j, -2.03549 + 1.81182j],
    [4.09960 + 3.39198j, 1.90812 - 3.90598j, 6.65654 + 0.00000j, 1.02186 + 1.42954j],
    [-0.13418 - 2.89422j, -2.03549 - 1.81182j, 1.02186 - 1.42954j, 6.46526 + 0.00000j],
]
_O62_K = [
    [0.00000 + 3.90061j, 2.0140 - 0.30415j, 1.34863 + 1.79442j, 0.05369 - 1.38714j],
    [-2.0140 - 0.30415j, 0.00000 - 2.49371j, 0.30279 + 1.11588j, 0.35925 - 1.54051j],
    [-1.34863 + 1.79442j, -0.30279 + 1.11588j, 0.00000 - 0.49211j, -0.97818 - 1.32790j],
    [-0.05369 - 1.38714j, -0.35925 - 1.54051j, 0.97818 - 1.32790j, 0.00000 + 1.85364j],
]
_O62_XC = [
    [0.776569 - 0.000000j, 0.617954 - 0.000000j],
    [0.747129 - 0.098152j, 0.153552 + 0.005888j],
    [-0.714782 - 0.126987j, -0.229136 - 0.266691j],
    [0.444742 + 0.301815j, 0.038972 + 0.500083j],
]
_O62_DM = [
    [2.91691 - 0.00000j, -1.34898 + 0.69543j, 0.58908 - 1.38017j, -2.65147 - 0.99875j],
    [-1.34898 - 0.69543j, 1.59117 + 0.00000j, -0.77640 + 0.88115j, 1.14417 + 1.21855j],
    [0.58908 + 1.38017j, -0.77640 - 0.88115j, 0.99350 + 0.00000j, -0.03741 - 1.55808j],
    [-2.65147 + 0.99875j, 1.14417 - 1.21855j, -0.03741 + 1.55808j, 2.80188 + 0.00000j],
]
_O62_DK = [
    [0.00000 - 5.25520j, -0.87564 + 0.59483j, -1.14421 - 1.67866j, -1.92869 + 4.08890j],
    [0.87564 + 0.59483j, 0.00000 + 6.19427j, -2.65507 - 1.39903j, -1.45840 + 0.46343j],
    [1.14421 - 1.67866j, 2.65507 - 1.39903j, 0.00000 + 0.98530j, -0.69246 + 1.08993j],
    [1.92869 + 4.08890j, 1.45840 + 0.46343j, 0.69246 + 1.08993j, 0.00000 - 3.49173j],
]
_O62_XF = [
    [0.196502 + 0.024767j, -0.048688 + 0.190081j],
    [-0.036828 + 0.054982j, 0.095288 - 0.254723j],
    [-0.150920 + 0.086267j, 0.466261 + 0.000000j],
    [0.231864 + 0.000000j, 0.099775 + 0.083410j],
]

_E63_M = [
    [0.00000 + 0.20972j, -0.10697 + 0.96717j, 0.04080 - 0.91135j, -3.59068 + 1.77061j],
    [0.10697 + 0.96717j, 0.00000 - 0.94422j, -0.98779 + 1.35265j, 3.55621 - 0.03449j],
    [-0.04080 - 0.91135j, 0.98779 + 1.35265j, 0.00000 - 0.79806j, -0.50440 - 0.71953j],
    [3.59068 + 1.77061j, -3.55621 - 0.03449j, 0.50440 - 0.71953j, 0.00000 - 1.82468j],
]
_E63_K = [
    [5.25927 + 0.00000j, -1.36185 - 0.39225j, -1.02993 + 3.85132j, 3.10502 + 0.94912j],
    [-1.36185 + 0.39225j, 5.18883 + 0.00000j, 0.25646 + 2.08573j, 2.82543 - 1.42028j],
    [-1.02993 - 3.85132j, 0.25646 - 2.08573j, 12.57576 + 0.00000j, -0.35504 - 4.89141j],
    [3.10502 - 0.94912j, 2.82543 + 1.42028j, -0.35504 + 4.89141j, 9.24337 + 0.00000j],
]
_E63_XC = [
    [0.269248 - 0.049496j, 0.365254 + 0.000000j],
    [0.360869 + 0.000000j, 0.021572 + 0.085644j],
    [0.105515 - 0.042953j, 0.074614 + 0.141519j],
    [-0.030283 + 0.036643j, 0.024397 - 0.220546j],
]
_E63_DM = [
    [0.00000 + 0.52241j, -0.06183 - 0.22791j, 0.00122 - 0.11173j, -0.41289 + 0.39407j],
    [0.06183 - 0.22791j, 0.00000 + 0.20921j, -0.13366 + 0.07568j, 0.28312 - 0.05364j],
    [-0.00122 - 0.11173j, 0.13366 + 0.07568j, 0.00000 + 0.17138j, 0.18351 - 0.13284j],
    [0.41289 + 0.39407j, -0.28312 - 0.05364j, -0.18351 - 0.13284j, 0.00000 + 0.70160j],
]
_E63_DK = [
    [3.00449 + 0.00000j, -1.05675 + 0.30905j, -0.52100 + 0.27793j, 2.41288 + 2.20342j],
    [-1.05675 - 0.30905j, 1.57244 + 0.00000j, 0.52079 + 1.32381j, 0.16989 - 1.66602j],
    [-0.52100 - 0.27793j, 0.52079 - 1.32381j, 1.79857 + 0.00000j, -0.75754 - 1.70191j],
    [2.41288 - 2.20342j, 0.16989 + 1.66602j, -0.75754 + 1.70191j, 4.44366 + 0.00000j],
]
_E63_XF = [
    [-0.129984 - 0.085155j, 0.517601 + 0.000000j],
    [-0.078858 - 0.235812j, 0.286105 - 0.401595j],
    [0.290180 + 0.000000j, 0.036036 + 0.101571j],
    [0.076878 - 0.090772j, -0.397514 + 0.168257j],
]

_S7_M = [
    [-0.25455 + 0.95256j, 0.02934 + 0.05513j, 0.00000 - 1.83635j, 0.08681 - 1.45077j],
    [2.25023 - 0.01156j, 1.14852 - 1.53017j, -0.08681 - 1.45077j, 0.00000 + 1.40120j],
    [0.00000 - 0.96582j, -0.22366 - 0.46730j, -0.25455 - 0.95256j, 2.25023 + 0.01156j],
    [0.22366 - 0.46730j, 0.00000 - 1.00248j, 0.02934 - 0.05513j, 1.14852 + 1.53017j],
]
_S7_K = [
    [3.02148 + 1.90489j, 1.10499 + 1.16245j, -1.26366 + 0.00000j, 1.65942 + 0.71011j],
    [0.44232 - 1.07299j, 0.29350 - 0.24688j, 1.65942 - 0.71011j, -0.19304 + 0.00000j],
    [1.30628 + 0.00000j, -0.42739 + 0.75761j, -3.02148 + 1.90489j, -0.44232 - 1.07299j],
    [-0.42739 - 0.75761j, 0.52491 + 0.00000j, -1.10499 + 1.16245j, -0.29350 - 0.24688j],
]
_S7_XC = [
    [1.00000 + 0.00000j, -0.43182 + 0.23755j, -0.20930 + 0.22721j],
    [-0.32603 - 0.60175j, 1.00000 + 0.00000j, -0.67852 - 0.58802j],
    [0.72475 + 0.50622j, -0.01383 + 0.37218j, 0.21160 - 0.29125j],
    [-0.20761 + 0.69892j, 0.09784 + 0.45636j, 1.00000 + 0.00000j],
]
_S7_Z1 = [
    [0.0, 0.06022 + 0.19082j, 0.0],
    [-0.06022 + 0.19082j, 0.0, 0.0],
    [0.0, 0.0, 1.19827j],
]
_S7_Z2 = [
    [0.0, -0.50561 + 0.37741j, 0.0],
    [-0.50561 - 0.37741j, 0.0, 0.0],
    [0.0, 0.0, 1.45556 + 0.0j],
]
_S7_DM = [
    [0.27615 + 0.21015j, -0.64643 - 1.17676j, 0.00000 - 0.45391j, 0.95858 + 0.57857j],
    [-0.88139 - 0.13297j, -1.84854 + 0.99750j, -0.95858 + 0.57857j, 0.00000 - 2.19806j],
    [-0.00000 + 0.70112j, 0.64985 - 0.15198j, 0.27615 - 0.21015j, -0.88139 + 0.13297j],
    [-0.64985 - 0.15198j, 0.00000 + 1.69525j, -0.64643 + 1.17676j, -1.84854 - 0.99750j],
]
_S7_DK = [
    [-0.63477 - 1.42656j, -1.93590 - 0.08067j, -2.43388 + 0.00000j, 0.04977 - 2.40635j],
    [-1.43606 + 0.85246j, 0.29333 + 1.96152j, 0.04977 + 2.40635j, -2.93978 + 0.00000j],
    [0.86197 - 0.00000j, 0.63350 - 1.45810j, 0.63477 - 1.42656j, 1.43606 + 0.85246j],
    [0.63350 + 1.45810j, 1.46857 - 0.00000j, 1.93590 - 0.08067j, -0.29333 + 1.96152j],
]
_S7_XF = [
    [0.20548 + 0.72300j],
    [-0.52204 + 0.39798j],
    [1.00000 - 0.00000j],
    [-0.61073 + 0.21633j],
]


@dataclass(frozen=True)
class ReferenceCase:
    case_id: str
    klass: str
    quadratic: bool
    m: np.ndarray
    k: np.ndarray
    lam_change: tuple
    lam_target: tuple
    z1: np.ndarray
    z2: np.ndarray
    spillover_bound: float
    printed_delta_m: np.ndarray | None = None
    printed_delta_k: np.ndarray | None = None
    printed_spillover: float = 0.0
    printed_xc: np.ndarray | None = None
    printed_xf: np.ndarray | None = None
    printed_lam_f: tuple = ()
    psd: tuple = ()

    def problem(self) -> ProblemFile:
        """The case as a problem file, with its ``z1``/``z2`` core. A
        quadratic case gives its change and target eigenvalues. An SHH case
        gives its targets as Lambda_a and its change and fixed pairs from
        the computed spectrum: the finite eigenvalues nearest the change
        values and the rest, each vector scaled by its largest entry."""
        if self.quadratic:
            change = PairBlock(eigenvalues=np.array(self.lam_change))
            targets, fixed = PairBlock(eigenvalues=np.array(self.lam_target)), None
        else:
            eigs = [e for e in eig_pencil(self.m, self.k) if e.finite]
            chosen, available = nearest_eigenvalues(eigs, self.lam_change)

            def pair(idx) -> PairBlock:
                x = np.hstack([largest_entry_scaled(eigs[i].vector).reshape(-1, 1) for i in idx])
                return PairBlock(x=x, lam=np.diag([eigs[i].value for i in idx]))

            change, fixed = pair(chosen), pair(available)
            targets = PairBlock(lam=np.diag(self.lam_target))
        return ProblemFile(
            self.klass, self.m, self.k, change, targets, fixed,
            parameters=dict(z1=self.z1, z2=self.z2), quadratic=self.quadratic,
        ).checked()


CASES = {
    # Targets: the published runs assign the rounded 6-digit lifted blocks
    # exactly (e.g. diag(-3297.6, -23.148)); the displayed lambda targets
    # are their rounded square roots. We store square roots that reproduce
    # the lifted blocks to machine precision.
    "herm-6.1": ReferenceCase(
        case_id="herm-6.1",
        klass="hermitian",
        quadratic=True,
        m=np.asarray(_H61_M, dtype=complex),
        k=np.asarray(_H61_K, dtype=complex),
        lam_change=(57.4206j, 4.8629j),
        lam_target=(1j * np.sqrt(3297.6), 1j * np.sqrt(23.148)),
        z1=np.array([0.0, 0.021592]),
        z2=np.array([0.47136, 0.0]),
        printed_delta_m=_H61_DM.astype(complex),
        printed_delta_k=_H61_DK.astype(complex),
        printed_spillover=7.7524e-13,
        printed_xc=np.asarray(_H61_XC, dtype=complex),
        printed_xf=np.asarray(_H61_XF, dtype=complex),
        printed_lam_f=(-679.39, -942.69, -968.03),
        spillover_bound=1e-11,
        psd=("delta_m", "delta_k"),
    ),
    "odd-6.2": ReferenceCase(
        case_id="odd-6.2",
        klass="star-odd",
        quadratic=True,
        m=np.asarray(_O62_M, dtype=complex),
        k=np.asarray(_O62_K, dtype=complex),
        lam_change=(1.30078 * (1 + 1j), 0.80933 * (1 - 1j)),
        lam_target=(
            np.sqrt(1.3492 / 2) * (1 - 1j),  # lifts to -1.3492i
            np.sqrt(0.6320 / 2) * (1 + 1j),  # lifts to +0.6320i
        ),
        z1=np.array([8.9752, 2.5715]),
        z2=np.array([-0.00717j, -0.60271j]),
        printed_delta_m=np.asarray(_O62_DM, dtype=complex),
        printed_delta_k=np.asarray(_O62_DK, dtype=complex),
        printed_spillover=1.2209e-14,
        printed_xc=np.asarray(_O62_XC, dtype=complex),
        printed_xf=np.asarray(_O62_XF, dtype=complex),
        printed_lam_f=(-0.28296j, 0.42255j),
        spillover_bound=1e-12,
        psd=("delta_m",),
    ),
    "even-6.3": ReferenceCase(
        case_id="even-6.3",
        klass="star-even",
        quadratic=True,
        m=np.asarray(_E63_M, dtype=complex),
        k=np.asarray(_E63_K, dtype=complex),
        lam_change=(1.8663 * (1 + 1j), 0.96032 * (1 + 1j)),
        lam_target=(
            np.sqrt(7.63484 / 2) * (1 + 1j),  # lifts to 7.63484i
            np.sqrt(2.73573 / 2) * (1 + 1j),  # lifts to 2.73573i
        ),
        z1=np.array([0.10025j, 0.47934j]),
        z2=np.array([0.26054, 0.84128]),
        printed_delta_m=np.asarray(_E63_DM, dtype=complex),
        printed_delta_k=np.asarray(_E63_DK, dtype=complex),
        printed_spillover=1.8766e-14,
        printed_xc=np.asarray(_E63_XC, dtype=complex),
        printed_xf=np.asarray(_E63_XF, dtype=complex),
        printed_lam_f=(-5.38777j, -0.38831j),
        spillover_bound=1e-12,
        psd=("delta_k",),
    ),
    "shh-7": ReferenceCase(
        case_id="shh-7",
        klass="star-shh",
        quadratic=False,
        m=np.asarray(_S7_M, dtype=complex),
        k=np.asarray(_S7_K, dtype=complex),
        lam_change=(-0.92332 - 0.75639j, 0.92332 - 0.75639j, -0.12114j),
        lam_target=(-0.76954 + 0.53243j, 0.76954 + 0.53243j, -3.22147j),
        z1=np.asarray(_S7_Z1, dtype=complex),
        z2=np.asarray(_S7_Z2, dtype=complex),
        printed_delta_m=np.asarray(_S7_DM, dtype=complex),
        printed_delta_k=np.asarray(_S7_DK, dtype=complex),
        printed_spillover=1.5519e-14,
        printed_xc=np.asarray(_S7_XC, dtype=complex),
        printed_xf=np.asarray(_S7_XF, dtype=complex),
        printed_lam_f=(4.51104j,),
        spillover_bound=1e-12,
        psd=(),
    ),
}


def scaled_deviation(computed, printed) -> float:
    """max |A - B| scaled by the largest printed magnitude."""
    computed = np.asarray(computed)
    printed = np.asarray(printed)
    denom = float(np.abs(printed).max())
    return float(np.abs(computed - printed).max()) / max(denom, 1e-300)


@dataclass
class CaseReport:
    """One case's update, its certificate (``verify.certify``) and the
    comparison with the printed matrices."""

    case: ReferenceCase
    certificate: Certificate
    delta_m: np.ndarray
    delta_k: np.ndarray
    structure: dict = field(default_factory=dict)
    min_eigs: dict = field(default_factory=dict)

    @property
    def dev_delta_m(self) -> float:
        return scaled_deviation(self.delta_m, self.case.printed_delta_m)

    @property
    def dev_delta_k(self) -> float:
        return scaled_deviation(self.delta_k, self.case.printed_delta_k)

    @property
    def spillover(self) -> float:
        return self.certificate.spillover_residual

    @property
    def target_residual(self) -> float:
        return self.certificate.target_residual

    @property
    def passed(self) -> bool:
        case = self.case
        ok = self.certificate.passed and self.spillover <= case.spillover_bound
        ok = ok and max(self.dev_delta_m, self.dev_delta_k) <= PUBLISHED_MATRIX_TOL
        ok = ok and all(value <= TAU_STRUCT for value in self.structure.values())
        ok = ok and all(value >= -TAU_PSD for value in self.min_eigs.values())
        return bool(ok)

    def lines(self, show_matrices: bool = False) -> list[str]:
        case = self.case
        out = [
            f"case {case.case_id}",
            f"  max scaled deviation dM: {self.dev_delta_m:.3e} (bound {PUBLISHED_MATRIX_TOL:.0e})",
            f"  max scaled deviation dK: {self.dev_delta_k:.3e} (bound {PUBLISHED_MATRIX_TOL:.0e})",
            f"  spillover residual:      {self.spillover:.4e} "
            f"(published {case.printed_spillover:.4e}, bound {case.spillover_bound:.0e})",
            f"  target residual:         {self.target_residual:.4e}",
        ]
        for name, value in self.structure.items():
            out.append(f"  structure {name}: {value:.3e}")
        for name, value in self.min_eigs.items():
            out.append(f"  min eig {name}: {value:.3e}")
        if show_matrices:
            with np.printoptions(precision=5, suppress=True, linewidth=120):
                for label, computed, printed in (
                    ("dM", self.delta_m, case.printed_delta_m),
                    ("dK", self.delta_k, case.printed_delta_k),
                ):
                    out.append(f"  computed {label}:")
                    out += ["    " + ln for ln in str(computed).splitlines()]
                    out.append(f"  published {label}:")
                    out += ["    " + ln for ln in str(printed).splitlines()]
        out.append("  " + ("PASS" if self.passed else "FAIL"))
        return out


_KIND = {1: "hermitian", -1: "skew-hermitian"}  # eps of each case's conjugating tag

# the updated pencil's tag residuals of the certificate, as the report
# names them; an SHH certificate's J-twisted ones count only in its verdict
_UPDATED_LABELS = {"m_updated": "updated M tag", "k_updated": "updated K tag"}


def run_case(case_id: str) -> CaseReport:
    """Solve one bundled example's problem as ``solve`` does and compare the
    update with the printed matrices."""
    case = CASES[case_id]
    result, cert = solve_problem(case.problem())
    dm, dk = result.delta_m, result.delta_k
    if case.klass in SHH_STARS:  # the update of J L(lambda), an even pencil of the same star
        tag = StructureTag(SHH_STARS[case.klass], -1, 1)
        prefix, dm_s, dk_s = "J ", apply_j(dm), apply_j(dk)
    else:
        prefix, tag, dm_s, dk_s = "", TAG_BY_NAME[case.klass], dm, dk
    rm, rk = structure_residuals(dm_s, dk_s, tag)
    structure = {
        f"{prefix}dM {_KIND[tag.eps1]}": rm,
        f"{prefix}dK {_KIND[tag.eps2]}": rk,
    }
    for key, value in cert.structure_residuals.items():
        if key in _UPDATED_LABELS:
            structure[_UPDATED_LABELS[key]] = value
    deltas = {"delta_m": dm, "delta_k": dk}
    min_eigs = {name: float(herm_eigs(deltas[name])[0]) for name in case.psd}
    return CaseReport(case, cert, dm, dk, structure, min_eigs)
