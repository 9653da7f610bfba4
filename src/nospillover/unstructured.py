"""Updates without structure: the full solution family when the fixed pair
is known.

The constraints
    dM X_f Lf + dK X_f = 0,    dM X_a La + dK X_a = R_a
are one linear system Y A = B for Y = [dM dK], and every solution is
Y = B A'  + Z (I - A A') with A' the pseudoinverse and Z free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    MissingFixedPair,
    RankDeficientA,
    SingularBasis,
)
from .linalg import TAU_NUM, as_matrix, pseudoinverse, rcond_estimate
from .pencil import DeflatingPair, StructuredPencil


@dataclass(frozen=True)
class UpdateProblem:
    """Change pair (X_c, Lc), targets (X_a, La), optional fixed pair.

    ``target_x`` defaults to the change vectors (the pure eigenvalue
    reassignment case X_a = X_c).
    """

    change: DeflatingPair
    target_lam: np.ndarray
    target_x: np.ndarray | None = None
    fixed: DeflatingPair | None = None

    def __post_init__(self):
        lam = as_matrix(self.target_lam, "Lambda_a")
        if lam.shape != self.change.lam.shape:
            raise DimensionMismatch(
                f"Lambda_a must match Lambda_c shape {self.change.lam.shape}"
            )
        object.__setattr__(self, "target_lam", lam)
        if self.target_x is not None:
            tx = as_matrix(self.target_x, "X_a")
            if tx.shape != self.change.x.shape:
                raise DimensionMismatch("X_a must have the shape of X_c")
            if rcond_estimate(tx) <= TAU_NUM:
                raise DimensionMismatch("X_a is column rank deficient")
            object.__setattr__(self, "target_x", tx)

    @property
    def xa(self) -> np.ndarray:
        return self.target_x if self.target_x is not None else self.change.x

    @property
    def p(self) -> int:
        return self.change.p


@dataclass
class UpdateResult:
    """Perturbation (dM, dK) plus provenance.

    An update of low rank by construction is stored only as its ``factors``
    ``(left, mhat, khat, right)``, left n x p and right p x n: ``delta_m`` is
    ``left @ mhat @ right`` and ``delta_k`` is ``left @ khat @ right``, formed
    on each access. An update without factors (``solve_general``,
    ``dual_basis_update``, a format-1 delta file) stores ``dense = (dM, dK)``.
    """

    factors: tuple | None = None
    dense: tuple | None = None
    provenance: dict = field(default_factory=dict)

    @property
    def delta_m(self) -> np.ndarray:
        if self.factors is None:
            return self.dense[0]
        left, mhat, _, right = self.factors
        return left @ mhat @ right

    @property
    def delta_k(self) -> np.ndarray:
        if self.factors is None:
            return self.dense[1]
        left, _, khat, right = self.factors
        return left @ khat @ right

    @property
    def n(self) -> int:
        """Size of the pencil the update applies to."""
        return (self.dense if self.factors is None else self.factors)[0].shape[0]

    def take_real(self):
        """Keep only the real parts of the factors, for real data whose update
        is real in exact arithmetic."""
        self.factors = tuple(f.real.astype(np.complex128) for f in self.factors)


def _target_defect(pencil: StructuredPencil, problem: UpdateProblem) -> np.ndarray:
    """R_a = -(M X_a La + K X_a), the defect of the aimed pair."""
    xa = problem.xa
    if xa.shape[0] != pencil.n:
        raise DimensionMismatch("X_a rows must equal the pencil size")
    return -(pencil.m @ xa @ problem.target_lam + pencil.k @ xa)


def _require_fixed(problem: UpdateProblem) -> DeflatingPair:
    if problem.fixed is None:
        raise MissingFixedPair(
            "this solver needs the fixed pair; use the structured path otherwise"
        )
    return problem.fixed


def stacked_constraints(pencil: StructuredPencil, problem: UpdateProblem):
    """(A, B) of the linear system [dM dK] A = B encoding both conditions."""
    fixed = _require_fixed(problem)
    xa, la = problem.xa, problem.target_lam
    xf, lf = fixed.x, fixed.lam
    a = np.block([[xf @ lf, xa @ la], [xf, xa]])
    ra = _target_defect(pencil, problem)
    b = np.hstack([np.zeros((pencil.n, xf.shape[1]), dtype=complex), ra])
    return a, b


def solve_general(
    pencil: StructuredPencil, problem: UpdateProblem, z=None
) -> UpdateResult:
    """General solution family member [dM dK] = B A' + Z (I - A A').

    ``z`` is the free n x 2n parameter, recorded in the provenance when
    given; without it (Z = 0) the result is the minimum-Frobenius norm member. Requires the fixed pair. Raises RankDeficientA when the
    stacked constraint matrix loses column rank (duplicated or dependent
    target/fixed vectors).
    """
    a, b = stacked_constraints(pencil, problem)
    n = pencil.n
    if rcond_estimate(np.hstack([problem.xa, problem.fixed.x])) <= TAU_NUM:
        raise RankDeficientA("[X_a X_f] is singular")
    if rcond_estimate(a) <= TAU_NUM:
        raise RankDeficientA(
            "stacked constraint matrix is column rank deficient"
        )
    provenance = {"method": "general-family", "ra": b[:, -problem.p:]}
    if z is not None:
        z = as_matrix(z, "Z")
        if z.shape != (n, 2 * n):
            raise DimensionMismatch(f"Z must be {n}x{2 * n}, got {z.shape}")
        provenance["z"] = z
    apinv = pseudoinverse(a)
    y = b @ apinv
    if z is not None:
        y = y + z @ (np.eye(2 * n) - a @ apinv)
    return UpdateResult(dense=(y[:, :n], y[:, n:]), provenance=provenance)


def dual_basis_update(
    pencil: StructuredPencil, problem: UpdateProblem, mtilde
) -> UpdateResult:
    """Rank-p update dM = Mt U^star, dK = Kt U^star from the dual basis U.

    U is the unique matrix with U^star X_f = 0 and U^star X_a = I_p, i.e.
    U^star is the first block row of [X_a X_f]^{-1}. Kt is the unique
    completion R_a - Mt La.
    """
    fixed = _require_fixed(problem)
    mtilde = as_matrix(mtilde, "Mtilde")
    n, p = pencil.n, problem.p
    if mtilde.shape != (n, p):
        raise DimensionMismatch(f"Mtilde must be {n}x{p}, got {mtilde.shape}")
    basis = np.hstack([problem.xa, fixed.x])
    if rcond_estimate(basis) <= TAU_NUM:
        raise SingularBasis("[X_a X_f] is singular")
    ustar = np.linalg.inv(basis)[:p, :]  # p x n, = U^star
    ra = _target_defect(pencil, problem)
    ktilde = ra - mtilde @ problem.target_lam
    return UpdateResult(
        dense=(mtilde @ ustar, ktilde @ ustar),
        provenance={
            "method": "dual-basis",
            "u": ustar.conj().T,
            "ra": ra,
            "mtilde": mtilde,
            "ktilde": ktilde,
        },
    )


def core_family(b: np.ndarray, lam_a: np.ndarray, z1: np.ndarray, z2: np.ndarray):
    """All solutions (Mt, Kt) of Mt La + Kt = B, parametrized by (Z1, Z2).

    With Ha = (La^* La + I)^{-1}:
        Mt = B Ha La^* + Z1 (I - La Ha La^*) - Z2 Ha La^*
        Kt = B Ha      - Z1 La Ha           + Z2 (I - Ha)
    The identity Mt La + Kt = B holds for every (Z1, Z2).
    """
    p = lam_a.shape[0]
    ha = np.linalg.inv(lam_a.conj().T @ lam_a + np.eye(p))
    hla = ha @ lam_a.conj().T
    mt = b @ hla + z1 @ (np.eye(p) - lam_a @ hla) - z2 @ hla
    kt = b @ ha - z1 @ lam_a @ ha + z2 @ (np.eye(p) - ha)
    return mt, kt

