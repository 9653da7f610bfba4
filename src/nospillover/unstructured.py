"""Updates without structure, when the fixed pair is known.

The constraints
    dM X_f Lf + dK X_f = 0,    dM X_a La + dK X_a = R_a
are one linear system Y A = B for Y = [dM dK], whose minimum-Frobenius-norm
solution is Y = B A' with A' the pseudoinverse. Only the last p columns of
B, R_a, are nonzero, so Y = R_a P with P the last p rows of A': the update
has rank p, and like every update here it is kept as its factors.
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
from .linalg import TAU_NUM, as_matrix, rcond_estimate
from .pencil import DeflatingPair, StructuredPencil


@dataclass(frozen=True)
class UpdateProblem:
    """Change pair (X_c, Lc), targets (X_a, La), optional fixed pair.

    ``target_x`` defaults to the change vectors (the pure eigenvalue
    reassignment case X_a = X_c). La and X_a are read as
    ``linalg.as_matrix`` reads them, read-only through the problem.
    """

    change: DeflatingPair
    target_lam: np.ndarray
    target_x: np.ndarray | None = None
    fixed: DeflatingPair | None = None

    def __post_init__(self):
        lam = as_matrix(self.target_lam, "Lambda_a")
        p = self.change.p
        if lam.shape != (p, p):
            raise DimensionMismatch(f"Lambda_a must match Lambda_c shape {(p, p)}")
        lam.setflags(write=False)
        object.__setattr__(self, "target_lam", lam)
        if self.target_x is not None:
            tx = as_matrix(self.target_x, "X_a")
            if tx.shape != self.change.x.shape:
                raise DimensionMismatch("X_a must have the shape of X_c")
            if rcond_estimate(tx) <= TAU_NUM:
                raise DimensionMismatch("X_a is column rank deficient")
            tx.setflags(write=False)
            object.__setattr__(self, "target_x", tx)

    @property
    def xa(self) -> np.ndarray:
        return self.target_x if self.target_x is not None else self.change.x

    @property
    def p(self) -> int:
        return self.change.p


@dataclass
class UpdateResult:
    """Perturbation (dM, dK) as its factors, plus provenance.

    An update is stored only as its ``factors`` ``(left, mhat, khat, right)``,
    left n x a, mhat and khat a x b, right b x n: ``delta_m`` is
    ``left @ mhat @ right`` and ``delta_k`` is ``left @ khat @ right``, formed
    on each access. The structured paths have a = b = p; ``solve_general``
    has a = p, b = 2p, ``dual_basis_update`` a = 2p, b = p, and a format-1
    delta file a = b = n, with identity outer factors.
    """

    factors: tuple
    provenance: dict = field(default_factory=dict)

    @property
    def delta_m(self) -> np.ndarray:
        left, mhat, _, right = self.factors
        return left @ mhat @ right

    @property
    def delta_k(self) -> np.ndarray:
        left, _, khat, right = self.factors
        return left @ khat @ right

    @property
    def n(self) -> int:
        """Size of the pencil the update applies to."""
        return self.factors[0].shape[0]

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
    xf, lf = fixed.x, fixed.lam_compact
    xf_lf = xf * lf if lf.ndim == 1 else xf @ lf  # a diagonal Lf scales columns
    a = np.block([[xf_lf, xa @ la], [xf, xa]])
    ra = _target_defect(pencil, problem)
    b = np.hstack([np.zeros((pencil.n, xf.shape[1]), dtype=complex), ra])
    return a, b


def _selectors(p: int) -> tuple[np.ndarray, np.ndarray]:
    """([I_p 0], [0 I_p]), the p x 2p blocks that pick each half of 2p rows."""
    return np.eye(p, 2 * p), np.eye(p, 2 * p, k=p)


def solve_general(pencil: StructuredPencil, problem: UpdateProblem) -> UpdateResult:
    """The minimum-Frobenius-norm solution [dM dK] = B A' of the stacked
    constraints, as the factors (R_a, [I_p 0], [0 I_p], [P_M; P_K]), where
    [P_M P_K] is the last p rows of A'. Requires the fixed pair. Raises
    RankDeficientA when the stacked constraint matrix loses column rank
    (duplicated or dependent target/fixed vectors).
    """
    a, b = stacked_constraints(pencil, problem)
    n, p = pencil.n, problem.p
    if rcond_estimate(np.hstack([problem.xa, problem.fixed.x])) <= TAU_NUM:
        raise RankDeficientA("[X_a X_f] is singular")
    # one SVD, of conj(A) = U S Vh, gives A' = Vh^T S^-1 U^T as np.linalg.pinv
    # forms it, and the singular values the rank gate reads
    u, s, vh = np.linalg.svd(a.conj(), full_matrices=False)
    if s[-1] <= TAU_NUM * s[0]:
        raise RankDeficientA("stacked constraint matrix is column rank deficient")
    # only the last p rows of A' meet the nonzero columns R_a of B
    rows = np.transpose(vh[:, -p:]) @ ((1 / s)[:, None] * np.transpose(u))
    return UpdateResult(
        factors=(b[:, -p:], *_selectors(p), np.vstack([rows[:, :n], rows[:, n:]])),
        provenance={"method": "general-family"},
    )


def dual_basis_update(
    pencil: StructuredPencil, problem: UpdateProblem, mtilde
) -> UpdateResult:
    """Rank-p update dM = Mt U^star, dK = Kt U^star from the dual basis U,
    as the factors ([Mt Kt], [I_p; 0], [0; I_p], U^star).

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
    ktilde = _target_defect(pencil, problem) - mtilde @ problem.target_lam
    pick_m, pick_k = _selectors(p)
    return UpdateResult(
        factors=(np.hstack([mtilde, ktilde]), pick_m.T, pick_k.T, ustar),
        provenance={"method": "dual-basis"},
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

