"""update-lib: in-process update calls, each followed by its certificate.

Every op is one update call (with the Gramian and core it needs, as the
CLI computes them) and then ``certify`` with the known fixed pair and no
spectrum. Inputs are planted with ``gen`` at set-up; the ops only call the
package. Package functions are reached through their modules
(``structured.structured_update``) so that the tracer's wrappers, which
replace module attributes, see every call.
"""

from __future__ import annotations

import time

import numpy as np

import gen
from nospillover import shh, special, structured, unstructured, verify
from nospillover.pencil import TAG_BY_NAME, DeflatingPair, StructuredPencil
from nospillover.unstructured import UpdateProblem
from ops import TAU_DEFL, Op, OpResult

SIZES = (64, 512)
P = 4
GENERAL_MAX_N = 64  # solve_general's O(n^3) pseudo-inverse would swamp the rest at n=512

SIX_CLASSES = {
    "symmetric": ("T", 1, 1),
    "hermitian": ("*", 1, 1),
    "t-odd": ("T", 1, -1),
    "star-odd": ("*", 1, -1),
    "t-even": ("T", -1, 1),
    "star-even": ("*", -1, 1),
}


def _problem(change_x, lam_c, lam_a, fixed_x, fixed_lam):
    return UpdateProblem(
        DeflatingPair(change_x, np.diag(lam_c)),
        np.diag(lam_a),
        fixed=DeflatingPair(fixed_x, np.diag(fixed_lam)),
    )


def _plant_blocks(rng, n, which, eps1, eps2):
    """Structured pencil from 2x2 blocks plus a change set of P/2 blocks."""
    dm, dk = gen.structured_blocks(rng, n // 2, which, eps1, eps2)
    m, k, vecs, lam = gen.assemble(rng, dm, dk, which, eps1, eps2)
    for first in range(0, n - P + 1, 2):
        cols = np.arange(first, first + P)
        targets = gen.orbit_targets(rng, lam[cols], which, eps1, eps2)
        if targets is not None:
            break
    else:
        raise RuntimeError("no change block set admits structured targets")
    rest = np.setdiff1d(np.arange(n), cols)
    return m, k, vecs[:, cols], lam[cols], targets, vecs[:, rest], lam[rest]


def _structured_op(rng, n, name):
    m, k, xc, lc, la, xf, lf = _plant_blocks(rng, n, *SIX_CLASSES[name])
    pencil = StructuredPencil(m, k, TAG_BY_NAME[name])
    problem = _problem(xc, lc, la, xf, lf)
    lam_c, lam_a = np.diag(lc), np.diag(la)
    t = float(rng.uniform(-0.5, 0.5))

    def op():
        g, _ = structured.change_gramian(pencil, xc)
        core = structured.scaled_gramian_core(g, lam_c, lam_a, t)
        result = structured.structured_update(pencil, xc, lam_c, lam_a, core)
        return verify.certify(pencil, result, problem)

    return op


def _shh_op(rng, n):
    """*-SHH pencil: J^{-1} times a planted star-even pencil."""
    m, k, xc, lc, la, xf, lf = _plant_blocks(rng, n, "*", -1, 1)
    j_inv = -shh.canonical_j(n)
    pencil = shh.SHHPencil(j_inv @ m, j_inv @ k, "*")
    plain = StructuredPencil(pencil.m, pencil.k, None)
    problem = _problem(xc, lc, la, xf, lf)
    lam_c, lam_a = np.diag(lc), np.diag(la)
    t = float(rng.uniform(-0.5, 0.5))

    def op():
        g, _ = shh.shh_gramian(pencil, xc)
        core = structured.scaled_gramian_core(g, lam_c, lam_a, t)
        result = shh.shh_update(pencil, xc, lam_c, lam_a, core)
        return verify.certify(plain, result, problem)

    return op


_DEFINITE_UPDATES = {
    # class: (update function, map of real draws onto the Z1 and Z2 diagonals)
    "hermitian": ("hermitian_update", 1.0, 1.0),
    "star-odd": ("star_odd_update", 1.0, 1j),
    "star-even": ("star_even_update", 1j, 1.0),
}


def _definite_op(rng, n, name):
    update, z1_axis, z2_axis = _DEFINITE_UPDATES[name]
    m, k, vecs, lam = gen.definite_pencil(rng, n, name)
    pencil = StructuredPencil(m, k, TAG_BY_NAME[name])
    cols, rest = np.arange(P), np.arange(P, n)
    xc, lc = vecs[:, cols], lam[cols]
    la = lc * (1 + 0.2 * rng.random(P))
    z1 = z1_axis * 0.3 * rng.standard_normal(P)
    z2 = z2_axis * 0.3 * rng.standard_normal(P)
    problem = _problem(xc, lc, la, vecs[:, rest], lam[rest])

    def op():
        result = getattr(special, update)(pencil, xc, lc, la, z1=z1, z2=z2)
        return verify.certify(pencil, result, problem)

    return op


def _real_pair_op(rng, n, name):
    """Real T-odd (M > 0) or T-even (K > 0) pencil, changing P/2 conjugate pairs."""
    nb = n // 2
    a = 0.5 + rng.random(nb)
    skew = np.zeros((nb, 2, 2))
    skew[:, 0, 1], skew[:, 1, 0] = a, -a
    diag = np.zeros((nb, 2, 2))
    diag[:, 0, 0], diag[:, 1, 1] = 1.0 + rng.random(nb), 1.0 + rng.random(nb)
    if name == "t-odd":
        dm, dk, eps1, eps2, update = diag, skew, 1, -1, "t_odd_real_update"
    else:
        dm, dk, eps1, eps2, update = skew, diag, -1, 1, "t_even_real_update"
    m, k, vecs, lam = gen.assemble(rng, dm, dk, "T", eps1, eps2, real=True)
    pencil = StructuredPencil(m.real, k.real, TAG_BY_NAME[name])
    upper = [2 * b + int(lam[2 * b].imag < 0) for b in range(P // 2)]
    eigenpairs = [(lam[i], vecs[:, [i]]) for i in upper]
    targets = [1j * lam[i].imag * (1 + 0.2 * rng.random()) for i in upper]
    alpha, beta = rng.standard_normal(P // 2), rng.standard_normal(P // 2)
    rest = np.arange(P, n)
    fixed = DeflatingPair(vecs[:, rest], np.diag(lam[rest]))

    def op():
        result = getattr(special, update)(pencil, eigenpairs, targets, alpha, beta)
        prov = result.provenance
        problem = UpdateProblem(
            DeflatingPair(prov["xc_realified"], prov["lam_c"]), prov["lam_a"], fixed=fixed
        )
        return verify.certify(pencil, result, problem)

    return op


def _general_op(rng, n):
    dm = gen.randn(rng, (n, 1, 1), False) + 2.0
    dk = gen.randn(rng, (n, 1, 1), False)
    m, k, vecs, lam = gen.assemble(rng, dm, dk, "*")
    pencil = StructuredPencil(m, k, None)
    cols, rest = np.arange(P), np.arange(P, n)
    la = np.array([gen.perturb(rng, z) for z in lam[cols]])
    problem = _problem(vecs[:, cols], lam[cols], la, vecs[:, rest], lam[rest])

    def op():
        result = unstructured.solve_general(pencil, problem)
        return verify.certify(pencil, result, problem)

    return op


def check_certificate(cert):
    if not cert.passed:
        return "certificate does not pass"
    if not cert.target_relative <= TAU_DEFL:
        return f"target residual {cert.target_relative:.2e}"
    if cert.spillover_relative is None or not cert.spillover_relative <= TAU_DEFL:
        return f"spillover residual {cert.spillover_relative}"
    return None


class LibWorkload:
    """Update calls plus certificates in this process, one after another."""

    strata = tuple(f"n={n}" for n in SIZES)

    def __init__(self, seed, sizes=SIZES):
        if fingerprint(seed, min(sizes)) != fingerprint(seed, min(sizes)):
            raise RuntimeError(f"planted inputs are not deterministic for seed {seed}")
        self.cycle = [Op(f"{kind} n={n}", f"n={n}", call)
                      for kind, n, call in build_cycle(seed, sizes)]

    def run_op(self, op, tracer=None):
        start = time.perf_counter()
        try:
            cert = op.steps()
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            cert, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        error = error or check_certificate(cert)
        return OpResult(op.label, op.stratum, seconds, [("update", seconds)], error, 0.0)


def build_cycle(seed: int, sizes=SIZES):
    """The op list one cycle runs: (kind, n, op) for every kind at every size."""
    cycle = []
    for n in sizes:
        rng = np.random.default_rng([seed, n])
        kinds = [(f"structured_update/{c}", lambda c=c: _structured_op(rng, n, c))
                 for c in SIX_CLASSES]
        kinds.append(("shh_update/star-shh", lambda: _shh_op(rng, n)))
        kinds += [(f"special/{c}", lambda c=c: _definite_op(rng, n, c)) for c in _DEFINITE_UPDATES]
        kinds += [(f"special/{c}-real", lambda c=c: _real_pair_op(rng, n, c))
                  for c in ("t-odd", "t-even")]
        if n <= GENERAL_MAX_N:
            kinds.append(("solve_general", lambda: _general_op(rng, n)))
        cycle += [(kind, n, make()) for kind, make in kinds]
    return cycle


def fingerprint(seed: int, n: int) -> bytes:
    """Bytes of every planted input at size n, for the determinism check."""
    rng = np.random.default_rng([seed, n])
    parts = []
    for c in SIX_CLASSES:
        parts += [a.tobytes() for a in _plant_blocks(rng, n, *SIX_CLASSES[c])[:5]]
    return b"".join(parts)
