"""One dispatch from a problem file to a certified update.

``solve_problem`` takes a checked ``fileio.ProblemFile``, picks its solve
path (the quadratic recipes, the unstructured family, or the structured and
SHH updates from the file's core parameters), and certifies the update with
``verify.certify``. ``solve`` runs it on a file, and ``reproduce`` on a
bundled reference case's problem. Which fields and parameters each path
reads and needs is ``fileio``'s table, checked where the file is made, so
the dispatch reads them as given and checks no key.
"""

from __future__ import annotations

import numpy as np

from . import fileio
from .linalg import TAU_DEFL
from .pencil import TAG_BY_NAME, DeflatingPair, StructuredPencil
from .shh import SHHPencil, shh_gramian, shh_update, t_shh_update
from .special import QuadraticSpec, solve_quadratic
from .structured import change_gramian, core_from_parameters, structured_update
from .unstructured import UpdateProblem, solve_general
from .verify import certify

# the star of each SHH structure name
SHH_STARS = {"star-shh": "*", "t-shh": "T"}


def structure_pencil(m, k, structure: str):
    """The pencil a file's ``structure`` names: SHH, tagged, or untagged
    for ``unstructured``."""
    if structure in SHH_STARS:
        return SHHPencil(m, k, SHH_STARS[structure])
    return StructuredPencil(m, k, TAG_BY_NAME.get(structure))


def update_problem(change, targets, fixed) -> UpdateProblem:
    """The problem of a change block, a targets block and a fixed block
    (None when absent), from a problem file or, with its targets as both
    change and targets, from a pairs file. Each pair takes its Lambda as
    the file gives it, values or matrix."""
    fixed = None if fixed is None else DeflatingPair(fixed.x, fixed.lam_compact)
    return UpdateProblem(
        DeflatingPair(change.x, change.lam_compact), targets.lam, target_x=targets.x, fixed=fixed
    )


def _solve_unstructured(pf):
    """solve_general, which raises MissingFixedPair when the file gives no fixed pair."""
    problem = update_problem(pf.change, pf.targets, pf.fixed)
    pencil = StructuredPencil(pf.m, pf.k, None)
    return pencil, solve_general(pencil, problem), problem, ()


def _solve_quadratic(pf):
    spec = QuadraticSpec(pf.structure, tuple(pf.change.eigenvalues), tuple(pf.targets.eigenvalues))
    # the path's parameters were checked against the table: each is a solve_quadratic keyword
    result, info = solve_quadratic(pf.m, pf.k, spec, **pf.parameters)
    return info["pencil"], result, info["problem"], info["psd"]


def _solve_structured(pf):
    """The six symmetry classes and the two SHH classes, from the file's
    change pair, targets and core parameters. A ``t-shh`` file takes the
    library's real T-SHH update, ``t_shh_update``, with its core on re(G).

    The parameters, checked against ``fileio.PARAMETERS``, are the core
    source ``core_from_parameters`` takes, as the file gives them."""
    xc, lam_c, lam_a = pf.change.x, pf.change.lam, pf.targets.lam
    pencil = structure_pencil(pf.m, pf.k, pf.structure)
    if isinstance(pencil, SHHPencil):
        gramian = shh_gramian
        update = t_shh_update if pf.structure == "t-shh" else shh_update
    else:
        gramian, update = change_gramian, structured_update
    g, _ = gramian(pencil, xc)
    g = g.real if pf.structure == "t-shh" else g
    core = core_from_parameters(g, lam_c, lam_a, **pf.parameters)
    result = update(pencil, xc, lam_c, lam_a, core)
    return pencil, result, update_problem(pf.change, pf.targets, pf.fixed), ()


def solve_problem(pf: fileio.ProblemFile, tol_defl: float = TAU_DEFL):
    """(result, certificate) of a problem file.

    The file's ``path`` picks the solve: quadratic, unstructured, or the
    structured path its ``structure`` names. The certificate has the
    residuals, plus the spectrum match when the fixed pair is known. Only
    the result and the certificate outlive the call, so the pencil and the
    fixed pair are freed before the caller writes the delta file.
    """
    solve = {"unstructured": _solve_unstructured, "quadratic": _solve_quadratic}
    pencil, result, problem, psd = solve.get(pf.path, _solve_structured)(pf)
    expected = None
    if problem.fixed is not None:
        expected = np.concatenate(
            [np.linalg.eigvals(problem.target_lam), problem.fixed.eigenvalues()]
        )
    return result, certify(
        pencil, result, problem, expected_spectrum=expected, psd=psd, tol_defl=tol_defl
    )
