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


def _update_problem(pf) -> UpdateProblem:
    """The change pair, targets and fixed pair (None when absent) a file gives."""
    change = DeflatingPair(pf.change.x, pf.change.lam)
    fixed = None if pf.fixed is None else DeflatingPair(pf.fixed.x, pf.fixed.lam)
    return UpdateProblem(change, pf.targets.lam, target_x=pf.targets.x, fixed=fixed)


def _solve_unstructured(pf):
    """solve_general, which raises MissingFixedPair when the file gives no fixed pair."""
    problem = _update_problem(pf)
    pencil = StructuredPencil(pf.m, pf.k, None)
    return pencil, solve_general(pencil, problem), problem, ()


def _solve_quadratic(pf):
    spec = QuadraticSpec(pf.structure, tuple(pf.change.eigenvalues), tuple(pf.targets.eigenvalues))
    # the path's parameters were checked against the table: each is a solve_quadratic keyword
    result, info = solve_quadratic(pf.m, pf.k, spec, **pf.parameters)
    return info["pencil"], result, info["problem"], info["psd"]


def _as_square(v):
    """A parameter matrix, given as a matrix or as its diagonal."""
    return np.diag(v) if np.asarray(v).ndim == 1 else v


def _solve_structured(pf):
    """The six symmetry classes and the two SHH classes, from the file's
    change pair, targets and core parameters. A ``t-shh`` file takes the
    library's real T-SHH update, ``t_shh_update``, with its core on re(G).

    The parameters, checked against ``fileio.PARAMETERS``, are its number
    and matrix rows, a matrix given as a matrix or as its diagonal: the
    core source ``core_from_parameters`` takes."""
    sources = {key: _as_square(v) if fileio.PARAMETERS[key][0] == "matrix" else v
               for key, v in pf.parameters.items()}
    xc, lam_c, lam_a = pf.change.x, pf.change.lam, pf.targets.lam
    pencil = structure_pencil(pf.m, pf.k, pf.structure)
    if isinstance(pencil, SHHPencil):
        gramian = shh_gramian
        update = t_shh_update if pf.structure == "t-shh" else shh_update
    else:
        gramian, update = change_gramian, structured_update
    g, _ = gramian(pencil, xc)
    core = core_from_parameters(g.real if pf.structure == "t-shh" else g, lam_c, lam_a, **sources)
    result = update(pencil, xc, lam_c, lam_a, core)
    return pencil, result, _update_problem(pf), ()


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
