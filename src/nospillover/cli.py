"""Command line front end.

Subcommands: solve (problem file -> delta file + certificate), verify
(recheck a delta against a pencil and pairs), reproduce (bundled reference
cases), random (seeded planted problem files).

Exit codes: 0 success/pass, 1 certificate failure, 2 schema error,
3 mathematical precondition failure (prints the error class name). A
closed standard output (``nospillover reproduce all | head -n 1``) ends the
run quietly with 141, the shell's status for a SIGPIPE, so it is never
read as a verdict.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import fileio
from .cases import CASE_IDS, run_case
from .errors import BadParameters, MissingFixedPair, NoSpilloverError, SchemaError
from .linalg import TAU_DEFL
from .pencil import TAG_BY_NAME, DeflatingPair, StructuredPencil
from .randomgen import RANDOM_CLASSES, plant_problem, plant_star_shh, plant_t_shh
from .shh import SHHPencil, shh_gramian, shh_update, star_shh_core, t_shh_mhat
from .special import QUADRATIC_CLASSES, QuadraticSpec, solve_quadratic
from .structured import (
    change_gramian,
    complete_core,
    parametrized_core,
    scaled_gramian_core,
    structured_update,
)
from .unstructured import UpdateProblem, solve_general
from .verify import certify, certify_spillover

_SHH_STARS = {"star-shh": "*", "t-shh": "T"}


def _fail_schema(msg: str) -> int:
    print(f"schema error: {msg}", file=sys.stderr)
    return 2


def _fail_math(exc: NoSpilloverError) -> int:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 3


def _need(block, attr, what) -> np.ndarray:
    value = getattr(block, attr, None) if block is not None else None
    if value is None:
        raise SchemaError(f"problem file is missing {what}")
    return value


def _fixed_from_file(pf):
    if pf.fixed is None or pf.fixed.x is None:
        return None
    return DeflatingPair(pf.fixed.x, pf.fixed.lam)


def _solve_unstructured(pf):
    change = DeflatingPair(
        _need(pf.change, "x", "change.x"), _need(pf.change, "lam", "change.lambda")
    )
    if pf.fixed is None or pf.fixed.x is None or pf.fixed.lam is None:
        raise MissingFixedPair("the unstructured path needs the fixed pair")
    problem = UpdateProblem(
        change,
        _need(pf.targets, "lam", "targets.lambda"),
        target_x=pf.targets.x,
        fixed=_fixed_from_file(pf),
    )
    pencil = StructuredPencil(pf.m, pf.k, None)
    return pencil, solve_general(pencil, problem), problem, ()


def _solve_quadratic(pf):
    if pf.structure not in QUADRATIC_CLASSES:
        raise SchemaError(
            f"quadratic problems need structure in {QUADRATIC_CLASSES}, "
            f"got {pf.structure!r}"
        )
    spec = QuadraticSpec(
        pf.structure,
        tuple(_need(pf.change, "eigenvalues", "change.eigenvalues")),
        tuple(_need(pf.targets, "eigenvalues", "targets.eigenvalues")),
    )
    kwargs = {}
    for key in ("z1", "z2", "mhat"):
        if key in pf.parameters:
            kwargs[key] = pf.parameters[key]
    if pf.parameters.get("strategy"):
        kwargs["strategy"] = pf.parameters["strategy"]
        kwargs["slack"] = pf.parameters.get("slack", 0.0)
    result, info = solve_quadratic(pf.m, pf.k, spec, **kwargs)
    psd = ()
    if pf.parameters.get("strategy") == "psd-minimal":
        psd = ("delta_m", "delta_k")
    return info["pencil"], result, info["problem"], psd


def _pencil(m, k, structure: str):
    """The pencil a file's ``structure`` names: SHH, tagged, or untagged
    for ``unstructured``."""
    if structure in _SHH_STARS:
        return SHHPencil(m, k, _SHH_STARS[structure])
    return StructuredPencil(m, k, TAG_BY_NAME.get(structure))


def _as_square(v):
    """A parameter matrix, given as a matrix or as its diagonal."""
    return np.diag(v) if np.asarray(v).ndim == 1 else v


def _core_from_parameters(pf, g, lam_c, lam_a):
    params = pf.parameters
    p = g.shape[0]
    z1 = params.get("z1", np.zeros((p, p)))
    z2 = params.get("z2", np.zeros((p, p)))
    has_z = "z1" in params or "z2" in params
    if pf.structure == "star-shh" and has_z:
        return star_shh_core(g, lam_c, lam_a, z1, z2, params.get("num_couples", 0))
    if pf.structure == "t-shh" and "quad_alpha" in params:
        shape = (
            params.get("num_quadruples", 0),
            params.get("num_imag_pairs", 0),
            params.get("num_real_pairs", 0),
        )
        betas = [params.get(key, []) for key in ("quad_beta", "imag_beta", "real_beta")]
        return complete_core(
            g.real, lam_c, lam_a, t_shh_mhat(shape, params["quad_alpha"], *betas)
        )
    if "t" in params:
        return scaled_gramian_core(g, lam_c, lam_a, params["t"])
    if has_z:
        return parametrized_core(g, lam_c, lam_a, _as_square(z1), _as_square(z2))
    return complete_core(g, lam_c, lam_a, _as_square(params.get("mhat", np.zeros_like(g))))


def _solve_structured(pf):
    """The six symmetry classes and the two SHH classes, from the file's
    change pair, targets and core parameters."""
    xc = _need(pf.change, "x", "change.x")
    lam_c = _need(pf.change, "lam", "change.lambda")
    lam_a = _need(pf.targets, "lam", "targets.lambda")
    pencil = _pencil(pf.m, pf.k, pf.structure)
    if isinstance(pencil, SHHPencil):
        gramian, update = shh_gramian, shh_update
    else:
        gramian, update = change_gramian, structured_update
    g, _ = gramian(pencil, xc)
    result = update(pencil, xc, lam_c, lam_a, _core_from_parameters(pf, g, lam_c, lam_a))
    problem = UpdateProblem(DeflatingPair(xc, lam_c), lam_a, fixed=_fixed_from_file(pf))
    return pencil, result, problem, ()


def _certify(pencil, result, problem, psd, tol):
    """(result, certificate) of one solve path's output.

    The certificate has the residuals, plus the spectrum match when the
    fixed pair is known. Only the result and certificate outlive the call,
    so the pencil and the fixed pair are freed before the delta file is
    written.
    """
    expected = None
    if problem.fixed is not None:
        expected = np.concatenate(
            [np.linalg.eigvals(problem.target_lam), np.linalg.eigvals(problem.fixed.lam)]
        )
    return result, certify(
        pencil, result, problem, expected_spectrum=expected, psd=psd, tol_defl=tol
    )


def cmd_solve(args) -> int:
    try:
        pf = fileio.load_problem(args.input)
    except SchemaError as exc:
        return _fail_schema(str(exc))
    tol = args.tol if args.tol is not None else TAU_DEFL
    if args.unstructured or pf.structure == "unstructured":
        solve_path = _solve_unstructured
    elif args.quadratic or pf.quadratic:
        solve_path = _solve_quadratic
    else:
        solve_path = _solve_structured
    try:
        result, cert = _certify(*solve_path(pf), tol)
    except SchemaError as exc:
        return _fail_schema(str(exc))
    except NoSpilloverError as exc:
        return _fail_math(exc)
    fileio.save_result(args.out, result, cert)
    for line in cert.summary_lines():
        print(line)
    return 0 if cert.passed else 1


def cmd_verify(args) -> int:
    try:
        m, k, structure = fileio.load_pencil(args.pencil)
        result = fileio.load_delta(args.delta)
        pairs = fileio.load_pairs(args.pairs)
    except SchemaError as exc:
        return _fail_schema(str(exc))
    sizes = {"delta file": result.n}
    sizes.update(
        (f"pairs file {key}.x", block.x.shape[0])
        for key, block in pairs.items()
        if block.x is not None
    )
    for what, size in sizes.items():
        if size != m.shape[0]:
            return _fail_schema(f"{what} has n={size}, but the pencil has n={m.shape[0]}")
    targets, fixed = pairs.get("targets"), pairs.get("fixed")
    has_fixed = fixed is not None and fixed.x is not None
    # a fixed-only file, as ``random`` writes, gets a spillover-only certificate
    spillover_only = targets is None and has_fixed
    if not spillover_only and (targets is None or targets.x is None or targets.lam is None):
        return _fail_schema("pairs file needs targets with x and lambda, or a fixed pair")
    tol = args.tol if args.tol is not None else TAU_DEFL
    try:
        pencil = _pencil(m, k, structure)
        fixed_pair = DeflatingPair(fixed.x, fixed.lam) if has_fixed else None
        if spillover_only:
            cert = certify_spillover(pencil, result, fixed_pair, tol_defl=tol)
        else:
            problem = UpdateProblem(
                DeflatingPair(targets.x, targets.lam),
                targets.lam,
                target_x=targets.x,
                fixed=fixed_pair,
            )
            cert = certify(pencil, result, problem, tol_defl=tol)
    except NoSpilloverError as exc:
        return _fail_math(exc)
    for line in cert.summary_lines():
        print(line)
    return 0 if cert.passed else 1


def cmd_reproduce(args) -> int:
    ids = CASE_IDS if args.case == "all" else (args.case,)
    ok = True
    for cid in ids:
        report = run_case(cid)
        print("\n".join(report.lines(show_matrices=not args.brief)))
        ok = ok and report.passed
    return 0 if ok else 1


def cmd_random(args) -> int:
    if args.klass not in RANDOM_CLASSES:
        return _fail_schema(f"class must be one of {RANDOM_CLASSES}")
    try:
        if args.klass in _SHH_STARS and args.n % 2:
            raise BadParameters("SHH instances need even n")
        if args.klass == "star-shh":
            planted = plant_star_shh(args.seed, args.n // 2, args.p // 2, args.p % 2)
        elif args.klass == "t-shh":
            planted = plant_t_shh(args.seed, args.n // 2)
        else:
            planted = plant_problem(args.seed, args.n, args.p, args.klass)
    except NoSpilloverError as exc:
        return _fail_math(exc)
    pf = fileio.ProblemFile(
        structure=args.klass,
        m=planted.pencil.m,
        k=planted.pencil.k,
        change=fileio.PairBlock(x=planted.change.x, lam=planted.change.lam),
        targets=fileio.PairBlock(lam=planted.target_lam),
        parameters=planted.parameters,
    )
    fileio.save_problem(args.out, pf)
    fileio.save_pairs(args.out + ".fixed.json", planted.fixed.x, planted.fixed.lam)
    print(f"wrote {args.out} and {args.out}.fixed.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nospillover",
        description="No-spillover eigenvalue updates for structured matrix pencils",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--unstructured", action="store_true")
    p_solve.add_argument("--quadratic", action="store_true")
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="verify a delta file")
    p_verify.add_argument("--pencil", required=True)
    p_verify.add_argument("--delta", required=True)
    p_verify.add_argument("--pairs", required=True)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("reproduce", help="re-run a bundled reference case")
    p_rep.add_argument("case", choices=CASE_IDS + ("all",))
    p_rep.add_argument(
        "--brief", action="store_true", help="suppress the matrix comparison dump"
    )
    p_rep.set_defaults(func=cmd_reproduce)

    p_rand = sub.add_parser("random", help="write a seeded planted problem")
    p_rand.add_argument("--seed", type=int, required=True)
    p_rand.add_argument("--n", type=int, required=True)
    p_rand.add_argument("--p", type=int, required=True)
    p_rand.add_argument("--class", dest="klass", required=True)
    p_rand.add_argument("--out", required=True)
    p_rand.set_defaults(func=cmd_random)
    return parser


EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        finally:
            sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the flush at interpreter exit would fail again: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
