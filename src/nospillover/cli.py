"""Command line front end.

Subcommands: solve (problem file -> delta file + certificate), verify
(recheck a delta against a pencil and pairs), reproduce (bundled reference
cases), random (seeded planted problem files). solve and reproduce run one
dispatch, ``dispatch.solve_problem``: reproduce solves each reference
case's own problem file.

Which keys a file may hold, and which fields each path needs, is
``fileio``'s to check when it reads or makes a file; the commands here
check no key. A command returns its verdict or raises, and ``main`` alone
turns the outcome into the exit code: 0 success/pass, 1 certificate
failure, 2 schema error (a ``SchemaError``: a file that cannot be read,
written or parsed, or that holds a key its reader does not read), 3
mathematical precondition failure (any other ``NoSpilloverError``; prints
the error class name, and a ``--tol`` that is not a finite number above
zero is one). A closed standard output (``nospillover reproduce
all | head -n 1``) ends the run quietly with 141, the shell's status for a
SIGPIPE, so it is never read as a verdict.

A process starts at ``entry``, which freezes the heap its imports made
and then runs ``main``; ``main`` leaves the garbage collector as it finds
it, for the callers that run it in their own process.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from . import fileio
from .dispatch import SHH_STARS, solve_problem, structure_pencil, update_problem
from .errors import BadParameters, NoSpilloverError, SchemaError
from .linalg import TAU_DEFL
from .pencil import DeflatingPair
from .randomgen import RANDOM_CLASSES, plant_problem, plant_star_shh, plant_t_shh
from .verify import certify, certify_spillover

# the ids of ``cases.CASES``, in its order; only reproduce imports ``cases``
CASE_IDS = ("herm-6.1", "odd-6.2", "even-6.3", "shh-7")


def _verdict(cert) -> int:
    """Print a certificate's lines; exit 0 when it passed, 1 when it failed."""
    for line in cert.summary_lines():
        print(line)
    return 0 if cert.passed else 1


def cmd_solve(args) -> int:
    result, cert = solve_problem(fileio.load_problem(args.input), args.tol)
    fileio.save_result(args.out, result, cert)
    return _verdict(cert)


def cmd_verify(args) -> int:
    m, k, structure = fileio.load_pencil(args.pencil)
    result = fileio.load_delta(args.delta)
    pairs = fileio.load_pairs(args.pairs)
    sizes = {"delta file": result.n}
    sizes.update((f"pairs file {key}", block.x.shape[0]) for key, block in pairs.items())
    for what, size in sizes.items():
        if size != m.shape[0]:
            raise SchemaError(f"{what} has n={size}, but the pencil has n={m.shape[0]}")
    targets, fixed = pairs.get("targets"), pairs.get("fixed")
    pencil = structure_pencil(m, k, structure)
    # a fixed-only file, as ``random`` writes, gets a spillover-only certificate
    if targets is None:
        fixed_pair = DeflatingPair(fixed.x, fixed.lam_compact)
        return _verdict(certify_spillover(pencil, result, fixed_pair, tol_defl=args.tol))
    problem = update_problem(targets, targets, fixed)
    return _verdict(certify(pencil, result, problem, tol_defl=args.tol))


def cmd_reproduce(args) -> int:
    from .cases import run_case

    ids = CASE_IDS if args.case == "all" else (args.case,)
    ok = True
    for cid in ids:
        report = run_case(cid)
        print("\n".join(report.lines(show_matrices=not args.brief)))
        ok = ok and report.passed
    return 0 if ok else 1


def cmd_random(args) -> int:
    if args.klass not in RANDOM_CLASSES:
        raise SchemaError(f"class must be one of {RANDOM_CLASSES}")
    if args.klass in SHH_STARS and args.n % 2:
        raise BadParameters("SHH instances need even n")
    if args.klass == "star-shh":
        planted = plant_star_shh(args.seed, args.n // 2, args.p // 2, args.p % 2)
    elif args.klass == "t-shh":
        planted = plant_t_shh(args.seed, args.n // 2)
    else:
        planted = plant_problem(args.seed, args.n, args.p, args.klass)
    pf = fileio.ProblemFile(
        args.klass, planted.pencil.m, planted.pencil.k,
        fileio.PairBlock(planted.change.x, planted.change.lam),
        fileio.PairBlock(lam=planted.target_lam), parameters=planted.parameters,
    )
    fileio.save_problem(args.out, pf.checked())
    fileio.save_pairs(args.out + ".fixed.json", planted.fixed.x, planted.fixed.lam_compact)
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
    p_solve.add_argument("--tol", type=float, default=TAU_DEFL)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="verify a delta file")
    p_verify.add_argument("--pencil", required=True)
    p_verify.add_argument("--delta", required=True)
    p_verify.add_argument("--pairs", required=True)
    p_verify.add_argument("--tol", type=float, default=TAU_DEFL)
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
    """Run one command and turn its outcome into the exit code: a
    ``SchemaError`` is 2 and any other ``NoSpilloverError`` 3, each one
    line on stderr. A ``--tol`` that bounds no residual (NaN, infinite,
    zero or negative) is refused before any file is read."""
    try:
        try:
            args = build_parser().parse_args(argv)
            if "tol" in args and not (math.isfinite(args.tol) and args.tol > 0):
                raise BadParameters(f"need a finite --tol > 0 (got --tol={args.tol})")
            return args.func(args)
        except SchemaError as exc:
            print(f"schema error: {exc}", file=sys.stderr)
            return 2
        except NoSpilloverError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 3
        finally:
            sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the flush at interpreter exit would fail again: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def entry() -> int:
    """``main`` as a process runs it, from the console script or ``python -m
    nospillover.cli``. What the imports made lives until exit, so it is
    frozen first: no collection walks it again, the full ones at
    interpreter exit included."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
