"""file-cli and oracle-cli: the nospillover CLI, one subprocess at a time.

Each op is a closed loop with one client: a command starts only after the
previous one exited. An op is timed from spawn to exit code of each of its
processes; output checks run after a process exits and are not timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
import tracing
from ops import TAU_DEFL, Op, OpResult

HERE = Path(__file__).resolve().parent
RANDOM_CLASSES = (
    "symmetric", "hermitian", "t-odd", "star-odd",
    "t-even", "star-even", "star-shh", "t-shh",
)
QUADRATIC_CLASSES = ("hermitian", "star-odd", "star-even")
CHILD_TIMEOUT_S = 60
ORACLE_N = 240


@dataclass
class Proc:
    seconds: float
    code: int
    stdout: str
    stderr: str
    rss_mb: float


def run_child(cmd, cwd, env) -> Proc:
    """Run ``cmd`` to completion; time it from spawn to exit and read its peak RSS."""
    out_path, err_path = Path(cwd) / "child.out", Path(cwd) / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(seconds, proc.returncode, out_path.read_text(), err_path.read_text(),
                usage.ru_maxrss / 1024)


def decode(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def encode(a) -> list:
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def pair_residual(m, k, x, lam) -> float:
    """Relative residual of M X Lambda + K X, scaled as the package's certificate."""
    lam = lam if lam.ndim == 2 else np.diag(lam)
    scale = (np.linalg.norm(m) * np.linalg.norm(lam) + np.linalg.norm(k)) * np.linalg.norm(x)
    return float(np.linalg.norm(m @ x @ lam + k @ x) / max(scale, 1e-300))


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is correct, else the reason


def check_exit(proc):
    if proc.code != 0:
        return f"exit code {proc.code}: {proc.stderr.strip()[-200:]}"
    return None


def check_delta(path, quadratic):
    cert = json.loads(Path(path).read_text(encoding="utf-8"))["certificate"]
    if cert is None or cert.get("pass") is not True:
        return "certificate does not pass"
    if not cert["target_relative"] <= TAU_DEFL:
        return f"target residual {cert['target_relative']:.2e}"
    spill = cert.get("spillover_relative")
    if spill is not None and not spill <= TAU_DEFL:
        return f"spillover residual {spill:.2e}"
    if quadratic:
        if spill is None or cert.get("spectrum") is None:
            return "quadratic certificate lacks spillover or spectrum"
        if cert["spectrum"]["unmatched"] != 0:
            return f"spectrum unmatched {cert['spectrum']['unmatched']}"
    return None


_RELATIVE = re.compile(r"^(target|spillover) residual .*\(relative ([-+0-9.e]+)\)$")


def check_verify_output(stdout):
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != "PASS":
        return "verify did not print PASS"
    found = {}
    for line in lines:
        match = _RELATIVE.match(line)
        if match:
            found[match.group(1)] = float(match.group(2))
    if set(found) != {"target", "spillover"}:
        return "verify printed no target or spillover residual"
    worst = max(found.values())
    return None if worst <= TAU_DEFL else f"verify residual {worst:.2e}"


def check_planted(path):
    """The change and fixed pairs ``random`` wrote are deflating pairs of (M, K)."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    fixed = json.loads(Path(f"{path}.fixed.json").read_text(encoding="utf-8"))["fixed"]
    m, k = decode(doc["m"]), decode(doc["k"])
    worst = max(
        pair_residual(m, k, decode(doc["change"]["x"]), decode(doc["change"]["lambda"])),
        pair_residual(m, k, decode(fixed["x"]), decode(fixed["lambda"])),
    )
    return None if worst <= TAU_DEFL else f"planted pair residual {worst:.2e}"


# ---------------------------------------------------------------------------
# ops


@dataclass
class Step:
    leg: str  # the command: solve, verify or random
    argv: list
    check: object  # Proc -> reason or None


class CliWorkload:
    """Runs ops of CLI steps in ``work``; traced steps go through trace_child."""

    def __init__(self, work, env, cycle, strata):
        self.work, self.env, self.cycle, self.strata = work, env, cycle, strata

    def run_op(self, op, tracer=None):
        legs, errors, total, rss = [], [], 0.0, 0.0
        for step in op.steps:
            if tracer is None:
                cmd = [sys.executable, "-m", "nospillover.cli", *step.argv]
            else:
                spans = self.work / "spans.json"
                cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans), *step.argv]
            proc = run_child(cmd, self.work, self.env)
            total += proc.seconds
            rss = max(rss, proc.rss_mb)
            legs.append((step.leg, proc.seconds))
            if tracer is not None and spans.exists():
                rows = json.loads(spans.read_text(encoding="utf-8"))
                tracer.spans += tracing.from_json(
                    rows, tracer.op, " ".join(dict.fromkeys((op.stratum, step.leg))),
                    len(tracer.spans))
                spans.unlink()
            try:
                error = check_exit(proc) or step.check(proc)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
            if error:
                errors.append(f"{step.leg}: {error}")
        return OpResult(op.label, op.stratum, total, legs, "; ".join(errors) or None, rss)


def _random_in_process(seed, klass, n, p, out):
    """``nospillover random`` run inside this process, for set-up only."""
    from nospillover.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["random", "--seed", str(seed), "--n", str(n), "--p", str(p),
                     "--class", klass, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"random {klass} n={n} p={p} exited {code}")


def check_random_deterministic(seed, klass, n, p, reference, again):
    """``random`` rerun into ``again`` must reproduce ``reference`` byte for byte."""
    _random_in_process(seed, klass, n, p, again)
    same = all(Path(a).read_bytes() == Path(b).read_bytes() for a, b in (
        (reference, again), (f"{reference}.fixed.json", f"{again}.fixed.json")))
    if not same:
        raise RuntimeError(f"random is not byte-identical for seed {seed}, class {klass}")


def _compose_pairs(problem, out):
    """Pairs file for ``verify``: targets (change.x, targets.lambda) plus the fixed pair.

    ``verify --pairs <problem>.fixed.json`` is refused (no targets), so the
    benchmark composes the full file from what ``random`` wrote.
    """
    doc = json.loads(Path(problem).read_text(encoding="utf-8"))
    fixed = json.loads(Path(f"{problem}.fixed.json").read_text(encoding="utf-8"))["fixed"]
    pairs = {
        "format": 1,
        "targets": {"x": doc["change"]["x"], "lambda": doc["targets"]["lambda"]},
        "fixed": fixed,
    }
    Path(out).write_text(json.dumps(pairs), encoding="utf-8")


def setup_file_cli(seed, work, env):
    """Eight planted problems, one per random class; n alternates 120/240, p 2/4."""
    cycle = []
    for i, klass in enumerate(RANDOM_CLASSES):
        n, p = (120, 240)[i % 2], (2, 4)[(i // 2) % 2]
        problem, pairs = work / f"p{i}.json", work / f"p{i}.pairs.json"
        delta = f"p{i}.delta.json"
        _random_in_process(seed, klass, n, p, problem)
        _compose_pairs(problem, pairs)
        cycle.append(Op(f"{klass} n={n} p={p}", f"n={n}", [
            Step("solve", ["solve", "--input", problem.name, "--out", delta],
                 lambda proc, d=work / delta: check_delta(d, quadratic=False)),
            Step("verify", ["verify", "--pencil", problem.name, "--delta", delta,
                            "--pairs", pairs.name],
                 lambda proc: check_verify_output(proc.stdout)),
        ]))
    i = 2 * (seed % 4)  # an n=120 problem, so the rerun stays cheap
    check_random_deterministic(seed, RANDOM_CLASSES[i], 120, (2, 4)[(i // 2) % 2],
                               work / f"p{i}.json", work / "again.json")
    return CliWorkload(work, env, cycle, ("n=120", "n=240"))


def quadratic_problem(seed, k, n) -> str:
    """JSON text of a quadratic (lambda^2 M + K) problem of definite class k mod 3.

    The lifted pencil mu*M + K is planted with well-spaced eigenvalues on the
    class's axis; p = 2 + k mod 3 of them are moved by up to 20 percent.
    """
    klass, p = QUADRATIC_CLASSES[k % 3], 2 + k % 3
    rng = np.random.default_rng([seed, k, n])
    m, kk, _, mu = gen.definite_pencil(rng, n, klass)
    idx = rng.choice(n, p, replace=False)
    mu_c = mu[idx]
    mu_a = mu_c * (1 + 0.2 * rng.random(p))
    doc = {
        "format": 1,
        "structure": klass,
        "quadratic": True,
        "m": encode(m),
        "k": encode(kk),
        "change": {"eigenvalues": encode(np.sqrt(mu_c))},
        "targets": {"eigenvalues": encode(np.sqrt(mu_a))},
    }
    return json.dumps(doc)


def setup_oracle_cli(seed, work, env):
    """Four rounds of one ``random`` and one quadratic ``solve``, all at n=240.

    ``random`` runs two of the six symmetry classes (cycled by the seed) and
    both SHH classes, so every seed drives each of the three planting paths
    and the class mix costs the same from seed to seed.
    """
    six = RANDOM_CLASSES[:6]
    classes = (six[seed % 6], six[(seed + 3) % 6], "star-shh", "t-shh")
    cycle = []
    for k, klass in enumerate(classes):
        p, out = (2, 4)[k % 2], work / f"r{k}.json"
        cycle.append(Op(f"random {klass} n={ORACLE_N} p={p}", "random", [
            Step("random", ["random", "--seed", str(seed), "--n", str(ORACLE_N), "--p", str(p),
                            "--class", klass, "--out", out.name],
                 lambda proc, out=out: check_planted(out)),
        ]))
        text = quadratic_problem(seed, k, ORACLE_N)
        if k == 0 and quadratic_problem(seed, k, ORACLE_N) != text:
            raise RuntimeError(f"quadratic generator is not deterministic for seed {seed}")
        problem, delta = work / f"q{k}.json", f"q{k}.delta.json"
        problem.write_text(text, encoding="utf-8")
        cycle.append(Op(f"solve q{k} {QUADRATIC_CLASSES[k % 3]} n={ORACLE_N} p={2 + k % 3}",
                        "solve", [
            Step("solve", ["solve", "--input", problem.name, "--out", delta],
                 lambda proc, d=work / delta: check_delta(d, quadratic=True)),
        ]))
    klass = RANDOM_CLASSES[seed % len(RANDOM_CLASSES)]
    _random_in_process(seed, klass, 40, 2, work / "once.json")
    check_random_deterministic(seed, klass, 40, 2, work / "once.json", work / "again.json")
    return CliWorkload(work, env, cycle, ("random", "solve"))
