"""Benchmark of nospillover: three closed-loop workloads with one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``
and writes only under ``.bench_work/``, which it empties when it ends.
NAME is one of file-cli, oracle-cli, update-lib, or ``all`` to run the three
one after another. Inputs are made from the seed before timing; then whole
input cycles run until the ops have taken ``--seconds`` seconds. Every op's
output is checked, and a wrong one counts as failed; nothing is retried.

With ``--trace 0`` the end-to-end metrics are measured. With ``--trace 1``
the cycle's first ops run once untraced, then traced cycles, and the per-layer
metrics come from the spans (see ``tracing``). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it are the readable report.
"""

import os

BLAS_THREADS = 1  # pinned for this process and every child; at most nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("file-cli", "oracle-cli", "update-lib")
SETUP_PROBES = 5
WALL_LIMIT_S = 100  # no cycle starts after this, so a run ends well inside 180 s
REFERENCE_OPS = 4  # a traced run first times this many ops untraced, for the overhead
ARRAYS_PER_OP = 7  # M, K, dM, dK, M + dM, K + dK and X_f, each n x n complex128


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """(percentile, value) of the highest percentile with ten samples above it."""
    if len(values) <= 10:
        return None
    ordered = sorted(values)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(results, setup_s, peak_rss_mb):
    """The gated metrics; op_s.p50 is the geometric mean over the cycle's inputs
    (op labels) of each one's median time, so every input weighs the same."""
    times = {}
    for r in results:
        times.setdefault(r.label, []).append(r.seconds)
    medians = [statistics.median(v) for v in times.values()]
    return {
        "setup_s": setup_s,
        "op_s.p50": geomean(medians),
        "ops_per_s": len(results) / sum(r.seconds for r in results),
        "peak_rss_mb": peak_rss_mb,
    }


# ---------------------------------------------------------------------------
# environment


def environment():
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size, shared = (
                (index / f).read_text().strip()
                for f in ("level", "type", "size", "shared_cpu_list"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = f"{size} per instance, shared by cpus {shared}"

    def blas(module):
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        return deps.get("blas", {}).get("version", "unknown")

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "caches": caches or "unknown",
    }


def working_set(stratum):
    """Computed bytes of the dense arrays one op holds (not measured)."""
    n = int(stratum[2:]) if stratum.startswith("n=") else 240
    return ARRAYS_PER_OP * n * n * 16


# ---------------------------------------------------------------------------
# running


def measure_setup(module, work, env):
    """Median seconds from a fresh interpreter to ``module`` imported."""
    from cliwork import run_child

    cmd = [sys.executable, "-c", f"import {module}"]
    run_child(cmd, work, env)  # warm the bytecode and file caches
    probes = [run_child(cmd, work, env) for _ in range(SETUP_PROBES)]
    failed = [p for p in probes if p.code != 0]
    if failed:
        raise RuntimeError(f"import {module} failed: {failed[0].stderr.strip()[-300:]}")
    return statistics.median(p.seconds for p in probes), [p.seconds for p in probes]


def build(name, seed, work, env):
    if name == "update-lib":
        from libwork import LibWorkload

        return LibWorkload(seed)
    import cliwork

    setup = cliwork.setup_file_cli if name == "file-cli" else cliwork.setup_oracle_cli
    return setup(seed, work, env)


def run_cycles(workload, seconds, tracer=None):
    """Whole cycles until the ops have been busy ``seconds`` (at least one)."""
    results, busy, start = [], 0.0, time.perf_counter()
    while True:
        for op in workload.cycle:
            if tracer is not None:
                tracer.op, tracer.label = len(results), op.stratum
            results.append(workload.run_op(op, tracer))
            busy += results[-1].seconds
        if busy >= seconds or time.perf_counter() - start > WALL_LIMIT_S:
            return results


def run_workload(args, work, env):
    import tracing

    import nospillover

    if not Path(nospillover.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"nospillover was imported from {nospillover.__file__}, not {SRC}")
    started = time.perf_counter()
    module = "nospillover" if args.workload == "update-lib" else "nospillover.cli"
    setup_s, probes = measure_setup(module, work, env)
    workload = build(args.workload, args.seed, work, env)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "setup_s_probes": probes,
        "setup_wall_s": time.perf_counter() - started,
        "working_set_bytes": {s: working_set(s) for s in workload.strata},
    }
    if not args.trace:
        results = run_cycles(workload, args.seconds)
        return results, [], workload, report, None, setup_s
    reference = [workload.run_op(op) for op in workload.cycle[:REFERENCE_OPS]]
    tracer = tracing.Tracer()
    replaced = []
    if args.workload == "update-lib":
        replaced, report["targets_not_found"] = tracing.install(tracer)
    try:
        results = run_cycles(workload, args.seconds, tracer)
    finally:
        tracing.restore(replaced)
    mean = lambda rs: sum(r.seconds for r in rs) / len(rs)  # noqa: E731
    report["trace_overhead_s_per_op"] = mean(results[:REFERENCE_OPS]) - mean(reference)
    report["untraced_s_per_op"] = mean(reference)
    return results, reference, workload, report, tracer, setup_s


# ---------------------------------------------------------------------------
# reporting


def leg_lines(results, strata):
    """Per-command medians and tails, overall and per stratum, with sample counts."""
    lines = []
    legs = sorted({leg for r in results for leg, _ in r.legs})
    for leg in legs:
        samples = [(r.stratum, t) for r in results for name, t in r.legs if name == leg]
        values = [t for _, t in samples]
        parts = [f"{s}: {statistics.median(v):.4f} s ({len(v)})"
                 for s in strata for v in [[t for st, t in samples if st == s]] if v]
        lines.append(f"{leg + '_s.p50':<29}{statistics.median(values):.4f} s"
                     f"   {len(values)} samples   " + "   ".join(parts))
        high = tail(values)
        lines.append(f"{leg + '_s.tail':<29}" + (
            f"{high[1]:.4f} s   p{high[0]:.0f} of {len(values)} samples" if high
            else f"n/a: {len(values)} samples, a tail needs more than 10"))
    return lines


def layer_lines(tracer):
    """Per-layer self time and calls per process (CLI) or per op (library), by label."""
    import tracing

    lines = []
    own = tracing.self_times(tracer.spans)
    for label in sorted({s.label for s in tracer.spans}):
        count = len({s.op for s in tracer.spans if s.label == label})
        metrics = tracing.layer_metrics(tracer.spans, count, label=label, own=own)
        ranked = sorted(((v, k) for k, v in metrics.items()
                         if k in tracing.TIME_METRICS and v > 0), reverse=True)
        lines.append(f"  {label} (self s per op, {count} ops): " + ", ".join(
            f"{k} {v:.4f}" for v, k in ranked))
        lines.append(f"    eig_pencil_calls {metrics['linalg.eig_pencil_calls']:g}, "
                     f"qz_vector_calls {metrics['linalg.qz_vector_calls']:g}")
    return lines


def print_report(report, results, checked, workload, metrics, units, tracer):
    env = report["environment"]
    failed = [r for r in checked if r.error]
    print(f"== {report['workload']}  seed {report['seed']}  trace {report['trace']} ==")
    print(f"env: nproc {env['nproc']}, blas threads {env['blas_threads']}, python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, openblas "
          f"{env['openblas_numpy']} (numpy) / {env['openblas_scipy']} (scipy)")
    print(f"caches: {env['caches']}")
    print("working set per op (computed, 7 n x n complex128 arrays): " + ", ".join(
        f"{s}: {b / 2**20:.2f} MiB" for s, b in report["working_set_bytes"].items()))
    print(f"set-up took {report['setup_wall_s']:.1f} s; {len(results)} ops in "
          f"{len(results) // len(workload.cycle)} cycles of {len(workload.cycle)}")
    for name, value in metrics.items():
        print(f"{name:<29}{value:.6g} {units[name]}")
    if tracer is None:
        print(f"{'op_s median per stratum':<29}" + ", ".join(
            f"{s}: median {statistics.median(r.seconds for r in results if r.stratum == s):.4f} s"
            for s in workload.strata))
        for line in leg_lines(results, workload.strata):
            print(line)
        if report["workload"] == "update-lib":
            print(f"{'updates_per_s':<29}{metrics['ops_per_s']:.6g} 1/s")
    else:
        print(f"{'trace overhead':<29}{report['trace_overhead_s_per_op']:.4f} s per op over the "
              f"first {REFERENCE_OPS} ops (untraced {report['untraced_s_per_op']:.4f} s per op)")
        for line in layer_lines(tracer):
            print(line)
    print(f"{'fail_rate':<29}{len(failed) / len(checked):g} ratio "
          f"({len(failed)} of {len(checked)} ops)")
    for r in failed:
        print(f"FAILED {r.label}: {r.error}")
    print(json.dumps({"report": report}))


def run_all(args):
    """Each workload in its own interpreter, one after another."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nospillover" / "cli.py").is_file():
        print(f"no nospillover sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        results, reference, workload, report, tracer, setup_s = run_workload(args, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is None:
        rss = max((r.rss_mb for r in results), default=0.0) or (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        metrics = end_to_end(results, setup_s, rss)
    else:
        import tracing

        metrics = tracing.layer_metrics(tracer.spans, len(results))
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    metrics = {name: metrics[name] for name in units}
    checked = reference + results  # the untraced reference ops are checked too
    print_report(report, results, checked, workload, metrics, units, tracer)
    failed = sum(1 for r in checked if r.error)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
