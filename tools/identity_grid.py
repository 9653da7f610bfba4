"""Run the CLI identity grid on a source tree and write its manifest.

    python tools/identity_grid.py TREE MANIFEST

Every command runs as ``python -m nospillover.cli`` from ``TREE/src``, in
one temporary directory, with file names relative to it, so the argv of a
command does not depend on the tree. The manifest is JSON, one record a
line: each command's argv, exit code, and the SHA-256 of its stdout, of
its stderr and of each file it wrote or rewrote. Two trees' manifests
are byte-identical exactly when every command behaved the same in both:

    python tools/identity_grid.py old-tree old.json
    python tools/identity_grid.py . new.json
    cmp old.json new.json

The grid:
- 8 classes x seeds 4242, 5, 7 x (n, p) in {(8, 2), (60, 4), (240, 4)},
  each run as ``random -> solve -> verify --pairs <out>.fixed.json``;
- at seed 4242, each of those files with its fixed block merged in, as it
  is and relabelled ``unstructured``: ``solve``, then ``verify``;
- the committed fixtures: the quadratic problem, and the star-even problem
  with its pairs and format-1 delta file;
- ``reproduce all``, with and without ``--brief``;
- refusals: a missing file, ``--tol=nan``, ``--tol=-1``, ``--tol=-inf``,
  ``--tol=0``, ``--tol=inf`` and ``--tol -inf``, a delta and a pairs file
  of another n, odd-n SHH, an unknown class, a negative seed, and
  ``--tol 1e-30``.

BLAS kernels round differently across CPUs and thread counts (``random``'s
bytes move with OpenBLAS's thread count), so every command runs with one
BLAS thread, and manifests compare only between runs on one machine.
Digests are not expected values to commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CLASSES = ("symmetric", "hermitian", "t-odd", "star-odd",
           "t-even", "star-even", "star-shh", "t-shh")
SEEDS = (4242, 5, 7)
SIZES = ((8, 2), (60, 4), (240, 4))
MERGED_SEED = 4242
FIXTURES = ("herm-6.1.quadratic.json", "star-even-n8.json",
            "star-even-n8.json.fixed.json", "star-even-n8.format1.delta.json")
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stats(work: Path) -> dict:
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size) for p in work.iterdir()}


class Grid:
    """Runs commands in ``work`` against ``tree``'s package and keeps a record of each."""

    def __init__(self, tree: Path, work: Path):
        src = str((tree / "src").resolve())
        self.env = dict(os.environ, PYTHONPATH=src, **ONE_THREAD)
        self.work = work
        self.records = []

    def run(self, *argv) -> None:
        argv = [str(a) for a in argv]
        before = _stats(self.work)
        proc = subprocess.run(
            [sys.executable, "-m", "nospillover.cli", *argv],
            cwd=self.work, env=self.env, capture_output=True, timeout=600,
        )
        after = _stats(self.work)
        written = sorted(name for name, stat in after.items() if before.get(name) != stat)
        self.records.append({
            "argv": argv,
            "exit": proc.returncode,
            "stdout": _digest(proc.stdout),
            "stderr": _digest(proc.stderr),
            "files": {name: _digest((self.work / name).read_bytes()) for name in written},
        })

    def merged(self, prob: str, structure: str | None) -> str:
        """A copy of ``prob`` with its ``.fixed.json`` block merged in, relabelled
        ``unstructured`` (no parameters) when ``structure`` says so."""
        doc = json.loads((self.work / prob).read_text())
        doc["fixed"] = json.loads((self.work / f"{prob}.fixed.json").read_text())["fixed"]
        name = prob.replace(".json", ".merged.json")
        if structure == "unstructured":
            doc.update(structure=structure, parameters=None)
            name = prob.replace(".json", ".unstructured.json")
        (self.work / name).write_text(json.dumps(doc))
        return name


def run_grid(grid: Grid) -> None:
    for klass in CLASSES:
        for seed in SEEDS:
            for n, p in SIZES:
                prob = f"{klass}-s{seed}-n{n}-p{p}.json"
                delta = prob.replace(".json", ".delta.json")
                grid.run("random", "--seed", seed, "--n", n, "--p", p,
                         "--class", klass, "--out", prob)
                grid.run("solve", "--input", prob, "--out", delta)
                grid.run("verify", "--pencil", prob, "--delta", delta,
                         "--pairs", f"{prob}.fixed.json")
                if seed != MERGED_SEED:
                    continue
                for structure in (None, "unstructured"):
                    full = grid.merged(prob, structure)
                    full_delta = full.replace(".json", ".delta.json")
                    grid.run("solve", "--input", full, "--out", full_delta)
                    grid.run("verify", "--pencil", full, "--delta", full_delta,
                             "--pairs", f"{prob}.fixed.json")

    grid.run("solve", "--input", "herm-6.1.quadratic.json", "--out", "herm-6.1.delta.json")
    grid.run("solve", "--input", "star-even-n8.json", "--out", "star-even-n8.delta.json")
    for delta in ("star-even-n8.delta.json", "star-even-n8.format1.delta.json"):
        grid.run("verify", "--pencil", "star-even-n8.json", "--delta", delta,
                 "--pairs", "star-even-n8.json.fixed.json")
    grid.run("reproduce", "all")
    grid.run("reproduce", "all", "--brief")

    small = "hermitian-s7-n8-p2.json"
    small_delta = small.replace(".json", ".delta.json")
    solve = ["solve", "--input", small, "--out", "refused.delta.json"]
    verify = ["verify", "--pencil", small, "--delta", small_delta, "--pairs", f"{small}.fixed.json"]
    grid.run("solve", "--input", "missing.json", "--out", "missing.delta.json")
    grid.run("verify", "--pencil", "missing.json", "--delta", small_delta,
             "--pairs", f"{small}.fixed.json")
    for tol in ("--tol=nan", "--tol=-1", "--tol=-inf", "--tol=0", "--tol=inf"):
        grid.run(*solve, tol)
        grid.run(*verify, tol)
    for tol in (("--tol", "-inf"), ("--tol", "1e-30")):
        grid.run(*solve, *tol)
        grid.run(*verify, *tol)
    grid.run("verify", "--pencil", small, "--delta", "hermitian-s7-n60-p4.delta.json",
             "--pairs", f"{small}.fixed.json")
    grid.run("verify", "--pencil", small, "--delta", small_delta,
             "--pairs", "hermitian-s7-n60-p4.json.fixed.json")
    for klass in ("star-shh", "t-shh"):
        grid.run("random", "--seed", 7, "--n", 7, "--p", 2, "--class", klass, "--out", "odd.json")
    grid.run("random", "--seed", 7, "--n", 8, "--p", 2, "--class", "nope", "--out", "nope.json")
    grid.run("random", "--seed", -1, "--n", 8, "--p", 2, "--class", "hermitian",
             "--out", "negative.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="source tree whose src/ holds the package")
    parser.add_argument("manifest", type=Path, help="manifest file to write")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="identity-grid-") as tmp:
        work = Path(tmp)
        for name in FIXTURES:
            shutil.copyfile(args.tree / "tests" / "data" / name, work / name)
        grid = Grid(args.tree, work)
        run_grid(grid)
    lines = (json.dumps(record, sort_keys=True) for record in grid.records)
    args.manifest.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"{len(grid.records)} commands -> {args.manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
