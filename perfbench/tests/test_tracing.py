"""Tests of the benchmark's tracer.

    PYTHONPATH=src python -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import scipy.linalg  # noqa: E402

import cliwork  # noqa: E402
import libwork  # noqa: E402
import nospillover.cli  # noqa: E402
import tracing  # noqa: E402
from nospillover.pencil import StructuredPencil  # noqa: E402
from nospillover.shh import SHHPencil  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: the overlap is covered once
        Span("d", 2.0, 3.0, 1),
        Span("c", 8.0, 9.0, 0),
        Span("e", 9.5, 11.0, 0),  # runs past its parent: clipped to it
    ]
    assert tracing.self_times(spans) == pytest.approx([3.5, 2.0, 3.0, 1.0, 1.0, 1.5])


def test_layer_metrics_are_self_times_and_counts_per_op():
    spans = [
        Span("verify.certify", 0.0, 10.0, None, attrs={
            "passed": True, "target_rel": 1e-16, "spillover_rel": 2e-17}),
        Span("verify.spectrum_match", 2.0, 5.0, 0),
        Span("linalg.eig_pencil", 3.0, 4.0, 1),
        Span("linalg.qz", 3.25, 3.75, 2, attrs={"vectors": True}),
        Span("fileio.save_result", 10.0, 12.0, None, attrs={"bytes_written": 300}),
    ]
    m = tracing.layer_metrics(spans, ops=2)
    assert m["verify.certify_self_s"] == pytest.approx(3.5)
    assert m["verify.spectrum_match_s"] == pytest.approx(1.0)
    assert m["linalg.eig_pencil_s"] == pytest.approx(0.25)
    assert m["linalg.qz_s"] == pytest.approx(0.25)
    assert m["fileio.save_result_s"] == pytest.approx(1.0)
    assert m["linalg.eig_pencil_calls"] == 0.5
    assert m["linalg.qz_vector_calls"] == 0.5
    assert m["fileio.bytes_written"] == 150
    assert m["verify.pass_ratio"] == 1.0
    assert m["verify.spillover_rel_max"] == 2e-17


def _bindings():
    """Every function bound in a package module or in scipy.linalg, by site."""
    mods = [m for name, m in sys.modules.items()
            if name == "nospillover" or name.startswith("nospillover.")]
    out = {(m.__name__, k): v for m in mods + [scipy.linalg]
           for k, v in vars(m).items() if callable(v)}
    out.update({(cls.__name__, "eig"): vars(cls)["eig"] for cls in (StructuredPencil, SHHPencil)})
    return out


def test_every_wrapped_name_is_restored():
    before = _bindings()
    tracer = tracing.Tracer()
    replaced, missing = tracing.install(tracer)
    try:
        assert not missing
        # from-imports are import sites too
        assert nospillover.verify.eig_pencil is not before[("nospillover.verify", "eig_pencil")]
        assert nospillover.cli.plant_problem is not before[("nospillover.cli", "plant_problem")]
        assert scipy.linalg.eig is not before[("scipy.linalg", "eig")]
        libwork.LibWorkload(5, sizes=(8,)).cycle[0].steps()
    finally:
        tracing.restore(replaced)
    assert {s.name for s in tracer.spans} >= {"structured.update", "verify.certify"}
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_library_op_gives_identical_certificates():
    plain = [op.steps() for op in libwork.LibWorkload(6, sizes=(12,)).cycle]
    tracer = tracing.Tracer()
    replaced, _ = tracing.install(tracer)
    try:
        traced = [op.steps() for op in libwork.LibWorkload(6, sizes=(12,)).cycle]
    finally:
        tracing.restore(replaced)
    assert [vars(c) for c in traced] == [vars(c) for c in plain]


def _cli(args, cwd, traced=False):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    head = [str(BENCH / "trace_child.py"), "spans.json"] if traced else ["-m", "nospillover.cli"]
    return subprocess.run([sys.executable, *head, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("kind", ["random", "quadratic"])
def test_traced_cli_op_writes_identical_bytes(tmp_path, kind):
    if kind == "random":
        made = _cli(["random", "--seed", "3", "--n", "16", "--p", "2",
                     "--class", "star-odd", "--out", "p.json"], tmp_path)
        assert made.returncode == 0, made.stderr
    else:
        (tmp_path / "p.json").write_text(cliwork.quadratic_problem(3, 0, 20))
    plain = _cli(["solve", "--input", "p.json", "--out", "plain.json"], tmp_path)
    traced = _cli(["solve", "--input", "p.json", "--out", "traced.json"], tmp_path, traced=True)
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert plain.stdout == traced.stdout
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()
    names = {row[0] for row in json.loads((tmp_path / "spans.json").read_text())}
    assert {"cli.import", "cli.main", "cli.solve", "fileio.save_result"} <= names
