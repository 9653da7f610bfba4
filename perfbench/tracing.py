"""Spans around the package's public functions, recorded from outside it.

``install`` replaces each traced function at every place a ``nospillover``
module (or ``scipy.linalg``, for ``eig``) binds it, including names pulled
in with ``from ... import``, with a wrapper that records one span per call:
name, start, end, parent span and op id, plus a few counts taken from the
arguments or the result. ``restore`` puts every original back. The package
itself is not edited.

Per-layer metrics are per op: the self time of a span is its duration minus
the part its child spans cover, summed over a layer's spans and divided by
the number of ops the run made.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None = None
    label: str = ""
    attrs: dict = field(default_factory=dict)


def _path_bytes(key):
    def attrs(args, kwargs, result):
        path = args[0] if args else next(iter(kwargs.values()))
        return {key: os.path.getsize(path)}

    return attrs


def _plant_tries(args, kwargs, result):
    return {"tries": result.attempt + 1}


def _qz_vectors(args, kwargs, result):
    return {"vectors": bool(kwargs.get("right", True) or kwargs.get("left", False))}


def _update_bytes(args, kwargs, result):
    return {"bytes": result.delta_m.nbytes + result.delta_k.nbytes}


def _certificate(args, kwargs, result):
    return {
        "passed": bool(result.passed),
        "target_rel": float(result.target_relative),
        "spillover_rel": (
            None if result.spillover_relative is None else float(result.spillover_relative)
        ),
    }


_READ = _path_bytes("bytes_read")
_WRITTEN = _path_bytes("bytes_written")

# (module, attribute, span name, counts taken after the call)
TARGETS = (
    ("nospillover.cli", "cmd_solve", "cli.solve", None),
    ("nospillover.cli", "cmd_verify", "cli.verify", None),
    ("nospillover.cli", "cmd_random", "cli.random", None),
    ("nospillover.fileio", "load_problem", "fileio.load_problem", _READ),
    ("nospillover.fileio", "load_pencil", "fileio.load_pencil", _READ),
    ("nospillover.fileio", "load_delta", "fileio.load_delta", _READ),
    ("nospillover.fileio", "load_pairs", "fileio.load_pairs", _READ),
    ("nospillover.fileio", "save_result", "fileio.save_result", _WRITTEN),
    ("nospillover.fileio", "save_problem", "fileio.save_problem", _WRITTEN),
    ("nospillover.fileio", "save_pairs", "fileio.save_pairs", _WRITTEN),
    ("nospillover.randomgen", "plant_problem", "randomgen.plant", _plant_tries),
    ("nospillover.randomgen", "plant_star_shh", "randomgen.plant", _plant_tries),
    ("nospillover.randomgen", "plant_t_shh", "randomgen.plant", _plant_tries),
    ("nospillover.pencil", "StructuredPencil.eig", "pencil.eig", None),
    ("nospillover.shh", "SHHPencil.eig", "pencil.eig", None),
    ("nospillover.linalg", "eig_pencil", "linalg.eig_pencil", None),
    ("nospillover.linalg", "match_multisets", "linalg.match_multisets", None),
    ("scipy.linalg", "eig", "linalg.qz", _qz_vectors),
    ("nospillover.special", "select_eigendata", "special.select_eigendata", None),
    ("nospillover.special", "solve_quadratic", "special.solve_quadratic", None),
    ("nospillover.special", "hermitian_update", "special.update", None),
    ("nospillover.special", "star_odd_update", "special.update", None),
    ("nospillover.special", "star_even_update", "special.update", None),
    ("nospillover.special", "t_odd_real_update", "special.update", None),
    ("nospillover.special", "t_even_real_update", "special.update", None),
    ("nospillover.structured", "change_gramian", "structured.gramian", None),
    ("nospillover.structured", "build_update_basis", "structured.basis", None),
    ("nospillover.structured", "complete_core", "structured.core", None),
    ("nospillover.structured", "parametrized_core", "structured.core", None),
    ("nospillover.structured", "scaled_gramian_core", "structured.core", None),
    ("nospillover.structured", "structured_update", "structured.update", _update_bytes),
    ("nospillover.shh", "shh_gramian", "shh.gramian", None),
    ("nospillover.shh", "shh_update", "shh.update", None),
    ("nospillover.shh", "group_t_shh_spectrum", "shh.group_spectrum", None),
    ("nospillover.unstructured", "solve_general", "unstructured.solve_general", None),
    ("nospillover.verify", "certify", "verify.certify", _certificate),
    ("nospillover.verify", "spectrum_match", "verify.spectrum_match", None),
)

# per-layer metric -> span name whose self time it sums
TIME_METRICS = {
    "cli.import_s": "cli.import",
    "cli.solve_self_s": "cli.solve",
    "fileio.load_problem_s": "fileio.load_problem",
    "fileio.save_result_s": "fileio.save_result",
    "fileio.load_pencil_s": "fileio.load_pencil",
    "fileio.load_delta_s": "fileio.load_delta",
    "fileio.load_pairs_s": "fileio.load_pairs",
    "fileio.save_problem_s": "fileio.save_problem",
    "fileio.save_pairs_s": "fileio.save_pairs",
    "randomgen.plant_s": "randomgen.plant",
    "pencil.eig_s": "pencil.eig",
    "linalg.eig_pencil_s": "linalg.eig_pencil",
    "linalg.qz_s": "linalg.qz",
    "linalg.match_multisets_s": "linalg.match_multisets",
    "special.select_eigendata_s": "special.select_eigendata",
    "special.solve_quadratic_s": "special.solve_quadratic",
    "special.update_s": "special.update",
    "structured.gramian_s": "structured.gramian",
    "structured.basis_s": "structured.basis",
    "structured.core_s": "structured.core",
    "structured.update_s": "structured.update",
    "shh.gramian_s": "shh.gramian",
    "shh.update_s": "shh.update",
    "shh.group_spectrum_s": "shh.group_spectrum",
    "unstructured.solve_general_s": "unstructured.solve_general",
    "verify.certify_self_s": "verify.certify",
    "verify.spectrum_match_s": "verify.spectrum_match",
}

class Tracer:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.label = ""

    def record(self, name, start, end):
        """A span measured elsewhere (such as the import of the CLI)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, end, parent, self.op, self.label))

    def call(self, name, fn, args=(), kwargs=None, attrs=None):
        """fn(*args, **kwargs) inside a span; ``attrs`` maps the call to counts."""
        kwargs = kwargs or {}
        span = Span(name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else None, self.op, self.label)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        return result

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return wrapper


def _binding_sites(original):
    """(namespace, attribute) of every package-module name bound to ``original``."""
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "nospillover" or mod_name.startswith("nospillover.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, attr))
    return sites


def install(tracer: Tracer):
    """Wrap every target; returns the (owner, attribute, original) list to restore.

    Targets the package no longer defines are skipped and listed in the
    second return value.
    """
    replaced, missing = [], []
    for mod_name, qualname, span_name, attrs in TARGETS:
        try:
            owner = importlib.import_module(mod_name)
        except ImportError:
            missing.append(f"{mod_name}.{qualname}")
            continue
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            missing.append(f"{mod_name}.{qualname}")
            continue
        wrapper = tracer.wrap(span_name, original, attrs)
        sites = {(id(owner), attr): (owner, attr)}
        if not outer:
            sites.update({(id(m), a): (m, a) for m, a in _binding_sites(original)})
        for site_owner, site_attr in sites.values():
            setattr(site_owner, site_attr, wrapper)
            replaced.append((site_owner, site_attr, original))
    return replaced, missing


def restore(replaced):
    for owner, attr, original in reversed(replaced):
        setattr(owner, attr, original)


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - _covered(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def layer_metrics(spans, ops: int, label=None, own=None) -> dict:
    """Every per-layer metric, per op, from the spans of ``ops`` ops.

    With ``label`` only spans carrying it count; ``own`` passes self times
    already computed over the whole span list.
    """
    own = self_times(spans) if own is None else own
    if label is not None:
        pairs = [(s, t) for s, t in zip(spans, own) if s.label == label]
        spans, own = [s for s, _ in pairs], [t for _, t in pairs]
    out = {name: 0.0 for name in TIME_METRICS}
    by_span = {span: metric for metric, span in TIME_METRICS.items()}
    for span, t in zip(spans, own):
        if span.name in by_span:
            out[by_span[span.name]] += t / ops

    def attr_values(name, key):
        return [s.attrs.get(key) for s in spans if s.name == name]

    certs = [s.attrs for s in spans if s.name == "verify.certify"]
    tries = sum(attr_values("randomgen.plant", "tries"))
    spill = [c["spillover_rel"] for c in certs if c.get("spillover_rel") is not None]
    out.update({
        "fileio.bytes_written": sum(s.attrs.get("bytes_written", 0) for s in spans) / ops,
        "fileio.bytes_read": sum(s.attrs.get("bytes_read", 0) for s in spans) / ops,
        "randomgen.accept_ratio": len(attr_values("randomgen.plant", "tries")) / tries
        if tries else 0.0,
        "linalg.eig_pencil_calls": sum(s.name == "linalg.eig_pencil" for s in spans) / ops,
        "linalg.qz_vector_calls": sum(attr_values("linalg.qz", "vectors")) / ops,
        "structured.update_bytes": sum(attr_values("structured.update", "bytes")) / ops,
        "verify.pass_ratio": sum(c["passed"] for c in certs) / len(certs) if certs else 0.0,
        "verify.target_rel_max": max((c["target_rel"] for c in certs), default=0.0),
        "verify.spillover_rel_max": max(spill, default=0.0),
    })
    return out


def to_json(spans):
    return [[s.name, s.start, s.end, s.parent, s.attrs] for s in spans]


def from_json(rows, op, label, offset):
    """Spans written by a child process, renumbered to follow ``offset`` spans."""
    return [
        Span(name, start, end, None if parent is None else parent + offset, op, label, attrs)
        for name, start, end, parent, attrs in rows
    ]
