"""Text problem/result files.

JSON-shaped, UTF-8, schema versioned with a ``format`` field. Complex
entries are stored as [re, im] pairs; floats round-trip exactly through
repr, so parse(emit(x)) is bitwise faithful.

Problem and pairs files are ``format: 1``. A delta file is ``format: 2``
when the update carries its factors: a ``factors`` block with ``left``
(n x p), ``mhat``, ``khat`` (p x p) and ``right`` (p x n), which
``load_delta`` returns as the factors of an ``UpdateResult``. Otherwise it
is ``format: 1`` with the dense ``delta_m`` and ``delta_k``.

Files are written as ``json.dumps(doc, indent=1, sort_keys=True)`` with
every matrix encoded by ``encode_matrix``; ``_dumps`` produces exactly those
bytes without walking each float in Python.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .unstructured import UpdateResult

FORMAT_VERSION = 1
FACTORED_DELTA_FORMAT = 2

_FACTOR_NAMES = ("left", "mhat", "khat", "right")

STRUCTURE_NAMES = (
    "unstructured",
    "symmetric",
    "hermitian",
    "t-odd",
    "star-odd",
    "t-even",
    "star-even",
    "star-shh",
    "t-shh",
)


def encode_matrix(a) -> list:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def decode_matrix(obj, name: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{name}: not a numeric array: {exc}") from None
    if arr.ndim == 2 and arr.shape[-1] == 2:  # vector of [re, im]
        return arr[:, 0] + 1j * arr[:, 1]
    if arr.ndim == 3 and arr.shape[-1] == 2:
        return arr[:, :, 0] + 1j * arr[:, :, 1]
    raise SchemaError(f"{name}: expected [re, im] pairs, got shape {arr.shape}")


def _dumps(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=1, sort_keys=True)`` at nesting ``depth``,
    with each ndarray written as ``encode_matrix`` would encode it.

    Dict keys must be strings. Scalars go through ``json.dumps`` itself.
    """
    if isinstance(obj, np.ndarray):
        return _dumps_matrix(obj, depth)
    if isinstance(obj, dict):
        items = [f"{json.dumps(key)}: {_dumps(obj[key], depth + 1)}" for key in sorted(obj)]
        return _nest(items, depth, "{}")
    if isinstance(obj, (list, tuple)):
        return _nest([_dumps(item, depth + 1) for item in obj], depth, "[]")
    return json.dumps(obj)


def _nest(items, depth: int, brackets: str = "[]") -> str:
    """Items of a JSON list or object opening at ``depth``, one per line."""
    if not items:
        return brackets
    inner = "\n" + " " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + " " * depth + brackets[1]


def _matrix_template(shape: tuple, depth: int) -> str:
    """%r template of an encoded array of ``shape`` opening at ``depth``."""
    text = _nest(["%r", "%r"], depth + len(shape))
    for axis in reversed(range(len(shape))):
        text = _nest([text] * shape[axis], depth + axis)
    return text


def _dumps_matrix(a, depth: int) -> str:
    # %r of a Python float is float.__repr__, the text json writes. NaN and
    # Inf (spelled NaN/Infinity by json) and empty arrays take the slow path.
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim not in (1, 2) or a.size == 0 or not np.isfinite(a).all():
        return _dumps(encode_matrix(a), depth)
    floats = np.ascontiguousarray(a).view(np.float64).ravel().tolist()
    return _matrix_template(a.shape, depth) % tuple(floats)


def _write(path, doc):
    Path(path).write_text(_dumps(doc) + "\n", encoding="utf-8")


def _decode_optional(block, key, name):
    if block is None or block.get(key) is None:
        return None
    return decode_matrix(block[key], name)


@dataclass
class PairBlock:
    x: np.ndarray | None = None
    lam: np.ndarray | None = None
    eigenvalues: np.ndarray | None = None


@dataclass
class ProblemFile:
    structure: str
    m: np.ndarray
    k: np.ndarray
    change: PairBlock = field(default_factory=PairBlock)
    targets: PairBlock = field(default_factory=PairBlock)
    fixed: PairBlock | None = None
    parameters: dict = field(default_factory=dict)
    quadratic: bool = False


_PARAM_MATRIX_KEYS = ("z1", "z2", "mhat")
_PARAM_LIST_KEYS = ("quad_alpha", "quad_beta", "imag_beta", "real_beta")
_PARAM_SCALAR_KEYS = ("t", "slack")
_PARAM_INT_KEYS = ("num_couples", "num_quadruples", "num_imag_pairs", "num_real_pairs")
_PARAM_STR_KEYS = ("strategy",)


def _decode_pair_block(obj, name) -> PairBlock:
    if obj is None:
        return PairBlock()
    if not isinstance(obj, dict):
        raise SchemaError(f"{name} must be an object")
    return PairBlock(
        x=_decode_optional(obj, "x", f"{name}.x"),
        lam=_decode_optional(obj, "lambda", f"{name}.lambda"),
        eigenvalues=_decode_optional(obj, "eigenvalues", f"{name}.eigenvalues"),
    )


def _encode_pair_block(block: PairBlock | None):
    if block is None:
        return None
    out = {}
    if block.x is not None:
        out["x"] = np.asarray(block.x)
    if block.lam is not None:
        out["lambda"] = np.asarray(block.lam)
    if block.eigenvalues is not None:
        out["eigenvalues"] = np.asarray(block.eigenvalues)
    return out or None


def load_problem(path) -> ProblemFile:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read problem file: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError("problem file must hold a JSON object")
    if raw.get("format") != FORMAT_VERSION:
        raise SchemaError(f"unsupported format {raw.get('format')!r}")
    structure = raw.get("structure", "unstructured")
    if structure is None:
        structure = "unstructured"
    if structure not in STRUCTURE_NAMES:
        raise SchemaError(f"unknown structure {structure!r}")
    if "m" not in raw or "k" not in raw:
        raise SchemaError("problem file needs 'm' and 'k' matrices")
    m = decode_matrix(raw["m"], "m")
    k = decode_matrix(raw["k"], "k")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape != k.shape:
        raise SchemaError("m and k must be square matrices of equal size")
    params_raw = raw.get("parameters") or {}
    if not isinstance(params_raw, dict):
        raise SchemaError("parameters must be an object")
    params = {}
    for key, value in params_raw.items():
        if value is None:
            continue
        if key in _PARAM_MATRIX_KEYS:
            params[key] = decode_matrix(value, f"parameters.{key}")
        elif key in _PARAM_LIST_KEYS:
            params[key] = [float(v) for v in value]
        elif key in _PARAM_SCALAR_KEYS:
            params[key] = float(value)
        elif key in _PARAM_INT_KEYS:
            params[key] = int(value)
        elif key in _PARAM_STR_KEYS:
            params[key] = str(value)
        else:
            raise SchemaError(f"unknown parameter {key!r}")
    pf = ProblemFile(
        structure=structure,
        m=m,
        k=k,
        change=_decode_pair_block(raw.get("change"), "change"),
        targets=_decode_pair_block(raw.get("targets"), "targets"),
        fixed=(
            _decode_pair_block(raw["fixed"], "fixed")
            if raw.get("fixed") is not None
            else None
        ),
        parameters=params,
        quadratic=bool(raw.get("quadratic", False)),
    )
    return pf


def dump_problem(pf: ProblemFile) -> str:
    params = {}
    for key, value in pf.parameters.items():
        if key in _PARAM_MATRIX_KEYS:
            params[key] = np.asarray(value)
        elif key in _PARAM_LIST_KEYS:
            params[key] = [float(v) for v in value]
        else:
            params[key] = value
    doc = {
        "format": FORMAT_VERSION,
        "structure": pf.structure,
        "quadratic": pf.quadratic,
        "m": np.asarray(pf.m),
        "k": np.asarray(pf.k),
        "change": _encode_pair_block(pf.change),
        "targets": _encode_pair_block(pf.targets),
        "fixed": _encode_pair_block(pf.fixed),
        "parameters": params or None,
    }
    return _dumps(doc)


def save_problem(path, pf: ProblemFile):
    Path(path).write_text(dump_problem(pf) + "\n", encoding="utf-8")


def save_pairs(path, fixed_x, fixed_lam):
    doc = {
        "format": FORMAT_VERSION,
        "fixed": {"x": np.asarray(fixed_x), "lambda": np.asarray(fixed_lam)},
    }
    _write(path, doc)


def load_pairs(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read pairs file: {exc}") from None
    if raw.get("format") != FORMAT_VERSION:
        raise SchemaError(f"unsupported format {raw.get('format')!r}")
    out = {}
    for key in ("targets", "fixed"):
        if raw.get(key) is not None:
            out[key] = _decode_pair_block(raw[key], key)
    return out


def certificate_dict(cert) -> dict:
    doc = {
        "target_residual": cert.target_residual,
        "target_relative": cert.target_relative,
        "spillover_residual": cert.spillover_residual,
        "spillover_relative": cert.spillover_relative,
        "structure_residuals": dict(cert.structure_residuals),
        "definiteness": dict(cert.definiteness),
        "pass": cert.passed,
    }
    if cert.spectrum is not None:
        doc["spectrum"] = {
            "max_distance": cert.spectrum.max_distance,
            "unmatched": cert.spectrum.unmatched,
            "infinite_computed": cert.spectrum.infinite_computed,
            "tol": cert.spectrum.tol,
        }
    return doc


def save_result(path, result, cert=None, extra=None):
    """Delta file of ``result``: ``format: 2`` with its factors when it has
    them, else ``format: 1`` with the dense dM and dK."""
    factors = result.factors
    prov = {}
    for key, value in result.provenance.items():
        if isinstance(value, (np.ndarray, bool, int, float, str)):
            prov[key] = value
        elif isinstance(value, complex):
            prov[key] = [value.real, value.imag]
    if factors is None:
        doc = {
            "format": FORMAT_VERSION,
            "delta_m": np.asarray(result.delta_m),
            "delta_k": np.asarray(result.delta_k),
        }
    else:
        doc = {
            "format": FACTORED_DELTA_FORMAT,
            "factors": {key: np.asarray(f) for key, f in zip(_FACTOR_NAMES, factors)},
        }
    doc["provenance"] = prov
    doc["certificate"] = certificate_dict(cert) if cert is not None else None
    if extra:
        doc.update(extra)
    _write(path, doc)


def _factored_delta(raw) -> UpdateResult:
    block = raw.get("factors")
    if not isinstance(block, dict) or any(key not in block for key in _FACTOR_NAMES):
        raise SchemaError(f"delta file needs factors {', '.join(_FACTOR_NAMES)}")
    left, mhat, khat, right = (
        decode_matrix(block[key], f"factors.{key}") for key in _FACTOR_NAMES
    )
    p = mhat.shape[0]
    if not (
        left.ndim == right.ndim == 2
        and mhat.shape == khat.shape == (p, p) == (left.shape[1], right.shape[0])
        and left.shape[0] == right.shape[1]
    ):
        raise SchemaError("factors must be n x p, p x p, p x p and p x n")
    return UpdateResult(factors=(left, mhat, khat, right))


def load_delta(path) -> UpdateResult:
    """The update of a delta file: its factors (format 2) or its dense dM
    and dK (format 1)."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read delta file: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError("delta file must hold a JSON object")
    if raw.get("format") == FACTORED_DELTA_FORMAT:
        return _factored_delta(raw)
    if raw.get("format") != FORMAT_VERSION:
        raise SchemaError(f"unsupported format {raw.get('format')!r}")
    if "delta_m" not in raw or "delta_k" not in raw:
        raise SchemaError("delta file needs 'delta_m' and 'delta_k'")
    dm = decode_matrix(raw["delta_m"], "delta_m")
    dk = decode_matrix(raw["delta_k"], "delta_k")
    if dm.ndim != 2 or dm.shape[0] != dm.shape[1] or dm.shape != dk.shape:
        raise SchemaError("delta_m and delta_k must be square matrices of equal size")
    return UpdateResult(dense=(dm, dk))


def load_pencil(path) -> tuple[np.ndarray, np.ndarray, str]:
    """(M, K, structure) from a problem file or a bare pencil file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read pencil file: {exc}") from None
    if raw.get("format") != FORMAT_VERSION:
        raise SchemaError(f"unsupported format {raw.get('format')!r}")
    if "m" not in raw or "k" not in raw:
        raise SchemaError("pencil file needs 'm' and 'k'")
    structure = raw.get("structure") or "unstructured"
    if structure not in STRUCTURE_NAMES:
        raise SchemaError(f"unknown structure {structure!r}")
    return decode_matrix(raw["m"], "m"), decode_matrix(raw["k"], "k"), structure
