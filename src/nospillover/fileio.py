"""Text problem/result files.

UTF-8 JSON, schema versioned with a ``format`` field. Complex entries are
stored as [re, im] pairs, each float in its shortest round-trip digits, so
parse(emit(x)) is bitwise faithful.

Problem and pairs files are ``format: 1``. A delta file is ``format: 2``
when the update carries its factors: a ``factors`` block with ``left``
(n x p), ``mhat``, ``khat`` (p x p) and ``right`` (p x n), which
``load_delta`` returns as the factors of an ``UpdateResult``. Otherwise it
is ``format: 1`` with the dense ``delta_m`` and ``delta_k``.

Files are compact, with sorted keys, written by ``orjson`` a matrix row at
a time from each array's float64 view. orjson cannot spell a non-finite
number, so an array or number holding a NaN or an infinity is written by
``json.dumps`` instead, as ``NaN``/``Infinity`` (never ``null``). Files
are read by ``orjson``; one it refuses is parsed again by ``json.loads``,
which takes those tokens and ``1e400`` and words the error. Both libraries
are imported on first use, so importing the CLI loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .linalg import TAU_SPECTRUM
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


def _float_view(a) -> np.ndarray:
    """``a`` as complex128 in C order, viewed as float64 of shape
    ``a.shape + (2,)``: each entry as its [re, im] pair."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return a.view(np.float64).reshape(a.shape + (2,))


def encode_matrix(a) -> list:
    return _float_view(a).tolist()


def decode_matrix(obj, name: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{name}: not a numeric array: {exc}") from None
    if arr.ndim in (2, 3) and arr.shape[-1] == 2:  # a vector or a matrix of [re, im]
        return arr[..., 0] + 1j * arr[..., 1]
    raise SchemaError(f"{name}: expected [re, im] pairs, got shape {arr.shape}")


def _views(obj):
    """``obj`` with each ndarray replaced by its ``_float_view``."""
    if isinstance(obj, dict):
        return {key: _views(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_views(value) for value in obj]
    return _float_view(obj) if isinstance(obj, np.ndarray) else obj


def _chunks(tree):
    """The compact JSON of a ``_views`` tree, keys sorted, in pieces of at
    most one matrix row: ``orjson.dumps(tree, OPT_SORT_KEYS)`` when every
    number is finite. orjson would write a NaN or an infinity as null, so an
    array or number holding one is written by ``json.dumps``.

    One ``dumps`` of the whole tree grows a buffer as large as the file;
    freeing it leaves the process's heap in a state that depends on the
    allocation history, so the peak memory of whatever runs next varies
    from one run to the next. Row-sized pieces leave no such buffer.
    """
    import orjson

    if isinstance(tree, dict):
        for i, key in enumerate(sorted(tree)):
            yield (b",%s:" if i else b"{%s:") % orjson.dumps(key)
            yield from _chunks(tree[key])
        yield b"}" if tree else b"{}"
    elif isinstance(tree, list) or (isinstance(tree, np.ndarray) and tree.ndim > 2):
        for i, item in enumerate(tree):  # a matrix's items are its rows
            yield b"," if i else b"["
            yield from _chunks(item)
        yield b"]" if len(tree) else b"[]"
    elif isinstance(tree, (np.ndarray, float)) and not np.isfinite(tree).all():
        import json

        yield json.dumps(tree, default=np.ndarray.tolist, separators=(",", ":")).encode()
    else:
        yield orjson.dumps(tree, option=orjson.OPT_SERIALIZE_NUMPY)


def _write(path, doc):
    with open(path, "wb") as f:
        f.writelines(_chunks(_views(doc)))
        f.write(b"\n")


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
    """A pair block; its lambda, when given with x, is p x p for the p
    columns of x (a vector counts as one column)."""
    if obj is None:
        return PairBlock()
    if not isinstance(obj, dict):
        raise SchemaError(f"{name} must be an object")
    block = PairBlock(
        x=_decode_optional(obj, "x", f"{name}.x"),
        lam=_decode_optional(obj, "lambda", f"{name}.lambda"),
        eigenvalues=_decode_optional(obj, "eigenvalues", f"{name}.eigenvalues"),
    )
    if block.x is not None and block.lam is not None:
        p = block.x.shape[1] if block.x.ndim == 2 else 1
        lam_shape = block.lam.shape if block.lam.ndim == 2 else (block.lam.size, 1)
        if lam_shape != (p, p):
            raise SchemaError(
                f"{name}.lambda is {lam_shape[0]} x {lam_shape[1]}, "
                f"but {name}.x has {p} columns"
            )
    return block


def _encode_pair_block(block: PairBlock | None):
    if block is None:
        return None
    arrays = {"x": block.x, "lambda": block.lam, "eigenvalues": block.eigenvalues}
    return {key: np.asarray(a) for key, a in arrays.items() if a is not None} or None


def _read(path, what: str, formats=(FORMAT_VERSION,)) -> dict:
    """The JSON object of a ``what`` file (problem, pencil, pairs, delta)
    whose ``format`` is one of ``formats``; SchemaError otherwise."""
    import orjson

    try:
        data = Path(path).read_bytes()
        try:
            raw = orjson.loads(data)
        except orjson.JSONDecodeError:
            import json

            raw = json.loads(data.decode("utf-8"))
    except (OSError, ValueError) as exc:  # JSON and UTF-8 decode errors are ValueErrors
        raise SchemaError(f"cannot read {what} file: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError(f"{what} file must hold a JSON object")
    if raw.get("format") not in formats:
        raise SchemaError(f"unsupported format {raw.get('format')!r}")
    return raw


def _pencil_matrices(raw, what: str) -> tuple[np.ndarray, np.ndarray]:
    if "m" not in raw or "k" not in raw:
        raise SchemaError(f"{what} file needs 'm' and 'k' matrices")
    m = decode_matrix(raw["m"], "m")
    k = decode_matrix(raw["k"], "k")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape != k.shape:
        raise SchemaError(
            f"m and k must be square matrices of equal size, got {m.shape} and {k.shape}"
        )
    return m, k


def load_problem(path) -> ProblemFile:
    raw = _read(path, "problem")
    structure = raw.get("structure", "unstructured")
    if structure is None:
        structure = "unstructured"
    if structure not in STRUCTURE_NAMES:
        raise SchemaError(f"unknown structure {structure!r}")
    m, k = _pencil_matrices(raw, "problem")
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


def _problem_doc(pf: ProblemFile) -> dict:
    params = {}
    for key, value in pf.parameters.items():
        if key in _PARAM_MATRIX_KEYS:
            params[key] = np.asarray(value)
        elif key in _PARAM_LIST_KEYS:
            params[key] = [float(v) for v in value]
        else:
            params[key] = value
    return {
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


def save_problem(path, pf: ProblemFile):
    _write(path, _problem_doc(pf))


def save_pairs(path, fixed_x, fixed_lam):
    doc = {
        "format": FORMAT_VERSION,
        "fixed": {"x": np.asarray(fixed_x), "lambda": np.asarray(fixed_lam)},
    }
    _write(path, doc)


def load_pairs(path) -> dict:
    raw = _read(path, "pairs")
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
            "tol": TAU_SPECTRUM,
            "oracle": cert.spectrum.oracle,
        }
    return doc


def save_result(path, result, cert=None):
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
    raw = _read(path, "delta", (FORMAT_VERSION, FACTORED_DELTA_FORMAT))
    if raw["format"] == FACTORED_DELTA_FORMAT:
        return _factored_delta(raw)
    if "delta_m" not in raw or "delta_k" not in raw:
        raise SchemaError("delta file needs 'delta_m' and 'delta_k'")
    dm = decode_matrix(raw["delta_m"], "delta_m")
    dk = decode_matrix(raw["delta_k"], "delta_k")
    if dm.ndim != 2 or dm.shape[0] != dm.shape[1] or dm.shape != dk.shape:
        raise SchemaError("delta_m and delta_k must be square matrices of equal size")
    return UpdateResult(dense=(dm, dk))


def load_pencil(path) -> tuple[np.ndarray, np.ndarray, str]:
    """(M, K, structure) from a problem file or a bare pencil file."""
    raw = _read(path, "pencil")
    structure = raw.get("structure") or "unstructured"
    if structure not in STRUCTURE_NAMES:
        raise SchemaError(f"unknown structure {structure!r}")
    return (*_pencil_matrices(raw, "pencil"), structure)
