"""Text problem/result files.

UTF-8 JSON, schema versioned with a ``format`` field. Complex entries are
stored as [re, im] pairs, each float in its shortest round-trip digits, so
parse(emit(x)) is bitwise faithful.

Problem and pairs files are ``format: 1``. A pair block's ``lambda`` is a
p x p matrix or the vector of its p diagonal values (any length when the
block has no ``x``), which a ``PairBlock`` keeps as given in
``lam_compact``: a ``DeflatingPair`` takes the values as its diagonal, and
``PairBlock.lam`` forms the matrix on each access. The writers
spell a Lambda with no entry off its diagonal but +0 as its values: a
diagonal fixed pair of order n - p is n - p pairs, not (n - p)^2, and is
read back with no (n - p)^2 matrix. A delta file is written as
``format: 2``: a ``factors`` block with ``left`` (n x a), ``mhat``,
``khat`` (a x b) and ``right`` (b x n), which ``load_delta`` returns as the
factors of an ``UpdateResult``. ``load_delta`` still reads the older
``format: 1`` delta file, with the dense ``delta_m`` and ``delta_k``, as
the factors ``(I_n, delta_m, delta_k, I_n)``.

Every reader reads each key of its file or refuses the file with a
``SchemaError`` that names the key. Two tables say what each solve path
reads: ``PARAMETERS`` for the keys of ``parameters``, and ``PAIR_FIELDS``
for the fields of the ``change``, ``targets`` and ``fixed`` blocks, with
the paths that need each field. ``ProblemFile.checked`` applies both to a
problem file wherever the package makes one (``load_problem``,
``load_pencil``, ``random``, the reference cases), and ``load_pairs``
applies ``PAIR_FIELDS`` to a pairs file; so the dispatch and the CLI
check no key. A file that cannot be read or written is a ``SchemaError``
too.

Files are compact, with sorted keys, written by ``orjson`` a matrix row at
a time from each array's float64 view. orjson cannot spell a non-finite
number, so an array or number holding a NaN or an infinity is written by
``json.dumps`` instead, as ``NaN``/``Infinity`` (never ``null``). Files
are read by ``orjson``; one it refuses is parsed again by ``json.loads``,
which takes those tokens and ``1e400`` and words the error. Both libraries
are imported on first use, so importing the CLI loads neither.

The four readers, ``load_problem``, ``load_pencil``, ``load_pairs`` and
``load_delta``, run with Python's cyclic garbage collector paused, and
leave it enabled or disabled as they found it. A parsed file is a tree of
n^2 two-float lists for each matrix and holds no reference cycle, so a
collection while the tree is built or decoded could only walk it.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import wraps
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .linalg import TAU_SPECTRUM
from .special import QUADRATIC_CLASSES
from .unstructured import UpdateResult

FORMAT_VERSION = 1
FACTORED_DELTA_FORMAT = 2

_FACTOR_NAMES = ("left", "mhat", "khat", "right")
# the keys each reader reads; a problem or pencil file, a pairs file, a
# delta file of each format, a factors block or a pair block that holds
# another is refused
_PROBLEM_KEYS = (
    "format", "structure", "quadratic", "m", "k", "change", "targets", "fixed", "parameters"
)
_PAIRS_KEYS = ("format", "targets", "fixed")
_DELTA_KEYS = {
    FACTORED_DELTA_FORMAT: ("format", "factors", "provenance", "certificate"),
    FORMAT_VERSION: ("format", "delta_m", "delta_k", "provenance", "certificate"),
}
# each key of a pair block, and the PairBlock attribute that holds it
_FIELD_ATTRS = {"x": "x", "lambda": "lam_compact", "eigenvalues": "eigenvalues"}

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


# the JSON name of each decoded type that is no JSON number; JSON true is no number
_NOT_NUMBERS = {str: "string", bool: "boolean", type(None): "null", dict: "object", list: "array"}


def decode_matrix(obj, name: str) -> np.ndarray:
    """The vector or matrix of [re, im] pairs that nested JSON arrays hold;
    SchemaError naming ``name`` unless the arrays are regular and every leaf
    is a JSON number (an int or a float, not a bool).

    The arrays are flattened a level at a time, and the leaves' types are
    read as one set, so the check costs one pass over the flat list before
    ``np.array`` reads it."""
    leaves, shape = [obj], ()
    while (kinds := set(map(type, leaves))) == {list}:
        lengths = set(map(len, leaves))
        if len(lengths) > 1:
            raise SchemaError(f"{name}: not a numeric array: rows of lengths {sorted(lengths)}")
        shape += (lengths.pop(),)
        leaves = list(chain.from_iterable(leaves))
    wrong = sorted(_NOT_NUMBERS.get(kind, kind.__name__) for kind in kinds - {int, float})
    if wrong:
        raise SchemaError(f"{name}: not a numeric array: it holds {' and '.join(wrong)} values")
    try:
        arr = np.array(leaves, dtype=float).reshape(shape)
    except OverflowError as exc:  # an integer past the float range
        raise SchemaError(f"{name}: not a numeric array: {exc}") from None
    if arr.ndim in (2, 3) and arr.shape[-1] == 2:  # a vector or a matrix of [re, im]
        return np.ascontiguousarray(arr).view(np.complex128)[..., 0]
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
    """Write ``doc`` to ``path``; SchemaError naming the path when it cannot
    be written."""
    try:
        with open(path, "wb") as f:
            f.writelines(_chunks(_views(doc)))
            f.write(b"\n")
    except OSError as exc:  # its message names the path
        raise SchemaError(f"cannot write file: {exc}") from None


@dataclass(init=False)
class PairBlock:
    """A pair block's x, Lambda and eigenvalues, each None when absent.

    Lambda is kept as given (``lam_compact``): the values of a diagonal
    one, as a file may spell it, or the matrix. ``lam`` forms the matrix
    on each access, as ``DeflatingPair.lam`` does, and a ``DeflatingPair``
    takes ``lam_compact`` as it is."""

    x: np.ndarray | None
    lam_compact: np.ndarray | None
    eigenvalues: np.ndarray | None

    def __init__(self, x=None, lam=None, eigenvalues=None):
        self.x, self.lam_compact, self.eigenvalues = x, lam, eigenvalues

    @property
    def lam(self) -> np.ndarray | None:
        lam = self.lam_compact
        return np.diag(lam) if np.ndim(lam) == 1 else lam


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

    @property
    def path(self) -> str:
        """The solve path: "quadratic" for a quadratic file, else its structure."""
        return "quadratic" if self.quadratic else self.structure

    def checked(self) -> ProblemFile:
        """This file; SchemaError unless a quadratic file's structure is a
        quadratic class and its path reads every field and parameter it
        gives and is given every field it needs (``PAIR_FIELDS``,
        ``PARAMETERS``). Every problem file the package makes is checked:
        a loaded one, a ``random`` one and each reference case's."""
        if self.quadratic and self.structure not in QUADRATIC_CLASSES:
            raise SchemaError(
                f"quadratic problems need structure in {QUADRATIC_CLASSES}, "
                f"got {self.structure!r}"
            )
        blocks = {"change": self.change, "targets": self.targets, "fixed": self.fixed}
        _check_reads(self.path, blocks, self.parameters)
        return self


_STRUCTURED = STRUCTURE_NAMES[1:]
# the path of every structure, unstructured included, and pairs files
_PAIR_READERS = STRUCTURE_NAMES + ("pairs",)

# Each key a problem file's ``parameters`` may hold: the JSON type of its
# value, and the solve paths that read it (a structure name, "quadratic" or
# "unstructured"). A file names no other key, and its path reads the keys it
# names.
PARAMETERS = {
    "t": ("number", _STRUCTURED),
    **dict.fromkeys(("mhat", "z1", "z2"), ("matrix", _STRUCTURED + ("quadratic",))),
    "strategy": ("string", ("quadratic",)),
    "slack": ("number", ("quadratic",)),
}

# Each field of a pair block, as ``block.key``: the JSON type of its value,
# the readers that read it, and the readers that need it in a block that is
# given. A reader is a solve path, or "pairs" for a pairs file. A problem
# file always gives its change and targets; its fixed pair, and each block
# of a pairs file, is given or absent as a whole.
PAIR_FIELDS = {
    **dict.fromkeys(("change.x", "change.lambda"), ("matrix", STRUCTURE_NAMES, STRUCTURE_NAMES)),
    "change.eigenvalues": ("matrix", ("quadratic",), ("quadratic",)),
    "targets.x": ("matrix", ("unstructured", "pairs"), ("pairs",)),
    "targets.lambda": ("matrix", _PAIR_READERS, _PAIR_READERS),
    "targets.eigenvalues": ("matrix", ("quadratic",), ("quadratic",)),
    **dict.fromkeys(("fixed.x", "fixed.lambda"), ("matrix", _PAIR_READERS, _PAIR_READERS)),
    "fixed.eigenvalues": ("matrix", (), ()),
}

# whether a decoded JSON value is of each type but "matrix", which decode_matrix
# reads; JSON true is no number
_IS_TYPE = {
    "number": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
    "string": lambda value: isinstance(value, str),
}


def _known_keys(obj: dict, keys, what: str) -> dict:
    """``obj``; SchemaError naming its first key outside ``keys``."""
    for key in obj:
        if key not in keys:
            raise SchemaError(f"{what}: unknown key {key!r}")
    return obj


def _decode_value(kind, value, name):
    """A value of JSON type ``kind``; SchemaError naming it otherwise."""
    if kind == "matrix":
        return decode_matrix(value, name)
    if not _IS_TYPE[kind](value):
        raise SchemaError(f"{name}: not a {kind}")
    return value


def _check_reads(reader: str, blocks: dict, parameters=()) -> None:
    """SchemaError naming every field of a given block (``blocks`` maps a
    block name to its PairBlock, or None when absent) and every
    ``parameters`` key that ``reader`` does not read; else naming every
    field it needs that a given block lacks."""
    article = "an" if reader[0] in "aeiou" else "a"
    fields = [(name, row, getattr(blocks[block], _FIELD_ATTRS[key]) is not None)
              for name, row in PAIR_FIELDS.items()
              for block, key in [name.split(".")] if blocks.get(block) is not None]
    unread = [name for name, (_, readers, _), given in fields if given and reader not in readers]
    unread += [f"parameters.{key}" for key in parameters
               if reader not in PARAMETERS.get(key, (None, ()))[1]]
    if unread:
        raise SchemaError(f"{article} {reader} file reads no {', '.join(unread)}")
    missing = [name for name, (_, _, needers), given in fields if not given and reader in needers]
    if missing:
        raise SchemaError(f"{article} {reader} file needs {', '.join(missing)}")


def _decode_pair_block(obj, name) -> PairBlock:
    """A pair block, each field a matrix (a null one is refused, as a null
    parameter is). A lambda given as a vector is kept as its values
    (``PairBlock.lam_compact``); when given with x, it is p x p, or p
    values, for the p columns of x (a vector x counts as one column)."""
    if obj is None:
        return PairBlock()
    if not isinstance(obj, dict):
        raise SchemaError(f"{name} must be an object")
    _known_keys(obj, _FIELD_ATTRS, name)
    block = PairBlock()
    for key, value in obj.items():
        kind = PAIR_FIELDS[f"{name}.{key}"][0]
        setattr(block, _FIELD_ATTRS[key], _decode_value(kind, value, f"{name}.{key}"))
    lam = block.lam_compact
    if block.x is not None and lam is not None:
        p = block.x.shape[1] if block.x.ndim == 2 else 1
        if lam.shape != (p,) * lam.ndim:
            rows = lam.shape[0]
            given = (f"holds {rows} value{'s' * (rows != 1)}" if lam.ndim == 1
                     else f"is {rows} x {lam.shape[1]}")
            raise SchemaError(f"{name}.lambda {given}, but {name}.x has {p} columns")
    return block


def _lambda_values(lam) -> np.ndarray:
    """``lam`` as a file spells it: the vector of its diagonal values when
    every entry off its diagonal is +0 (``linalg.compact_lambda``'s rule,
    with a -0 counted as nonzero, so that the matrix reads back bit for
    bit), else the matrix. A vector is already its values."""
    lam = np.asarray(lam)
    if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
        return lam
    bits = _float_view(lam).view(np.uint64)
    diag = np.diagonal(bits, axis1=0, axis2=1)
    return np.diagonal(lam) if np.count_nonzero(bits) == np.count_nonzero(diag) else lam


def _encode_pair_block(block: PairBlock | None):
    if block is None:
        return None
    lam = None if block.lam_compact is None else _lambda_values(block.lam_compact)
    arrays = {"x": block.x, "lambda": lam, "eigenvalues": block.eigenvalues}
    return {key: np.asarray(a) for key, a in arrays.items() if a is not None} or None


def _collector_paused(reader):
    """``reader`` run with the cyclic garbage collector disabled, and the
    collector's earlier state restored however the reader ends."""

    @wraps(reader)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return reader(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def _read(path, what: str, formats=(FORMAT_VERSION,), keys=None) -> dict:
    """The JSON object of a ``what`` file (problem, pencil, pairs, delta)
    whose ``format`` is one of ``formats`` and whose keys, when ``keys`` is
    given, are among them; SchemaError otherwise."""
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
    return raw if keys is None else _known_keys(raw, keys, f"{what} file")


def _structure(raw) -> str:
    """A file's ``structure``, "unstructured" when absent or null."""
    structure = raw.get("structure")
    if structure is None:
        return "unstructured"
    if structure not in STRUCTURE_NAMES:
        raise SchemaError(f"unknown structure {structure!r}")
    return structure


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


@_collector_paused
def load_problem(path) -> ProblemFile:
    return _load_problem(path, "problem")


def _load_problem(path, what: str) -> ProblemFile:
    """The problem file at ``path``, read in full: every block is decoded
    and checked, whichever of them the caller uses."""
    raw = _read(path, what, keys=_PROBLEM_KEYS)
    structure = _structure(raw)
    m, k = _pencil_matrices(raw, what)
    params_raw = raw.get("parameters") or {}
    if not isinstance(params_raw, dict):
        raise SchemaError("parameters must be an object")
    _known_keys(params_raw, PARAMETERS, "parameters")
    params = {key: _decode_value(PARAMETERS[key][0], value, f"parameters.{key}")
              for key, value in params_raw.items()}
    quadratic = raw.get("quadratic", False)
    if not isinstance(quadratic, bool):
        raise SchemaError("quadratic must be true or false")
    return ProblemFile(
        structure=structure,
        m=m,
        k=k,
        change=_decode_pair_block(raw.get("change"), "change"),
        targets=_decode_pair_block(raw.get("targets"), "targets"),
        fixed=None if raw.get("fixed") is None else _decode_pair_block(raw["fixed"], "fixed"),
        parameters=params,
        quadratic=quadratic,
    ).checked()


def _problem_doc(pf: ProblemFile) -> dict:
    params = {key: np.asarray(value) if PARAMETERS[key][0] == "matrix" else value
              for key, value in pf.parameters.items()}
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
    """A pairs file with the fixed pair (``fixed_lam`` a matrix, or the
    values of a diagonal one)."""
    doc = {"format": FORMAT_VERSION, "fixed": _encode_pair_block(PairBlock(fixed_x, fixed_lam))}
    _write(path, doc)


@_collector_paused
def load_pairs(path) -> dict:
    """The blocks a pairs file gives, ``targets`` and ``fixed``: at least
    one, each with its x and lambda (``PAIR_FIELDS``)."""
    raw = _read(path, "pairs", keys=_PAIRS_KEYS)
    out = {key: _decode_pair_block(raw[key], key)
           for key in ("targets", "fixed") if raw.get(key) is not None}
    if not out:
        raise SchemaError("a pairs file needs targets or fixed")
    _check_reads("pairs", out)
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
    """Delta file of ``result``: ``format: 2`` with its factors."""
    prov = {}
    for key, value in result.provenance.items():
        if isinstance(value, (np.ndarray, bool, int, float, str)):
            prov[key] = value
        elif isinstance(value, complex):
            prov[key] = [value.real, value.imag]
    doc = {
        "format": FACTORED_DELTA_FORMAT,
        "factors": {key: np.asarray(f) for key, f in zip(_FACTOR_NAMES, result.factors)},
        "provenance": prov,
        "certificate": certificate_dict(cert) if cert is not None else None,
    }
    _write(path, doc)


def _factored_delta(raw) -> UpdateResult:
    block = raw.get("factors")
    if not isinstance(block, dict) or any(key not in block for key in _FACTOR_NAMES):
        raise SchemaError(f"delta file needs factors {', '.join(_FACTOR_NAMES)}")
    _known_keys(block, _FACTOR_NAMES, "factors")
    left, mhat, khat, right = (
        decode_matrix(block[key], f"factors.{key}") for key in _FACTOR_NAMES
    )
    if not (
        left.ndim == right.ndim == 2
        and mhat.shape == khat.shape == (left.shape[1], right.shape[0])
        and left.shape[0] == right.shape[1]
    ):
        raise SchemaError("factors must be n x a, a x b, a x b and b x n")
    return UpdateResult(factors=(left, mhat, khat, right))


@_collector_paused
def load_delta(path) -> UpdateResult:
    """The update of a delta file: its factors (format 2), or its dense dM
    and dK (format 1) as the factors (I_n, dM, dK, I_n)."""
    raw = _read(path, "delta", tuple(_DELTA_KEYS))
    _known_keys(raw, _DELTA_KEYS[raw["format"]], "delta file")
    if raw["format"] == FACTORED_DELTA_FORMAT:
        return _factored_delta(raw)
    if "delta_m" not in raw or "delta_k" not in raw:
        raise SchemaError("delta file needs 'delta_m' and 'delta_k'")
    dm = decode_matrix(raw["delta_m"], "delta_m")
    dk = decode_matrix(raw["delta_k"], "delta_k")
    if dm.ndim != 2 or dm.shape[0] != dm.shape[1] or dm.shape != dk.shape:
        raise SchemaError("delta_m and delta_k must be square matrices of equal size")
    eye = np.eye(dm.shape[0])
    return UpdateResult(factors=(eye, dm, dk, eye))


@_collector_paused
def load_pencil(path) -> tuple[np.ndarray, np.ndarray, str]:
    """(M, K, structure) from a problem file, which is refused wherever
    ``load_problem`` would refuse it."""
    pf = _load_problem(path, "pencil")
    return pf.m, pf.k, pf.structure
