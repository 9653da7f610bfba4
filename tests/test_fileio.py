"""Round-trip and schema tests for the text file formats."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import same_values, t_shh_shape, t_shh_solve

from nospillover import fileio
from nospillover.errors import SchemaError
from nospillover.linalg import fnorm
from nospillover.randomgen import plant_problem, plant_star_shh, plant_t_shh
from nospillover.shh import shh_gramian, shh_update, t_shh_mhat
from nospillover.structured import change_gramian, scaled_gramian_core, structured_update
from nospillover.unstructured import UpdateResult
from nospillover.verify import Certificate, SpectrumMatch

DATA = Path(__file__).parent / "data"


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# an infinite imaginary part, and imaginary parts of -0.0 next to a NaN and a number
_EDGE = np.array([complex(1.5, -math.inf), complex(math.nan, -0.0), complex(2.0, -0.0)])


def _decoded(a):
    """``a`` written by encode_matrix and read back by decode_matrix, with
    any warning raised."""
    encoded = json.loads(json.dumps(fileio.encode_matrix(a)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fileio.decode_matrix(encoded, "a")


class TestMatrixCodec:
    def test_matrix_round_trip_bitwise(self):
        rng = np.random.default_rng(1)
        a = crandn(rng, 4, 3)
        a[0] = _EDGE
        assert np.array_equal(_bits(_decoded(a)), _bits(a))  # exact, not approximate

    def test_vector_round_trip(self):
        v = np.concatenate([[1.5 + 2.25j, -3.125], _EDGE])
        assert np.array_equal(_bits(_decoded(v)), _bits(v))

    def test_decode_rejects_garbage(self):
        with pytest.raises(SchemaError):
            fileio.decode_matrix([["x"]], "bad")
        with pytest.raises(SchemaError):
            fileio.decode_matrix([[1.0, 2.0, 3.0]], "bad")

    @pytest.mark.parametrize(
        "obj, message",
        [
            ([[1.0, "0"]], "it holds string values"),
            ([[1.0, True]], "it holds boolean values"),
            ([[1.0, None]], "it holds null values"),
            ([[1.0, {}]], "it holds object values"),
            ([[1.0, 0.0], 2.0], "it holds array values"),
            ([[1.0, 0.0], [2.0]], "rows of lengths [1, 2]"),
            ([[10**400, 0]], "int too large to convert to float"),
        ],
        ids=["string", "boolean", "null", "object", "array-next-to-number", "ragged", "huge-int"],
    )
    def test_decode_refuses_what_is_no_json_number(self, obj, message):
        with pytest.raises(SchemaError) as exc:
            fileio.decode_matrix(obj, "bad")
        assert str(exc.value) == f"bad: not a numeric array: {message}"

    def test_decode_reads_integers_as_numbers(self):
        # orjson gives 1 for "1": an int is a JSON number
        got = fileio.decode_matrix([[1, 0], [2, -3]], "v")
        assert got.dtype == np.complex128 and np.array_equal(got, [1, 2 - 3j])


class TestProblemFile:
    def _sample(self):
        rng = np.random.default_rng(2)
        m = crandn(rng, 3, 3)
        # a structure whose path reads every field and parameter it gives
        return fileio.ProblemFile(
            structure="hermitian",
            m=m,
            k=crandn(rng, 3, 3),
            change=fileio.PairBlock(x=crandn(rng, 3, 1), lam=crandn(rng, 1, 1)),
            targets=fileio.PairBlock(lam=crandn(rng, 1, 1)),
            fixed=fileio.PairBlock(x=crandn(rng, 3, 2), lam=crandn(rng, 2, 2)),
            parameters={"t": 0.25},
        )

    def test_round_trip(self, tmp_path):
        pf = self._sample()
        path = tmp_path / "prob.json"
        fileio.save_problem(path, pf)
        back = fileio.load_problem(path)
        assert back.structure == pf.structure
        assert np.array_equal(back.m, pf.m)
        assert np.array_equal(back.k, pf.k)
        assert np.array_equal(back.change.x, pf.change.x)
        assert np.array_equal(back.targets.lam, pf.targets.lam)
        assert np.array_equal(back.fixed.lam, pf.fixed.lam)
        assert back.parameters == pf.parameters

    def test_emit_is_deterministic(self, tmp_path):
        pf = self._sample()
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        fileio.save_problem(first, pf)
        fileio.save_problem(second, pf)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_format_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 99, "m": [], "k": []}')
        with pytest.raises(SchemaError):
            fileio.load_problem(path)

    def test_unknown_structure(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"format": 1, "structure": "weird", "m": [[[1,0]]], "k": [[[1,0]]]}'
        )
        with pytest.raises(SchemaError):
            fileio.load_problem(path)

    def test_missing_matrices(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 1}')
        with pytest.raises(SchemaError):
            fileio.load_problem(path)

    def test_nonsquare_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "format": 1,
            "structure": "unstructured",
            "m": fileio.encode_matrix(np.zeros((2, 3))),
            "k": fileio.encode_matrix(np.zeros((2, 3))),
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            fileio.load_problem(path)

    def test_unknown_parameter_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "format": 1,
            "structure": "hermitian",
            "m": fileio.encode_matrix(np.eye(2)),
            "k": fileio.encode_matrix(np.eye(2)),
            "parameters": {"bogus": 1},
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            fileio.load_problem(path)


class TestDeltaAndPairs:
    def test_result_round_trip(self, tmp_path):
        # an a x b core with a != b, as solve_general and dual_basis_update give
        rng = np.random.default_rng(3)
        factors = (crandn(rng, 3, 1), crandn(rng, 1, 2), crandn(rng, 1, 2), crandn(rng, 2, 3))
        res = UpdateResult(factors=factors, provenance={"method": "test", "g": crandn(rng, 2, 2)})
        path = tmp_path / "delta.json"
        fileio.save_result(path, res)
        assert json.loads(path.read_text())["format"] == 2
        back = fileio.load_delta(path)
        assert all(np.array_equal(a, b) for a, b in zip(back.factors, factors, strict=True))
        assert np.array_equal(back.delta_m, res.delta_m)
        assert np.array_equal(back.delta_k, res.delta_k)

    @pytest.mark.parametrize(
        "load", ["load_problem", "load_pencil", "load_pairs", "load_delta"]
    )
    def test_non_object_rejected(self, tmp_path, load):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaError, match="must hold a JSON object"):
            getattr(fileio, load)(path)

    def test_pair_block_lambda_must_fit_x(self, tmp_path):
        pf = TestProblemFile()._sample()
        pf.fixed = fileio.PairBlock(x=pf.fixed.x, lam=pf.fixed.lam[:1, :1])
        path = tmp_path / "prob.json"
        fileio.save_problem(path, pf)
        with pytest.raises(SchemaError, match="fixed.lambda is 1 x 1, but fixed.x has 2"):
            fileio.load_problem(path)

    def test_pairs_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        x, lam = crandn(rng, 4, 2), crandn(rng, 2, 2)
        path = tmp_path / "pairs.json"
        fileio.save_pairs(path, x, lam)
        pairs = fileio.load_pairs(path)
        assert np.array_equal(pairs["fixed"].x, x)
        assert np.array_equal(pairs["fixed"].lam, lam)


class TestFactoredDelta:
    """Updates with factors are written as delta format 2 and read back as factors."""

    def _round_trip(self, tmp_path, res):
        path = tmp_path / "delta.json"
        fileio.save_result(path, res)
        doc = json.loads(path.read_text())
        assert doc["format"] == 2 and "delta_m" not in doc
        assert not {"u", "mhat", "khat"} & set(doc["provenance"])
        back = fileio.load_delta(path)
        assert all(np.array_equal(a, b) for a, b in zip(back.factors, res.factors, strict=True))
        return back

    @pytest.mark.parametrize(
        "klass", ["symmetric", "hermitian", "t-odd", "star-odd", "t-even", "star-even"]
    )
    def test_symmetry_class_exact(self, tmp_path, klass):
        planted = plant_problem(3, 12, 4, klass)
        x, lam_c = planted.change.x, planted.change.lam
        g, _ = change_gramian(planted.pencil, x)
        core = scaled_gramian_core(g, lam_c, planted.target_lam, 0.3)
        res = structured_update(planted.pencil, x, lam_c, planted.target_lam, core)
        back = self._round_trip(tmp_path, res)
        assert np.array_equal(back.delta_m, res.delta_m)
        assert np.array_equal(back.delta_k, res.delta_k)

    @pytest.mark.parametrize("klass", ["star-shh", "t-shh"])
    def test_shh_class_exact(self, tmp_path, klass):
        if klass == "star-shh":
            pp = plant_star_shh(4, 6, 1, 1)
            g, _ = shh_gramian(pp.pencil, pp.change.x)
            core = scaled_gramian_core(g, pp.change.lam, pp.target_lam, 0.3)
            res = shh_update(pp.pencil, pp.change.x, pp.change.lam, pp.target_lam, core)
        else:
            pp = plant_t_shh(5, 6)
            shape = t_shh_shape(pp)
            mhat = t_shh_mhat(shape, [0.5] * shape[0], [0.2] * shape[0],
                              [-0.3] * shape[1], [0.7] * shape[2])
            res = t_shh_solve(pp, mhat=mhat)
        back = self._round_trip(tmp_path, res)
        for loaded, mem in ((back.delta_m, res.delta_m), (back.delta_k, res.delta_k)):
            assert fnorm(mem) > 0
            assert np.array_equal(loaded, mem)

    @pytest.mark.parametrize(
        "factors",
        [
            {"left": np.ones((4, 2)), "mhat": np.ones((2, 2)), "khat": np.ones((2, 2))},
            {"left": np.ones((4, 2)), "mhat": np.ones((2, 2)), "khat": np.ones((3, 3)),
             "right": np.ones((2, 4))},
            {"left": np.ones((4, 2)), "mhat": np.ones((2, 2)), "khat": np.ones((2, 2)),
             "right": np.ones((2, 5))},
            {"left": np.ones(4), "mhat": np.ones((1, 1)), "khat": np.ones((1, 1)),
             "right": np.ones((1, 4))},
            {"left": np.ones((4, 2)), "mhat": np.ones((2, 4)), "khat": np.ones((4, 2)),
             "right": np.ones((4, 4))},
            {"left": np.ones((4, 3)), "mhat": np.ones((2, 4)), "khat": np.ones((2, 4)),
             "right": np.ones((4, 4))},
            {"left": np.ones((4, 1)), "mhat": np.ones(1), "khat": np.ones(1),
             "right": np.ones((1, 4))},
        ],
        ids=["missing", "core-shape", "right-shape", "left-vector", "cores-differ",
             "left-columns", "core-vector"],
    )
    def test_malformed_factors_rejected(self, tmp_path, factors):
        path = tmp_path / "delta.json"
        fileio._write(path, {"format": 2, "factors": factors})
        with pytest.raises(SchemaError):
            fileio.load_delta(path)


def _encoded(obj):
    """``obj`` with every ndarray replaced by its ``encode_matrix`` tree."""
    if isinstance(obj, np.ndarray):
        return fileio.encode_matrix(obj)
    if isinstance(obj, dict):
        return {key: _encoded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encoded(value) for value in obj]
    return obj


def _reference(doc) -> str:
    """The bytes format-1 files held before the orjson writer."""
    return json.dumps(_encoded(doc), indent=1, sort_keys=True)


def _written(tmp_path, doc) -> str:
    path = tmp_path / "doc.json"
    fileio._write(path, doc)
    return path.read_text(encoding="utf-8")


def _refuse(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def _holds(path, doc) -> bool:
    """Whether the file at ``path`` is strict JSON holding the values of
    ``_reference(doc)``."""
    text = path.read_text(encoding="utf-8")
    return same_values(json.loads(text, parse_constant=_refuse), json.loads(_reference(doc)))


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128).view(np.uint64)


_RNG = np.random.default_rng(8)
_SPECIAL = np.array([-0.0, 5e-324, 1e308, 1.0])

GOLDEN_ARRAYS = {
    "vector": crandn(_RNG, 5),
    "matrix": crandn(_RNG, 4, 3),
    "one-by-one": crandn(_RNG, 1, 1),
    "real-dtype": _RNG.standard_normal((3, 3)),
    "int-dtype": np.arange(6).reshape(2, 3),
    "transposed": crandn(_RNG, 3, 4).T,
    "strided": crandn(_RNG, 6, 6)[::2, 1::2],
    "special-values": _SPECIAL + 1j * _SPECIAL[::-1],
    "special-matrix": np.outer(_SPECIAL, [1.0, -1j]),
    "nan-inf": np.array([np.nan, np.inf + 1j, 1 - 1j * np.inf, 2.5]),
    "nan-matrix": np.array([[1.0, np.nan], [np.inf, 0.0]]),
    "empty-vector": np.zeros(0),
    "empty-rows": np.zeros((0, 3)),
    "empty-columns": np.zeros((3, 0)),
}


class TestGoldenBytes:
    """Every file holds the values ``json.dumps(indent=1, sort_keys=True)``
    wrote before the orjson writer: stdlib json reads both to the same tree,
    floats compared as bit patterns. A finite document is strict RFC 8259
    JSON; a NaN or an infinity is spelled NaN/Infinity, never null."""

    @pytest.mark.parametrize("name", list(GOLDEN_ARRAYS))
    def test_array_at_every_depth(self, tmp_path, name):
        a = GOLDEN_ARRAYS[name]
        doc = {"a": a, "nested": {"list": [a, {"deeper": a}], "s": "x"}}
        for obj in (a, doc):
            text = _written(tmp_path, obj)
            assert same_values(json.loads(text), json.loads(_reference(obj)))
            assert "null" not in text
            if np.isfinite(a).all():
                json.loads(text, parse_constant=_refuse)

    @pytest.mark.parametrize(
        "name", [name for name, a in GOLDEN_ARRAYS.items() if np.isfinite(a).all()])
    def test_rows_join_to_one_dumps(self, tmp_path, name):
        """A finite document is written a matrix row at a time; the pieces
        are the bytes of one ``orjson.dumps`` of the whole document."""
        import orjson

        a = GOLDEN_ARRAYS[name]
        doc = {"b": a, "a": {"list": [a, {"deeper": a}, {}], "s": '%r ["]\n\\ é', "e": []}}
        whole = orjson.dumps(fileio._views(doc),
                             option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_SORT_KEYS)
        path = tmp_path / "doc.json"
        fileio._write(path, doc)
        assert path.read_bytes() == whole + b"\n"

    def test_problem_with_parameter_matrices(self, tmp_path):
        rng = np.random.default_rng(9)
        z1, z2, mhat = crandn(rng, 3, 3), crandn(rng, 3), crandn(rng, 3, 3).T
        pf = fileio.ProblemFile(
            structure="star-odd",
            m=crandn(rng, 4, 4),
            k=crandn(rng, 4, 4)[:, ::-1],
            change=fileio.PairBlock(x=crandn(rng, 4, 3), eigenvalues=crandn(rng, 3)),
            targets=fileio.PairBlock(lam=crandn(rng, 3, 3)),
            parameters={
                "z1": z1, "z2": z2, "mhat": mhat, "slack": 0.5, "strategy": '%r ["]\n\\ é',
            },
            quadratic=True,
        )
        expected = {
            "format": 1, "structure": "star-odd", "quadratic": True,
            "m": pf.m, "k": pf.k,
            "change": {"x": pf.change.x, "eigenvalues": pf.change.eigenvalues},
            "targets": {"lambda": pf.targets.lam},
            "fixed": None,
            "parameters": {
                "z1": z1, "z2": z2, "mhat": mhat, "slack": 0.5, "strategy": '%r ["]\n\\ é',
            },
        }
        path = tmp_path / "prob.json"
        fileio.save_problem(path, pf)
        assert _holds(path, expected)

    def test_result_with_provenance_arrays(self, tmp_path):
        rng = np.random.default_rng(10)
        g = crandn(rng, 2, 2)
        prov = {"method": 'a "%s" }', "g": g, "lam": g[0], "z": 1 - 2j, "ok": True, "n": 3}
        factors = (crandn(rng, 3, 2), crandn(rng, 2, 4), crandn(rng, 4, 2).T, crandn(rng, 4, 3))
        res = UpdateResult(factors=factors, provenance=prov)
        path = tmp_path / "delta.json"
        fileio.save_result(path, res)
        expected = {
            "format": 2, "factors": dict(zip(fileio._FACTOR_NAMES, factors)),
            "provenance": dict(prov, z=[1.0, -2.0]), "certificate": None,
        }
        assert _holds(path, expected)

    def test_pairs_file(self, tmp_path):
        rng = np.random.default_rng(11)
        x, lam = crandn(rng, 2, 5).T, np.diag(crandn(rng, 2))
        path = tmp_path / "pairs.json"
        fileio.save_pairs(path, x, lam)
        expected = {"format": 1, "fixed": {"x": x, "lambda": lam}}
        assert _holds(path, expected)


class TestNonFinite:
    """orjson has no token for a NaN or an infinity: a number or an array
    row holding one is written by stdlib json as NaN/Infinity, and read
    back as before."""

    def test_infinite_spectrum_distance_in_delta(self, tmp_path):
        rng = np.random.default_rng(12)
        res = UpdateResult(factors=(crandn(rng, 3, 1), crandn(rng, 1, 1),
                                    crandn(rng, 1, 1), crandn(rng, 1, 3)))
        # what certify records when the updated pencil is singular
        cert = Certificate(target_residual=0.5, target_relative=0.25,
                           spectrum=SpectrumMatch(np.inf, 2, 0))
        path = tmp_path / "delta.json"
        fileio.save_result(path, res, cert)
        text = path.read_text(encoding="utf-8")
        assert '"max_distance":Infinity' in text
        expected = {"format": 2, "factors": dict(zip(fileio._FACTOR_NAMES, res.factors)),
                    "provenance": {}, "certificate": fileio.certificate_dict(cert)}
        assert same_values(json.loads(text), json.loads(_reference(expected)))
        back = fileio.load_delta(path)
        assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(back.factors, res.factors))

    def test_nan_in_problem_matrix(self, tmp_path):
        pf = TestProblemFile()._sample()
        pf.m[1, 2] = complex(np.nan, 2.0)
        pf.k[0, 0] = complex(-np.inf, 1.5)
        path = tmp_path / "prob.json"
        fileio.save_problem(path, pf)
        text = path.read_text(encoding="utf-8")
        assert "NaN" in text and "-Infinity" in text
        raw = json.loads(text)
        assert same_values(raw, json.loads(_reference(fileio._problem_doc(pf))))
        assert math.isnan(raw["m"][1][2][0]) and raw["fixed"] is not None
        back = fileio.load_problem(path)
        for got, want in ((back.m, pf.m), (back.k, pf.k), (back.fixed.x, pf.fixed.x)):
            assert np.array_equal(_bits(got), _bits(want))


# each checked-in file, its loader, and the arrays the loader returns by JSON key
FIXTURES = {
    "herm-6.1.quadratic.json": (fileio.load_problem, lambda pf: {
        ("m",): pf.m, ("k",): pf.k,
        ("change", "eigenvalues"): pf.change.eigenvalues,
        ("targets", "eigenvalues"): pf.targets.eigenvalues,
        ("parameters", "z1"): pf.parameters["z1"], ("parameters", "z2"): pf.parameters["z2"],
    }),
    "star-even-n8.json": (fileio.load_problem, lambda pf: {
        ("m",): pf.m, ("k",): pf.k, ("change", "x"): pf.change.x,
        ("change", "lambda"): pf.change.lam, ("targets", "lambda"): pf.targets.lam,
    }),
    "star-even-n8.json.fixed.json": (fileio.load_pairs, lambda pairs: {
        ("fixed", "x"): pairs["fixed"].x, ("fixed", "lambda"): pairs["fixed"].lam,
    }),
    "star-even-n8.format1.delta.json": (fileio.load_delta, lambda res: {
        ("delta_m",): res.delta_m, ("delta_k",): res.delta_k,
    }),
}


class TestOldLayout:
    """The checked-in files keep the indent-1 layout of the earlier writer,
    exponents spelled ``e-05``; each loads to what json.loads and
    decode_matrix give, bit for bit."""

    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_fixture_reads_as_json_loads(self, name):
        path = DATA / name
        text = path.read_text(encoding="utf-8")
        assert text.startswith('{\n "')
        raw = json.loads(text)
        assert same_values(fileio._read(path, "fixture", (1, 2)), raw)
        load, arrays = FIXTURES[name]
        for keys, got in arrays(load(path)).items():
            node = raw
            for key in keys:
                node = node[key]
            want = fileio.decode_matrix(node, ".".join(keys))
            assert got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want))
