"""Round-trip and schema tests for the text file formats."""

import json

import numpy as np
import pytest

from nospillover import fileio
from nospillover.errors import SchemaError
from nospillover.linalg import fnorm
from nospillover.randomgen import plant_problem, plant_star_shh, plant_t_shh
from nospillover.shh import shh_gramian, shh_update, t_shh_mhat, t_shh_update
from nospillover.structured import change_gramian, scaled_gramian_core, structured_update


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestMatrixCodec:
    def test_matrix_round_trip_bitwise(self):
        rng = np.random.default_rng(1)
        a = crandn(rng, 4, 3)
        encoded = json.loads(json.dumps(fileio.encode_matrix(a)))
        back = fileio.decode_matrix(encoded, "a")
        assert np.array_equal(back, a)  # exact, not approximate

    def test_vector_round_trip(self):
        v = np.array([1.5 + 2.25j, -3.125])
        back = fileio.decode_matrix(
            json.loads(json.dumps(fileio.encode_matrix(v))), "v"
        )
        assert np.array_equal(back, v)

    def test_decode_rejects_garbage(self):
        with pytest.raises(SchemaError):
            fileio.decode_matrix([["x"]], "bad")
        with pytest.raises(SchemaError):
            fileio.decode_matrix([[1.0, 2.0, 3.0]], "bad")


class TestProblemFile:
    def _sample(self):
        rng = np.random.default_rng(2)
        m = crandn(rng, 3, 3)
        return fileio.ProblemFile(
            structure="unstructured",
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
        assert fileio.dump_problem(pf) == fileio.dump_problem(pf)

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
        from nospillover.unstructured import UpdateResult

        rng = np.random.default_rng(3)
        dm, dk = crandn(rng, 3, 3), crandn(rng, 3, 3)
        res = UpdateResult(dense=(dm, dk), provenance={"method": "test", "g": crandn(rng, 2, 2)})
        path = tmp_path / "delta.json"
        fileio.save_result(path, res)
        back = fileio.load_delta(path)
        assert back.factors is None
        assert np.array_equal(back.delta_m, dm)
        assert np.array_equal(back.delta_k, dk)

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
            g, _ = shh_gramian(pp.shh, pp.change_x)
            core = scaled_gramian_core(g, pp.change_lam, pp.target_lam, 0.3)
            res = shh_update(pp.shh, pp.change_x, pp.change_lam, pp.target_lam, core)
        else:
            pp = plant_t_shh(5, 6)
            gr = pp.grouping
            shape = (len(gr.quadruples), len(gr.imag_pairs), len(gr.real_pairs))
            mhat = t_shh_mhat(shape, [0.5] * shape[0], [0.2] * shape[0],
                              [-0.3] * shape[1], [0.7] * shape[2])
            res = t_shh_update(pp.shh, gr, *pp.target_groups, mhat=mhat)
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
        ],
        ids=["missing", "core-shape", "right-shape", "left-vector"],
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
    """The bytes format-1 files held before the array writer."""
    return json.dumps(_encoded(doc), indent=1, sort_keys=True)


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
    """The array writer emits exactly json.dumps(indent=1, sort_keys=True)."""

    @pytest.mark.parametrize("name", list(GOLDEN_ARRAYS))
    def test_array_at_every_depth(self, name):
        a = GOLDEN_ARRAYS[name]
        doc = {"a": a, "nested": {"list": [a, {"deeper": a}], "s": "x"}}
        assert fileio._dumps(a) == _reference(a)
        assert fileio._dumps(doc) == _reference(doc)

    def test_problem_with_parameter_matrices(self):
        rng = np.random.default_rng(9)
        z1, z2, mhat = crandn(rng, 3, 3), crandn(rng, 3), crandn(rng, 3, 3).T
        pf = fileio.ProblemFile(
            structure="star-odd",
            m=crandn(rng, 4, 4),
            k=crandn(rng, 4, 4)[:, ::-1],
            change=fileio.PairBlock(x=crandn(rng, 4, 3), eigenvalues=crandn(rng, 3)),
            targets=fileio.PairBlock(lam=crandn(rng, 3, 3)),
            parameters={
                "z1": z1, "z2": z2, "mhat": mhat, "slack": 0.5,
                "quad_alpha": [1, 2.5], "strategy": '%r ["]\n\\ é',
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
                "z1": z1, "z2": z2, "mhat": mhat, "slack": 0.5,
                "quad_alpha": [1.0, 2.5], "strategy": '%r ["]\n\\ é',
            },
        }
        assert fileio.dump_problem(pf) == _reference(expected)

    def test_result_with_provenance_arrays(self, tmp_path):
        from nospillover.unstructured import UpdateResult

        rng = np.random.default_rng(10)
        g = crandn(rng, 2, 2)
        prov = {"method": 'a "%s" }', "g": g, "lam": g[0], "z": 1 - 2j, "ok": True, "n": 3}
        res = UpdateResult(dense=(crandn(rng, 3, 3), crandn(rng, 3, 3).T), provenance=prov)
        path = tmp_path / "delta.json"
        fileio.save_result(path, res)
        expected = {
            "format": 1, "delta_m": res.delta_m, "delta_k": res.delta_k,
            "provenance": dict(prov, z=[1.0, -2.0]), "certificate": None,
        }
        assert path.read_text(encoding="utf-8") == _reference(expected) + "\n"

    def test_pairs_file(self, tmp_path):
        rng = np.random.default_rng(11)
        x, lam = crandn(rng, 2, 5).T, np.diag(crandn(rng, 2))
        path = tmp_path / "pairs.json"
        fileio.save_pairs(path, x, lam)
        expected = {"format": 1, "fixed": {"x": x, "lambda": lam}}
        assert path.read_text(encoding="utf-8") == _reference(expected) + "\n"
