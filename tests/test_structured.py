"""Tests for the structure-preserving update machinery."""

import dataclasses

import numpy as np
import pytest
from conftest import finite_eigenvalues, plant_hermitian_definite, plant_t_odd_real, t_shh_solve

from nospillover.errors import BadParameters, DimensionMismatch, SingularG
from nospillover.linalg import (
    TAU_NUM,
    eig_pencil,
    fnorm,
    match_multisets,
)
from nospillover.pencil import (
    ALL_TAGS,
    HERMITIAN,
    STAR_EVEN,
    T_EVEN,
    StructuredPencil,
    classify_structure,
    normalize_columns,
    star,
)
from nospillover import structured
from nospillover.cases import CASES
from nospillover.randomgen import plant_problem, plant_star_shh, plant_t_shh
from nospillover.shh import shh_gramian, shh_update
from nospillover.special import (
    QuadraticSpec,
    hermitian_update,
    solve_quadratic,
    t_odd_real_update,
)
from nospillover.structured import (
    CoreSolution,
    build_update_basis,
    change_gramian,
    complete_core,
    core_from_parameters,
    core_structure_flags,
    parametrized_core,
    scaled_gramian_core,
    structured_update,
)
from nospillover.unstructured import UpdateProblem, dual_basis_update


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def hermitian_definite_plant(seed, n=6, p=2):
    """Hermitian pencil with M > 0 and M-normalized change vectors."""
    rng = np.random.default_rng(seed)
    b = crandn(rng, n, n)
    m = b @ b.conj().T + n * np.eye(n)
    h = crandn(rng, n, n)
    k = h + h.conj().T
    pencil = StructuredPencil(m, k, HERMITIAN)
    eigs = eig_pencil(m, k)
    xc = np.hstack([e.vector.reshape(-1, 1) for e in eigs[:p]])
    xc = normalize_columns(pencil, xc, "M")
    lam_c = np.diag([e.value for e in eigs[:p]])
    xf = np.hstack([e.vector.reshape(-1, 1) for e in eigs[p:]])
    lam_f = np.diag([e.value for e in eigs[p:]])
    return pencil, xc, lam_c, xf, lam_f


class TestChangeGramian:
    def test_normalized_hermitian_is_identity(self):
        pencil, xc, _, _, _ = hermitian_definite_plant(1)
        g, rcond = change_gramian(pencil, xc)
        np.testing.assert_allclose(g.real, np.eye(2), atol=1e-10)
        assert rcond > 1e-3

    def test_star_even_k_normalized(self):
        # K-normalized star-even change vectors give G = -Lc^{-1}
        rng = np.random.default_rng(2)
        n = 5
        a = crandn(rng, n, n)
        m = (a - a.conj().T) / 2
        b = crandn(rng, n, n)
        k = b @ b.conj().T + n * np.eye(n)
        pencil = StructuredPencil(m, k, STAR_EVEN)
        eigs = eig_pencil(m, k)
        xc = np.hstack([e.vector.reshape(-1, 1) for e in eigs[:2]])
        xc = normalize_columns(pencil, xc, "K")
        lam_c = np.diag([e.value for e in eigs[:2]])
        g, _ = change_gramian(pencil, xc)
        np.testing.assert_allclose(g, -np.linalg.inv(lam_c), atol=1e-10)

    def test_isotropic_vector_reports_rcond_zero(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        m = a - a.T
        b = rng.standard_normal((4, 4))
        pencil = StructuredPencil(m, b + b.T, T_EVEN)
        x = rng.standard_normal((4, 1))  # x^T M x = 0 exactly for skew M
        g, rcond = change_gramian(pencil, x)
        assert abs(g[0, 0]) <= 1e-12 * fnorm(m)
        assert rcond <= 1e-12


def update_basis(pencil, xc):
    g, rcond = change_gramian(pencil, xc)
    return build_update_basis(pencil, xc, g, rcond)


class TestBuildUpdateBasis:
    def test_routes_agree(self):
        # with Lc nonsingular, M X_c G^{-1} = K X_c (X_c^star K X_c)^{-1}
        planted = plant_problem(5, 8, 2, "hermitian")
        pencil, xc = planted.pencil, planted.change.x
        u_m = update_basis(pencil, xc)
        kx = pencil.k @ xc
        u_k = kx @ np.linalg.inv(star(xc, pencil.star) @ kx)
        assert fnorm(u_m - u_k) <= 1e-10 * max(fnorm(u_m), 1.0)

    def test_normalized_hermitian_u_is_mx(self):
        pencil, xc, _, _, _ = hermitian_definite_plant(6)
        u = update_basis(pencil, xc)
        np.testing.assert_allclose(u, pencil.m @ xc, atol=1e-9 * fnorm(pencil.m))

    def test_biorthogonality(self):
        for tag in ALL_TAGS:
            planted = plant_problem(7, 6, 2, tag.name)
            u = update_basis(planted.pencil, planted.change.x)
            prod = star(planted.change.x, tag.star) @ u
            assert fnorm(prod - np.eye(2)) <= 1e-9

    def test_singular_g_raises(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 4))
        pencil = StructuredPencil(a - a.T, np.eye(4), T_EVEN)
        with pytest.raises(SingularG):
            update_basis(pencil, rng.standard_normal((4, 1)))


class TestCores:
    def test_complete_core_trivial(self):
        g = np.eye(2)
        lam = np.diag([1.0, 2.0])
        core = complete_core(g, lam, lam, np.zeros((2, 2)))
        assert fnorm(core.khat) == 0.0

    def test_scaled_gramian_core(self):
        rng = np.random.default_rng(9)
        g = crandn(rng, 3, 3)
        lc, la = np.diag(crandn(rng, 3, 1)[:, 0]), np.diag(crandn(rng, 3, 1)[:, 0])
        t = 0.7
        core = scaled_gramian_core(g, lc, la, t)
        np.testing.assert_allclose(core.mhat, t * g)
        np.testing.assert_allclose(core.khat, g @ (lc - (1 + t) * la))
        assert core.equation_residual(g, lc, la) <= 1e-13 * fnorm(g) * (
            1 + fnorm(lc) + fnorm(la)
        )

    def test_parametrized_core_zero_target(self):
        rng = np.random.default_rng(10)
        g = crandn(rng, 2, 2)
        lc = crandn(rng, 2, 2)
        core = parametrized_core(g, lc, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
        assert fnorm(core.mhat) <= 1e-14
        np.testing.assert_allclose(core.khat, g @ lc, atol=1e-13 * fnorm(g @ lc))

    def test_parametrized_core_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = int(rng.integers(1, 5))
            g, lc, la = crandn(rng, p, p), crandn(rng, p, p), crandn(rng, p, p)
            z1, z2 = crandn(rng, p, p), crandn(rng, p, p)
            core = parametrized_core(g, lc, la, z1, z2)
            scale = fnorm(g) * (fnorm(lc) + fnorm(la)) + fnorm(core.mhat) * fnorm(la)
            assert core.equation_residual(g, lc, la) <= 1e-12 * max(scale, 1.0)


class TestCoreFromParameters:
    """One source sets the whole core: t, Z1/Z2 or Mh, and no source Mh = 0."""

    def _data(self):
        rng = np.random.default_rng(12)
        return crandn(rng, 3, 3), crandn(rng, 3, 3), crandn(rng, 3, 3), crandn(rng, 3, 3)

    def test_each_source_gives_its_builder(self):
        g, lc, la, z = self._data()
        zero = np.zeros((3, 3))
        # a 1-d Mhat, Z1 or Z2 reads as its diagonal matrix
        d = np.diagonal(z).copy()
        for got, want in (
            (core_from_parameters(g, lc, la, t=0.3), scaled_gramian_core(g, lc, la, 0.3)),
            (core_from_parameters(g, lc, la, z2=z), parametrized_core(g, lc, la, zero, z)),
            (core_from_parameters(g, lc, la, z1=d), parametrized_core(g, lc, la, np.diag(d), zero)),
            (core_from_parameters(g, lc, la, mhat=z), complete_core(g, lc, la, z)),
            (core_from_parameters(g, lc, la, mhat=d), complete_core(g, lc, la, np.diag(d))),
            (core_from_parameters(g, lc, la), complete_core(g, lc, la, zero)),
        ):
            assert got.mhat.tobytes() == want.mhat.tobytes()
            assert got.khat.tobytes() == want.khat.tobytes()

    @pytest.mark.parametrize("keys", [("mhat", "z1"), ("z2", "t"), ("mhat", "t")])
    def test_two_sources_rejected(self, keys):
        g, lc, la, z = self._data()
        sources = {key: 0.5 if key == "t" else z for key in keys}
        with pytest.raises(BadParameters, match="the core comes from one of"):
            core_from_parameters(g, lc, la, **sources)

    @pytest.mark.parametrize("builder", ["complete", "parametrized", "scaled_gramian"])
    def test_every_builder_checks_p_by_p(self, builder):
        # a 3 x 3 target Lambda for a 2 x 2 G and Lc
        g, lc, la = np.eye(2), np.eye(2), np.eye(3)
        args = {"complete": (np.eye(2),), "parametrized": (np.eye(2), np.eye(2)),
                "scaled_gramian": (0.5,)}[builder]
        with pytest.raises(DimensionMismatch, match="must all be p x p"):
            getattr(structured, f"{builder}_core")(g, lc, la, *args)


class TestStructuredUpdate:
    def test_mhat_zero_branch(self):
        planted = plant_problem(12, 7, 2, "hermitian")
        g, _ = change_gramian(planted.pencil, planted.change.x)
        core = complete_core(g, planted.change.lam, planted.target_lam, np.zeros_like(g))
        res = structured_update(
            planted.pencil,
            planted.change.x,
            planted.change.lam,
            planted.target_lam,
            core,
        )
        assert fnorm(res.delta_m) <= 1e-13
        u = res.factors[0]
        want = u @ g @ (planted.change.lam - planted.target_lam) @ star(
            u, planted.pencil.tag.star
        )
        np.testing.assert_allclose(res.delta_k, want, atol=1e-11 * fnorm(want))

    def test_scaled_core_closed_form(self):
        # dM = t M Xc (Xc* M Xc)^{-1} Xc* M for the one-parameter subclass
        planted = plant_problem(13, 6, 2, "hermitian")
        pencil, xc = planted.pencil, planted.change.x
        t = -0.4
        g, _ = change_gramian(pencil, xc)
        core = scaled_gramian_core(g, planted.change.lam, planted.target_lam, t)
        res = structured_update(
            pencil, xc, planted.change.lam, planted.target_lam, core
        )
        xcs = star(xc, pencil.tag.star)
        direct = t * pencil.m @ xc @ np.linalg.solve(g, xcs @ pencil.m)
        np.testing.assert_allclose(
            res.delta_m, direct, atol=1e-10 * max(fnorm(direct), 1.0)
        )

    @pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.name)
    def test_plant_and_check(self, tag):
        n = 8
        p = 2
        for seed in range(5):
            planted = plant_problem(seed + 100, n, p, tag.name)
            g, _ = change_gramian(planted.pencil, planted.change.x)
            core = scaled_gramian_core(
                g, planted.change.lam, planted.target_lam, t=0.25
            )
            res = structured_update(
                planted.pencil,
                planted.change.x,
                planted.change.lam,
                planted.target_lam,
                core,
            )
            m1 = planted.pencil.m + res.delta_m
            k1 = planted.pencil.k + res.delta_k
            scale = fnorm(m1) + fnorm(k1)
            assert (
                fnorm(m1 @ planted.change.x @ planted.target_lam + k1 @ planted.change.x)
                <= 1e-10 * scale
            )
            xf, lf = planted.fixed.x, planted.fixed.lam
            assert fnorm(m1 @ xf @ lf + k1 @ xf) <= 1e-10 * scale
            assert tag in classify_structure(m1, k1)
            expected = np.concatenate(
                [np.diag(planted.target_lam), np.diag(lf)]
            )
            dist, unmatched = match_multisets(
                expected, finite_eigenvalues(eig_pencil(m1, k1))
            )
            assert unmatched == 0 and dist <= 1e-7

    def test_structure_flags_report_disagreement_free(self):
        planted = plant_problem(14, 6, 2, "star-even")
        g, _ = change_gramian(planted.pencil, planted.change.x)
        core = scaled_gramian_core(g, planted.change.lam, planted.target_lam, 0.1)
        flags = core_structure_flags(core, g, planted.target_lam, planted.pencil.tag)
        assert flags["criteria_agree"]
        assert flags["core_structured"]

    def test_structure_flags_detect_symmetry_break(self):
        # a target off the class's symmetry pattern breaks G*La symmetry,
        # and both criteria must agree on the verdict
        planted = plant_problem(14, 6, 2, "star-even")
        g, _ = change_gramian(planted.pencil, planted.change.x)
        bad_target = planted.target_lam + np.diag([0.5 + 0.3j, 0.0])
        core = scaled_gramian_core(g, planted.change.lam, bad_target, 0.1)
        flags = core_structure_flags(core, g, bad_target, planted.pencil.tag)
        assert not flags["core_structured"]
        assert flags["criteria_agree"]

    def test_agrees_with_dual_basis_route(self):
        # with X_f known, U Mh is a valid Mtilde for the dual-basis update
        planted = plant_problem(15, 6, 2, "hermitian")
        pencil = planted.pencil
        g, _ = change_gramian(pencil, planted.change.x)
        core = scaled_gramian_core(g, planted.change.lam, planted.target_lam, 0.35)
        res = structured_update(
            pencil, planted.change.x, planted.change.lam, planted.target_lam, core
        )
        problem = UpdateProblem(
            planted.change, planted.target_lam, fixed=planted.fixed
        )
        u = res.factors[0]
        res2 = dual_basis_update(pencil, problem, u @ core.mhat)
        assert fnorm(res.delta_m - res2.delta_m) <= 1e-9 * max(
            fnorm(res.delta_m), 1.0
        )
        assert fnorm(res.delta_k - res2.delta_k) <= 1e-9 * max(
            fnorm(res.delta_k), 1.0
        )

    def test_singular_g_raises(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((4, 4))
        m = a - a.T
        b = rng.standard_normal((4, 4))
        pencil = StructuredPencil(m, b + b.T, T_EVEN)
        x = rng.standard_normal((4, 1))
        core = CoreSolution(np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(SingularG):
            structured_update(pencil, x, np.eye(1), 2 * np.eye(1), core)

    def test_conditioning_computed_once(self, monkeypatch):
        planted = plant_problem(19, 8, 2, "hermitian")
        args = (planted.pencil, planted.change.x, planted.change.lam, planted.target_lam)
        g, _ = change_gramian(planted.pencil, planted.change.x)
        core = complete_core(g, planted.change.lam, planted.target_lam, 0.5 * g)
        real, calls = structured.rcond_estimate, []
        monkeypatch.setattr(structured, "rcond_estimate", lambda *a: calls.append(a) or real(*a))
        structured_update(*args, core)
        assert len(calls) == 1
        # a G exactly at the cutoff is singular
        calls.clear()
        monkeypatch.setattr(structured, "rcond_estimate", lambda *a: calls.append(a) or TAU_NUM)
        with pytest.raises(SingularG, match=r"X_c\^star M X_c is singular \(rcond=1.00e-12\)"):
            structured_update(*args, core)
        assert len(calls) == 1


class TestSimilarityTarget:
    def test_transformed_vectors_deflate(self):
        # solving with the target Z La Z^{-1} makes (X_c Z, La) deflating
        planted = plant_problem(17, 6, 2, "symmetric")
        rng = np.random.default_rng(18)
        z = crandn(rng, 2, 2)
        conj_target = z @ planted.target_lam @ np.linalg.inv(z)
        g, _ = change_gramian(planted.pencil, planted.change.x)
        core = complete_core(
            g, planted.change.lam, conj_target, np.zeros_like(g)
        )
        res = structured_update(
            planted.pencil,
            planted.change.x,
            planted.change.lam,
            conj_target,
            core,
        )
        m1 = planted.pencil.m + res.delta_m
        k1 = planted.pencil.k + res.delta_k
        xz = planted.change.x @ z
        res_norm = fnorm(m1 @ xz @ planted.target_lam + k1 @ xz)
        assert res_norm <= 1e-9 * (fnorm(m1) + fnorm(k1)) * fnorm(xz) * (
            1 + fnorm(planted.target_lam)
        )


def _structured():
    planted = plant_problem(3, 12, 4, "hermitian")
    x, lam_c = planted.change.x, planted.change.lam
    g, _ = change_gramian(planted.pencil, x)
    core = scaled_gramian_core(g, lam_c, planted.target_lam, 0.3)
    return structured_update(planted.pencil, x, lam_c, planted.target_lam, core)


def _shh():
    pp = plant_star_shh(4, 6, 1, 1)
    g, _ = shh_gramian(pp.pencil, pp.change.x)
    core = scaled_gramian_core(g, pp.change.lam, pp.target_lam, 0.3)
    return shh_update(pp.pencil, pp.change.x, pp.change.lam, pp.target_lam, core)


def _t_shh():
    return t_shh_solve(plant_t_shh(5, 6))


def _hermitian():
    pencil, xc, lc, _, _ = plant_hermitian_definite(31, n=8)
    return hermitian_update(pencil, xc, lc, 1.2 * lc, z1=[0.3, -0.2], z2=[0.1, 0.4])


def _t_odd_real():
    pencil, change, _ = plant_t_odd_real(25, n=8, pairs=2)
    targets = [1j * lam.imag * 1.3 for lam, _ in change]
    return t_odd_real_update(pencil, change, targets, [0.4, -0.3], [0.2, 0.5])


def _quadratic():
    case = CASES["herm-6.1"]
    spec = QuadraticSpec("hermitian", case.lam_change, case.lam_target)
    return solve_quadratic(case.m, case.k, spec, z1=case.z1, z2=case.z2)[0]


class TestResultIsFactors:
    """A factored update holds no n x n array; dM and dK are formed on access."""

    @pytest.mark.parametrize(
        "build",
        [_structured, _shh, _t_shh, _hermitian, _t_odd_real, _quadratic],
        ids=["structured", "shh", "t-shh", "hermitian", "t-odd-real", "quadratic"],
    )
    def test_no_square_array_held(self, build):
        res = build()
        n, p = res.factors[0].shape
        assert p < n and res.delta_m.shape == (n, n)
        held = [(f.name, getattr(res, f.name)) for f in dataclasses.fields(res)]
        held += [(f"provenance[{key!r}]", value) for key, value in res.provenance.items()]
        square = [
            name
            for name, value in held
            for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray) and a.shape == (n, n)
        ]
        assert square == []
