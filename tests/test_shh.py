"""Tests for skew-Hamiltonian/Hamiltonian pencils and their updates."""

import numpy as np
import pytest
from conftest import random_shh_pencil, t_shh_shape, t_shh_solve

from nospillover.errors import BadParameters, ComplexInput, NotSHH, SingularG
from nospillover.linalg import (
    J2,
    TAU_DEFL,
    TAU_STRUCT,
    block_diag,
    eig_pencil,
    finite_eigenvalues,
    fnorm,
    match_multisets,
)
from nospillover.pencil import StructureTag
from nospillover.randomgen import (
    plant_star_shh,
    plant_t_shh,
)
from nospillover.shh import (
    SHHPencil,
    apply_j,
    canonical_j,
    group_t_shh_spectrum,
    shh_gramian,
    shh_update,
    t_shh_core,
    t_shh_lambda,
    t_shh_mhat,
    t_shh_update,
    t_shh_z_params,
)
from nospillover.structured import complete_core, parametrized_core, structured_update
from nospillover.unstructured import UpdateProblem
from nospillover.verify import certify


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_patterned_z(rng, num_couples, p):
    z1 = np.zeros((p, p), dtype=complex)
    z2 = np.zeros((p, p), dtype=complex)
    for j in range(num_couples):
        a = complex(rng.standard_normal() + 1j * rng.standard_normal())
        b = complex(rng.standard_normal() + 1j * rng.standard_normal())
        z1[2 * j, 2 * j + 1], z1[2 * j + 1, 2 * j] = a, -np.conj(a)
        z2[2 * j, 2 * j + 1], z2[2 * j + 1, 2 * j] = b, np.conj(b)
    for kk in range(2 * num_couples, p):
        z1[kk, kk] = 1j * rng.standard_normal()
        z2[kk, kk] = rng.standard_normal()
    return z1, z2


class TestApplyJ:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_equals_dense_product(self, kind):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((8, 5))
        if kind == "complex":
            a = a + 1j * rng.standard_normal((8, 5))
        a[[0, 6], 1] = 0.0
        j = canonical_j(8)
        for transpose, dense in ((False, j @ a), (True, j.T @ a)):
            out = apply_j(a, transpose=transpose)
            assert out.dtype == dense.dtype
            assert np.array_equal(out, dense)
            # zeros stay +0.0, as in the product, so written files keep their bytes
            parts = out.view(float)
            assert not np.signbit(parts[parts == 0.0]).any()


class TestSHHPencil:
    def test_reference_case_valid(self):
        from nospillover.cases import CASES

        case = CASES["shh-7"]
        shh = SHHPencil(case.m, case.k, "*")
        assert shh.size == 4

    def test_corrupted_rejected(self):
        from nospillover.cases import CASES

        case = CASES["shh-7"]
        bad = np.array(case.m)
        bad[0, 0] += 0.1
        with pytest.raises(NotSHH):
            SHHPencil(bad, case.k, "*")

    def test_even_pencil_reduction_tag(self):
        rng = np.random.default_rng(1)
        shh = random_shh_pencil(rng, 3, "*")
        even = shh.even_pencil()
        assert even.tag == StructureTag("*", -1, 1)

    def test_eigenvalue_symmetry(self):
        # simple eigenvalues with re != 0 come in (lam, -conj lam) pairs
        rng = np.random.default_rng(2)
        for seed in range(5):
            shh = random_shh_pencil(np.random.default_rng(seed), 3, "*")
            vals = finite_eigenvalues(shh.eig())
            partner = -np.conj(vals)
            dist, unmatched = match_multisets(vals, partner)
            assert unmatched == 0
            assert dist <= 1e-7


class TestShhUpdate:
    def test_mhat_zero_branch(self):
        pp = plant_star_shh(3, 4, 1, 1)
        g, _ = shh_gramian(pp.pencil, pp.change.x)
        core = complete_core(g, pp.change.lam, pp.target_lam, np.zeros_like(g))
        res = shh_update(pp.pencil, pp.change.x, pp.change.lam, pp.target_lam, core)
        assert fnorm(res.delta_m) <= 1e-12 * fnorm(pp.pencil.m)
        m1, k1 = pp.pencil.m + res.delta_m, pp.pencil.k + res.delta_k
        tres = fnorm(m1 @ pp.change.x @ pp.target_lam + k1 @ pp.change.x)
        assert tres <= 1e-10 * (fnorm(m1) + fnorm(k1))

    def test_j_reduction_equivalence(self):
        # J * (SHH update) equals the star-even update of J L(lambda)
        rng = np.random.default_rng(4)
        for seed in range(10):
            pp = plant_star_shh(seed + 10, 4, 1, 1)
            g, _ = shh_gramian(pp.pencil, pp.change.x)
            z1, z2 = random_patterned_z(
                np.random.default_rng(seed), pp.parameters["num_couples"], g.shape[0]
            )
            core = parametrized_core(g, pp.change.lam, pp.target_lam, z1, z2)
            res = shh_update(pp.pencil, pp.change.x, pp.change.lam, pp.target_lam, core)
            even = pp.pencil.even_pencil()
            res_even = structured_update(
                even, pp.change.x, pp.change.lam, pp.target_lam, core
            )
            j = pp.pencil.j
            scale = fnorm(res_even.delta_m) + fnorm(res_even.delta_k)
            assert fnorm(j @ res.delta_m - res_even.delta_m) <= 1e-11 * scale
            assert fnorm(j @ res.delta_k - res_even.delta_k) <= 1e-11 * scale

    def test_planted_full_checks(self):
        rng = np.random.default_rng(5)
        for seed in range(8):
            pp = plant_star_shh(seed + 30, 4, 1, 1)
            g, _ = shh_gramian(pp.pencil, pp.change.x)
            z1, z2 = random_patterned_z(rng, pp.parameters["num_couples"], g.shape[0])
            core = parametrized_core(g, pp.change.lam, pp.target_lam, z1, z2)
            res = shh_update(pp.pencil, pp.change.x, pp.change.lam, pp.target_lam, core)
            m1, k1 = pp.pencil.m + res.delta_m, pp.pencil.k + res.delta_k
            SHHPencil(m1, k1, "*")  # structure must survive
            scale = fnorm(m1) + fnorm(k1)
            xf, lf = pp.fixed.x, pp.fixed.lam
            assert fnorm(m1 @ xf @ lf + k1 @ xf) <= 1e-10 * scale
            expected = np.concatenate([np.diag(pp.target_lam), np.diag(lf)])
            dist, unmatched = match_multisets(
                expected, finite_eigenvalues(eig_pencil(m1, k1))
            )
            assert unmatched == 0 and dist <= 1e-7

    def test_delta_structure_names(self):
        # J dM is skew-Hermitian and J dK Hermitian for the * case
        pp = plant_star_shh(6, 3, 1, 0)
        g, _ = shh_gramian(pp.pencil, pp.change.x)
        z1, z2 = random_patterned_z(np.random.default_rng(6), pp.parameters["num_couples"], g.shape[0])
        core = parametrized_core(g, pp.change.lam, pp.target_lam, z1, z2)
        res = shh_update(pp.pencil, pp.change.x, pp.change.lam, pp.target_lam, core)
        j = pp.pencil.j
        jm, jk = j @ res.delta_m, j @ res.delta_k
        assert fnorm(jm + jm.conj().T) <= 1e-11 * max(fnorm(jm), 1e-30)
        assert fnorm(jk - jk.conj().T) <= 1e-11 * max(fnorm(jk), 1e-30)


class TestStarShhCore:
    def test_zero_params_zero_core(self):
        pp = plant_star_shh(7, 3, 1, 1)
        g, _ = shh_gramian(pp.pencil, pp.change.x)
        p = g.shape[0]
        core = parametrized_core(
            g, pp.change.lam, pp.change.lam, np.zeros((p, p)), np.zeros((p, p))
        )
        assert fnorm(core.mhat) <= 1e-14
        assert fnorm(core.khat) <= 1e-14

    def test_gramian_block_form(self):
        # couples give [[0, g], [-conj g, 0]] blocks, imaginary tail entries
        pp = plant_star_shh(8, 4, 1, 1)
        g, _ = shh_gramian(pp.pencil, pp.change.x)
        scale = fnorm(g)
        assert abs(g[0, 0]) <= 1e-8 * scale
        assert abs(g[1, 1]) <= 1e-8 * scale
        assert abs(g[1, 0] + np.conj(g[0, 1])) <= 1e-8 * scale
        assert abs(g[2, 2].real) <= 1e-8 * scale
        assert abs(g[0, 2]) <= 1e-8 * scale and abs(g[2, 0]) <= 1e-8 * scale

    @staticmethod
    def _solve_and_certify(pp, g, z1, z2):
        core = parametrized_core(g, pp.change.lam, pp.target_lam, z1, z2)
        res = shh_update(pp.pencil, pp.change.x, pp.change.lam, pp.target_lam, core)
        problem = UpdateProblem(pp.change, pp.target_lam, fixed=pp.fixed)
        return res, certify(pp.pencil, res, problem)

    def test_bad_z_pattern_rejected(self):
        # diagonal entries in a couple block break the core's structure: the
        # kernel flags the core, and the certificate fails on the updated pencil
        pp = plant_star_shh(9, 3, 1, 0)
        g, _ = shh_gramian(pp.pencil, pp.change.x)
        p = g.shape[0]
        res, cert = self._solve_and_certify(pp, g, np.eye(p), np.zeros((p, p)))
        assert res.provenance["core_structured"] is False
        assert not cert.passed
        assert cert.structure_residuals["jm_updated_skew"] > TAU_STRUCT

    def test_non_block_gramian_rejected(self):
        # a core built from a G the change pair does not have misses the core
        # equation of the kernel's own G, so the targets are not reached
        pp = plant_star_shh(10, 3, 1, 0)
        g, _ = shh_gramian(pp.pencil, pp.change.x)
        bad = np.array(g)
        bad[0, 0] = 1.0  # couples must have zero diagonal
        p = g.shape[0]
        res, cert = self._solve_and_certify(pp, bad, np.zeros((p, p)), np.zeros((p, p)))
        assert res.provenance["core_residual"] > 1e-8 * fnorm(g)
        assert not cert.passed
        assert cert.target_relative > TAU_DEFL


class TestTShh:
    def test_zero_params_zero_update(self):
        pp = plant_t_shh(11, 4)
        # keep the original eigenvalues as targets, no core parameters
        g, _ = shh_gramian(pp.pencil, pp.change.x)
        lam_c = pp.change.lam
        res = t_shh_update(pp.pencil, pp.change.x, lam_c, lam_c, t_shh_core(g, lam_c, lam_c))
        assert fnorm(res.delta_m) <= 1e-11 * fnorm(pp.pencil.m)
        assert fnorm(res.delta_k) <= 1e-11 * fnorm(pp.pencil.k)

    def test_planted_full_checks(self):
        rng = np.random.default_rng(12)
        for seed in range(8):
            pp = plant_t_shh(seed + 50, 4)
            shape = t_shh_shape(pp)
            mhat = t_shh_mhat(
                shape,
                rng.standard_normal(shape[0]),
                rng.standard_normal(shape[0]),
                rng.standard_normal(shape[1]),
                rng.standard_normal(shape[2]),
            )
            res = t_shh_solve(pp, mhat=mhat)
            m1 = (pp.pencil.m + res.delta_m).real
            k1 = (pp.pencil.k + res.delta_k).real
            SHHPencil(m1, k1, "T")
            scale = fnorm(m1) + fnorm(k1)
            xf, lf = pp.fixed.x, pp.fixed.lam
            assert fnorm(m1 @ xf @ lf + k1 @ xf) <= 1e-10 * scale
            expected = np.concatenate(
                [np.linalg.eigvals(pp.target_lam), np.diag(lf)]
            )
            dist, unmatched = match_multisets(
                expected, finite_eigenvalues(eig_pencil(m1, k1))
            )
            assert unmatched == 0 and dist <= 1e-7

    def test_z_route_core_equation(self):
        rng = np.random.default_rng(13)
        for seed in range(6):
            pp = plant_t_shh(seed + 70, 4)
            shape = t_shh_shape(pp)
            quad = [tuple(rng.standard_normal(4)) for _ in range(shape[0])]
            imag = [tuple(rng.standard_normal(2)) for _ in range(shape[1])]
            real = [tuple(rng.standard_normal(2)) for _ in range(shape[2])]
            z1, z2 = t_shh_z_params(shape, quad, imag, real)
            res = t_shh_solve(pp, z_params=(z1, z2))
            g = res.provenance["g"].real
            mh, kh = res.factors[1], res.factors[2]
            lam_c, lam_a = pp.change.lam.real, pp.target_lam.real
            resid = fnorm(mh @ lam_a + kh - g @ (lam_c - lam_a))
            scale = fnorm(g) * (fnorm(lam_c) + fnorm(lam_a)) + fnorm(mh) * fnorm(lam_a)
            assert resid <= 1e-12 * max(scale, 1.0)
            m1 = (pp.pencil.m + res.delta_m).real
            k1 = (pp.pencil.k + res.delta_k).real
            SHHPencil(m1, k1, "T")

    def test_repeated_eigenvalue_rejected(self):
        pp = plant_t_shh(14, 4)
        # a repeated group gives X_c repeated columns: the kernel's Gramian check
        xc = np.hstack([pp.change.x, pp.change.x])
        lam_c = block_diag(pp.change.lam, pp.change.lam)
        lam_a = block_diag(pp.target_lam, pp.target_lam)
        g, _ = shh_gramian(pp.pencil, xc)
        with pytest.raises(SingularG):
            t_shh_update(pp.pencil, xc, lam_c, lam_a, t_shh_core(g, lam_c, lam_a))

    @pytest.mark.parametrize("mu", [0.7, -0.7])
    def test_imaginary_pair_block_is_mu_j2(self, mu):
        # taken on the axis, with the sign of mu on its zeros, as ``random`` writes it
        lam = t_shh_lambda((0, 1, 0), [], [1e-12 + 1j * mu], [])
        assert lam.tobytes() == (mu * J2).tobytes()

    def test_records_its_method_and_real_factors(self):
        res = t_shh_solve(plant_t_shh(4242, 6))
        assert res.provenance["method"] == "t-shh"
        assert all(not np.signbit(f.imag).any() and not f.imag.any() for f in res.factors)

    def test_two_core_sources_rejected(self):
        # each source sets the whole core, so neither is dropped unread
        pp = plant_t_shh(4242, 6)
        shape = t_shh_shape(pp)
        mhat = t_shh_mhat(shape, [0.5] * shape[0], [0.2] * shape[0],
                          [-0.3] * shape[1], [0.7] * shape[2])
        z_params = t_shh_z_params(
            shape, [(0.5, 0.2, 0.1, 0.3)] * shape[0], [(-0.3, 0.4)] * shape[1],
            [(0.7, 0.4)] * shape[2],
        )
        with pytest.raises(BadParameters, match="one of mhat and z_params"):
            t_shh_solve(pp, mhat=mhat, z_params=z_params)
        t_shh_solve(pp, mhat=mhat)
        t_shh_solve(pp, z_params=z_params)

    @pytest.mark.parametrize("what", ["pencil", "change basis", "Lambda", "core"])
    def test_complex_data_rejected(self, what):
        # the real parts of a complex update are no update of the data
        pp = plant_t_shh(4242, 6)
        pencil, xc, lam_c, lam_a = pp.pencil, pp.change.x, pp.change.lam, pp.target_lam
        g, _ = shh_gramian(pencil, xc)
        core = t_shh_core(g, lam_c, lam_a)
        if what == "pencil":
            skew = np.zeros((12, 12))
            skew[0, 1], skew[1, 0] = 1.0, -1.0
            # M = J^T S with S skew keeps (JM)^T = -JM
            pencil = SHHPencil(pencil.m + 1e-3j * apply_j(skew, transpose=True), pencil.k, "T")
        elif what == "change basis":
            xc = xc * np.exp(0.1j)
        elif what == "Lambda":
            lam_a = lam_a * (1 + 1e-3j)
        else:
            core = complete_core(g, lam_c, lam_a, 1e-3j * np.eye(g.shape[0]))
        with pytest.raises(ComplexInput, match=f"real {what}"):
            t_shh_update(pencil, xc, lam_c, lam_a, core)

    def test_grouping_covers_spectrum(self):
        for seed in range(10):
            rng = np.random.default_rng(seed + 500)
            shh = random_shh_pencil(rng, 4, "T")
            eigs = shh.eig()
            grouping, leftovers = group_t_shh_spectrum(eigs)
            assert grouping.column_count + len(leftovers) == shh.size
            # grouped values all appear in the computed spectrum
            vals = finite_eigenvalues(eigs)
            for v in grouping.change_values():
                assert min(abs(vals - v)) <= 1e-6 * (1 + abs(v))

    def test_t_gramian_block_form(self):
        pp = plant_t_shh(15, 4)
        g, _ = shh_gramian(pp.pencil, pp.change.x)
        assert fnorm(g + g.T) <= 1e-8 * fnorm(g)  # T-skew overall
        assert fnorm(g.imag) <= 1e-8 * fnorm(g)
