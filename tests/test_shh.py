"""Tests for skew-Hamiltonian/Hamiltonian pencils and their updates."""

import numpy as np
import pytest

from nospillover.errors import (
    BadBlockPattern,
    NotSHH,
    NotSimpleEigenvalues,
    RepeatedEigenvalue,
)
from nospillover.linalg import (
    eig_pencil,
    finite_eigenvalues,
    fnorm,
    match_multisets,
)
from nospillover.pencil import StructureTag
from nospillover.randomgen import (
    plant_star_shh,
    plant_t_shh,
    random_shh_pencil,
)
from nospillover.shh import (
    EigGrouping,
    SHHPencil,
    apply_j,
    canonical_j,
    group_t_shh_spectrum,
    shh_gramian,
    shh_update,
    star_shh_core,
    t_shh_basis,
    t_shh_mhat,
    t_shh_update,
    t_shh_z_params,
)
from nospillover.structured import complete_core, structured_update


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
        g, _ = shh_gramian(pp.shh, pp.change_x)
        core = complete_core(g, pp.change_lam, pp.target_lam, np.zeros_like(g))
        res = shh_update(pp.shh, pp.change_x, pp.change_lam, pp.target_lam, core)
        assert fnorm(res.delta_m) <= 1e-12 * fnorm(pp.shh.m)
        m1, k1 = pp.shh.m + res.delta_m, pp.shh.k + res.delta_k
        tres = fnorm(m1 @ pp.change_x @ pp.target_lam + k1 @ pp.change_x)
        assert tres <= 1e-10 * (fnorm(m1) + fnorm(k1))

    def test_j_reduction_equivalence(self):
        # J * (SHH update) equals the star-even update of J L(lambda)
        rng = np.random.default_rng(4)
        for seed in range(10):
            pp = plant_star_shh(seed + 10, 4, 1, 1)
            g, _ = shh_gramian(pp.shh, pp.change_x)
            z1, z2 = random_patterned_z(
                np.random.default_rng(seed), pp.num_couples, g.shape[0]
            )
            core = star_shh_core(g, pp.change_lam, pp.target_lam, z1, z2, pp.num_couples)
            res = shh_update(pp.shh, pp.change_x, pp.change_lam, pp.target_lam, core)
            even = pp.shh.even_pencil()
            res_even = structured_update(
                even, pp.change_x, pp.change_lam, pp.target_lam, core
            )
            j = pp.shh.j
            scale = fnorm(res_even.delta_m) + fnorm(res_even.delta_k)
            assert fnorm(j @ res.delta_m - res_even.delta_m) <= 1e-11 * scale
            assert fnorm(j @ res.delta_k - res_even.delta_k) <= 1e-11 * scale

    def test_planted_full_checks(self):
        rng = np.random.default_rng(5)
        for seed in range(8):
            pp = plant_star_shh(seed + 30, 4, 1, 1)
            g, _ = shh_gramian(pp.shh, pp.change_x)
            z1, z2 = random_patterned_z(rng, pp.num_couples, g.shape[0])
            core = star_shh_core(
                g, pp.change_lam, pp.target_lam, z1, z2, pp.num_couples
            )
            res = shh_update(pp.shh, pp.change_x, pp.change_lam, pp.target_lam, core)
            m1, k1 = pp.shh.m + res.delta_m, pp.shh.k + res.delta_k
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
        g, _ = shh_gramian(pp.shh, pp.change_x)
        z1, z2 = random_patterned_z(np.random.default_rng(6), pp.num_couples, g.shape[0])
        core = star_shh_core(g, pp.change_lam, pp.target_lam, z1, z2, pp.num_couples)
        res = shh_update(pp.shh, pp.change_x, pp.change_lam, pp.target_lam, core)
        j = pp.shh.j
        jm, jk = j @ res.delta_m, j @ res.delta_k
        assert fnorm(jm + jm.conj().T) <= 1e-11 * max(fnorm(jm), 1e-30)
        assert fnorm(jk - jk.conj().T) <= 1e-11 * max(fnorm(jk), 1e-30)


class TestStarShhCore:
    def test_zero_params_zero_core(self):
        pp = plant_star_shh(7, 3, 1, 1)
        g, _ = shh_gramian(pp.shh, pp.change_x)
        p = g.shape[0]
        core = star_shh_core(
            g, pp.change_lam, pp.change_lam, np.zeros((p, p)), np.zeros((p, p)),
            pp.num_couples,
        )
        assert fnorm(core.mhat) <= 1e-14
        assert fnorm(core.khat) <= 1e-14

    def test_gramian_block_form(self):
        # couples give [[0, g], [-conj g, 0]] blocks, imaginary tail entries
        pp = plant_star_shh(8, 4, 1, 1)
        g, _ = shh_gramian(pp.shh, pp.change_x)
        scale = fnorm(g)
        assert abs(g[0, 0]) <= 1e-8 * scale
        assert abs(g[1, 1]) <= 1e-8 * scale
        assert abs(g[1, 0] + np.conj(g[0, 1])) <= 1e-8 * scale
        assert abs(g[2, 2].real) <= 1e-8 * scale
        assert abs(g[0, 2]) <= 1e-8 * scale and abs(g[2, 0]) <= 1e-8 * scale

    def test_bad_z_pattern_rejected(self):
        pp = plant_star_shh(9, 3, 1, 0)
        g, _ = shh_gramian(pp.shh, pp.change_x)
        p = g.shape[0]
        z1 = np.eye(p)  # diagonal entries are not allowed in couple blocks
        with pytest.raises(BadBlockPattern):
            star_shh_core(g, pp.change_lam, pp.target_lam, z1, np.zeros((p, p)), 1)

    def test_non_block_gramian_rejected(self):
        pp = plant_star_shh(10, 3, 1, 0)
        g, _ = shh_gramian(pp.shh, pp.change_x)
        bad = np.array(g)
        bad[0, 0] = 1.0  # couples must have zero diagonal
        p = g.shape[0]
        with pytest.raises(NotSimpleEigenvalues):
            star_shh_core(
                bad, pp.change_lam, pp.target_lam, np.zeros((p, p)),
                np.zeros((p, p)), 1,
            )


class TestTShh:
    def test_zero_params_zero_update(self):
        pp = plant_t_shh(11, 4)
        gr = pp.grouping
        # keep the original eigenvalues as targets, no core parameters
        targets = (
            tuple(lam for lam, _, _ in gr.quadruples),
            tuple(lam for lam, _ in gr.imag_pairs),
            tuple(lam for lam, _, _ in gr.real_pairs),
        )
        res = t_shh_update(pp.shh, gr, *targets)
        assert fnorm(res.delta_m) <= 1e-11 * fnorm(pp.shh.m)
        assert fnorm(res.delta_k) <= 1e-11 * fnorm(pp.shh.k)

    def test_planted_full_checks(self):
        rng = np.random.default_rng(12)
        for seed in range(8):
            pp = plant_t_shh(seed + 50, 4)
            gr = pp.grouping
            shape = (len(gr.quadruples), len(gr.imag_pairs), len(gr.real_pairs))
            mhat = t_shh_mhat(
                shape,
                rng.standard_normal(shape[0]),
                rng.standard_normal(shape[0]),
                rng.standard_normal(shape[1]),
                rng.standard_normal(shape[2]),
            )
            res = t_shh_update(pp.shh, gr, *pp.target_groups, mhat=mhat)
            m1 = (pp.shh.m + res.delta_m).real
            k1 = (pp.shh.k + res.delta_k).real
            SHHPencil(m1, k1, "T")
            scale = fnorm(m1) + fnorm(k1)
            xf, lf = pp.fixed.x, pp.fixed.lam
            assert fnorm(m1 @ xf @ lf + k1 @ xf) <= 1e-10 * scale
            lam_a = res.provenance["lam_a"]
            expected = np.concatenate(
                [np.linalg.eigvals(lam_a), np.diag(lf)]
            )
            dist, unmatched = match_multisets(
                expected, finite_eigenvalues(eig_pencil(m1, k1))
            )
            assert unmatched == 0 and dist <= 1e-7

    def test_z_route_core_equation(self):
        rng = np.random.default_rng(13)
        for seed in range(6):
            pp = plant_t_shh(seed + 70, 4)
            gr = pp.grouping
            shape = (len(gr.quadruples), len(gr.imag_pairs), len(gr.real_pairs))
            quad = [tuple(rng.standard_normal(4)) for _ in range(shape[0])]
            imag = [tuple(rng.standard_normal(2)) for _ in range(shape[1])]
            real = [tuple(rng.standard_normal(2)) for _ in range(shape[2])]
            z1, z2 = t_shh_z_params(shape, quad, imag, real)
            res = t_shh_update(pp.shh, gr, *pp.target_groups, z_params=(z1, z2))
            g = res.provenance["g"].real
            mh, kh = res.factors[1], res.factors[2]
            lam_c, lam_a = res.provenance["lam_c"], res.provenance["lam_a"]
            resid = fnorm(mh @ lam_a + kh - g @ (lam_c - lam_a))
            scale = fnorm(g) * (fnorm(lam_c) + fnorm(lam_a)) + fnorm(mh) * fnorm(lam_a)
            assert resid <= 1e-12 * max(scale, 1.0)
            m1 = (pp.shh.m + res.delta_m).real
            k1 = (pp.shh.k + res.delta_k).real
            SHHPencil(m1, k1, "T")

    def test_repeated_eigenvalue_rejected(self):
        pp = plant_t_shh(14, 4)
        gr = pp.grouping
        if gr.quadruples:
            dup = EigGrouping(quadruples=gr.quadruples * 2)
            targets = ((gr.quadruples[0][0],) * 2, (), ())
        elif gr.imag_pairs:
            dup = EigGrouping(imag_pairs=gr.imag_pairs * 2)
            targets = ((), (gr.imag_pairs[0][0],) * 2, ())
        else:
            dup = EigGrouping(real_pairs=gr.real_pairs * 2)
            targets = ((), (), (gr.real_pairs[0][0],) * 2)
        with pytest.raises(RepeatedEigenvalue):
            t_shh_update(pp.shh, dup, *targets)

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
        xc, _ = t_shh_basis(pp.grouping)
        g, _ = shh_gramian(pp.shh, xc.astype(complex))
        assert fnorm(g + g.T) <= 1e-8 * fnorm(g)  # T-skew overall
        assert fnorm(g.imag) <= 1e-8 * fnorm(g)
