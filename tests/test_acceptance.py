"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Tolerances are pinned here and nowhere else."""

import time

import numpy as np
from conftest import crandn, plant_hermitian_definite_pd_k, t_shh_groups

from nospillover.cases import run_case
from nospillover.linalg import (
    eig_pencil,
    finite_eigenvalues,
    fnorm,
    herm_eigs,
    match_multisets,
)
from nospillover.pencil import classify_structure, StructuredPencil
from nospillover.randomgen import plant_problem, plant_star_shh, plant_t_shh
from nospillover.shh import (
    SHHPencil,
    shh_gramian,
    shh_update,
    star_shh_core,
    t_shh_mhat,
    t_shh_update,
    t_shh_z_params,
)
from nospillover.special import hermitian_core, hermitian_update, commuting_family_params
from nospillover.structured import (
    change_gramian,
    parametrized_core,
    scaled_gramian_core,
    structured_update,
)
from nospillover.unstructured import (
    UpdateProblem,
    core_family,
    dual_basis_update,
    solve_general,
)


def _report(name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


class TestReferenceCases:
    def test_hermitian_reference(self):
        t0 = time.perf_counter()
        rep = run_case("herm-6.1")
        elapsed = time.perf_counter() - t0
        ok = (
            rep.dev_delta_m <= 5e-4
            and rep.dev_delta_k <= 5e-4
            and rep.spillover <= 1e-11
            and all(v >= -1e-10 for v in rep.min_eigs.values())
            and len(rep.min_eigs) == 2
            and elapsed < 1.0
        )
        _report(
            "herm-6.1",
            ok,
            f"dev {max(rep.dev_delta_m, rep.dev_delta_k):.1e}, "
            f"spill {rep.spillover:.1e}, {elapsed:.2f}s",
        )

    def test_star_odd_reference(self):
        rep = run_case("odd-6.2")
        ok = (
            rep.spillover <= 1e-12
            and rep.dev_delta_m <= 5e-4
            and rep.dev_delta_k <= 5e-4
            and rep.structure["dM hermitian"] <= 1e-10
            and rep.structure["dK skew-hermitian"] <= 1e-10
            and rep.min_eigs["delta_m"] >= -1e-10
        )
        _report("odd-6.2", ok, f"spill {rep.spillover:.1e}")

    def test_star_even_reference(self):
        rep = run_case("even-6.3")
        ok = (
            rep.spillover <= 1e-12
            and rep.dev_delta_m <= 5e-4
            and rep.dev_delta_k <= 5e-4
            and rep.structure["dM skew-hermitian"] <= 1e-10
            and rep.structure["dK hermitian"] <= 1e-10
            and rep.min_eigs["delta_k"] >= -1e-10
        )
        _report("even-6.3", ok, f"spill {rep.spillover:.1e}")

    def test_shh_reference(self):
        rep = run_case("shh-7")
        ok = (
            rep.spillover <= 1e-12
            and rep.dev_delta_m <= 5e-4
            and rep.dev_delta_k <= 5e-4
            and rep.structure["J dM skew-hermitian"] <= 1e-10
            and rep.structure["J dK hermitian"] <= 1e-10
        )
        _report("shh-7", ok, f"spill {rep.spillover:.1e}")


def _check_update(pencil_m, pencil_k, tag, xc, lam_a_mat, fixed_x, fixed_lam_mat,
                  delta_m, delta_k, expected):
    m1, k1 = pencil_m + delta_m, pencil_k + delta_k
    scale = fnorm(m1) * (1 + fnorm(lam_a_mat)) + fnorm(k1)
    tres = fnorm(m1 @ xc @ lam_a_mat + k1 @ xc) / scale
    sres = fnorm(m1 @ fixed_x @ fixed_lam_mat + k1 @ fixed_x) / scale
    if tag is not None:
        structured = tag in classify_structure(m1, k1)
    else:
        structured = True
    dist, unmatched = match_multisets(
        expected, finite_eigenvalues(eig_pencil(m1, k1))
    )
    return tres, sres, structured, dist, unmatched


class TestPropertySuite:
    N_INSTANCES = 100

    def test_all_classes(self):
        t0 = time.perf_counter()
        worst = {}
        rng = np.random.default_rng(2024)
        for name in ("symmetric", "hermitian", "t-odd", "star-odd",
                     "t-even", "star-even"):
            pairs_only = name in ("t-odd", "star-odd", "t-even", "star-even")
            wt = ws = wd = 0.0
            for seed in range(self.N_INSTANCES):
                if name == "t-even":
                    n = 6 + 2 * (seed % 4)
                else:
                    n = 6 + (seed % 7)
                if pairs_only:
                    p = 2 + 2 * (seed % 2)
                else:
                    p = 1 + (seed % 4)
                p = min(p, n - 2)
                planted = plant_problem(seed, n, p, name)
                g, _ = change_gramian(planted.pencil, planted.change.x)
                t = float(rng.uniform(-0.5, 0.5))
                core = scaled_gramian_core(
                    g, planted.change.lam, planted.target_lam, t
                )
                res = structured_update(
                    planted.pencil, planted.change.x, planted.change.lam,
                    planted.target_lam, core,
                )
                expected = np.concatenate(
                    [np.diag(planted.target_lam), np.diag(planted.fixed.lam)]
                )
                tres, sres, structured, dist, unmatched = _check_update(
                    planted.pencil.m, planted.pencil.k, planted.pencil.tag,
                    planted.change.x, planted.target_lam,
                    planted.fixed.x, planted.fixed.lam,
                    res.delta_m, res.delta_k, expected,
                )
                assert tres <= 1e-10, (name, seed, tres)
                assert sres <= 1e-10, (name, seed, sres)
                assert structured, (name, seed)
                assert unmatched == 0 and dist <= 1e-7, (name, seed, dist)
                wt, ws, wd = max(wt, tres), max(ws, sres), max(wd, dist)
            worst[name] = (wt, ws, wd)
        # *-SHH
        wt = ws = wd = 0.0
        for seed in range(self.N_INSTANCES):
            half_n = 3 + (seed % 4)
            pp = plant_star_shh(seed, half_n, 1, seed % 2)
            g, _ = shh_gramian(pp.pencil, pp.change.x)
            p = g.shape[0]
            zrng = np.random.default_rng([seed, 31])
            z1 = np.zeros((p, p), complex)
            z2 = np.zeros((p, p), complex)
            for j in range(pp.parameters["num_couples"]):
                a = complex(zrng.standard_normal() + 1j * zrng.standard_normal())
                b = complex(zrng.standard_normal() + 1j * zrng.standard_normal())
                z1[2 * j, 2 * j + 1], z1[2 * j + 1, 2 * j] = a, -np.conj(a)
                z2[2 * j, 2 * j + 1], z2[2 * j + 1, 2 * j] = b, np.conj(b)
            for kk in range(2 * pp.parameters["num_couples"], p):
                z1[kk, kk] = 1j * zrng.standard_normal()
                z2[kk, kk] = zrng.standard_normal()
            core = star_shh_core(
                g, pp.change.lam, pp.target_lam, z1, z2, pp.parameters["num_couples"]
            )
            res = shh_update(pp.pencil, pp.change.x, pp.change.lam, pp.target_lam, core)
            m1, k1 = pp.pencil.m + res.delta_m, pp.pencil.k + res.delta_k
            SHHPencil(m1, k1, "*")  # structure preserved
            expected = np.concatenate(
                [np.diag(pp.target_lam), np.diag(pp.fixed.lam)]
            )
            tres, sres, _, dist, unmatched = _check_update(
                pp.pencil.m, pp.pencil.k, None, pp.change.x, pp.target_lam,
                pp.fixed.x, pp.fixed.lam, res.delta_m, res.delta_k, expected,
            )
            assert tres <= 1e-10 and sres <= 1e-10, ("star-shh", seed, tres, sres)
            assert unmatched == 0 and dist <= 1e-7, ("star-shh", seed, dist)
            wt, ws, wd = max(wt, tres), max(ws, sres), max(wd, dist)
        worst["star-shh"] = (wt, ws, wd)
        # T-SHH
        wt = ws = wd = 0.0
        for seed in range(self.N_INSTANCES):
            half_n = 3 + (seed % 4)
            pp = plant_t_shh(seed, half_n)
            gr, targets = t_shh_groups(pp)
            shape = (len(gr.quadruples), len(gr.imag_pairs), len(gr.real_pairs))
            zrng = np.random.default_rng([seed, 32])
            if seed % 2:
                mhat = t_shh_mhat(
                    shape,
                    zrng.standard_normal(shape[0]),
                    zrng.standard_normal(shape[0]),
                    zrng.standard_normal(shape[1]),
                    zrng.standard_normal(shape[2]),
                )
                res = t_shh_update(pp.pencil, gr, *targets, mhat=mhat)
            else:
                quad = [tuple(zrng.standard_normal(4)) for _ in range(shape[0])]
                imag = [tuple(zrng.standard_normal(2)) for _ in range(shape[1])]
                real = [tuple(zrng.standard_normal(2)) for _ in range(shape[2])]
                res = t_shh_update(
                    pp.pencil, gr, *targets,
                    z_params=t_shh_z_params(shape, quad, imag, real),
                )
            m1 = (pp.pencil.m + res.delta_m).real
            k1 = (pp.pencil.k + res.delta_k).real
            SHHPencil(m1, k1, "T")
            xc = pp.change.x.real
            lam_a = res.provenance["lam_a"]
            expected = np.concatenate(
                [np.linalg.eigvals(lam_a), np.diag(pp.fixed.lam)]
            )
            tres, sres, _, dist, unmatched = _check_update(
                pp.pencil.m.real, pp.pencil.k.real, None, xc, lam_a,
                pp.fixed.x, pp.fixed.lam, res.delta_m.real, res.delta_k.real,
                expected,
            )
            assert tres <= 1e-10 and sres <= 1e-10, ("t-shh", seed, tres, sres)
            assert unmatched == 0 and dist <= 1e-7, ("t-shh", seed, dist)
            wt, ws, wd = max(wt, tres), max(ws, sres), max(wd, dist)
        worst["t-shh"] = (wt, ws, wd)
        elapsed = time.perf_counter() - t0
        ok = elapsed < 60.0
        detail = ", ".join(
            f"{k}: t{v[0]:.0e}/s{v[1]:.0e}/d{v[2]:.0e}" for k, v in worst.items()
        )
        _report("property-suite-8x100", ok, f"{elapsed:.1f}s; worst {detail}")


class TestParametrizationIdentities:
    def test_full_size_family(self):
        # [Mt Kt][La; I] = Ra holds for every parameter draw
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            n, p = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            ra = crandn(rng, n, p)
            la = crandn(rng, p, p)
            mt, kt = core_family(ra, la, crandn(rng, n, p), crandn(rng, n, p))
            scale = max(fnorm(ra) + fnorm(mt) * fnorm(la) + fnorm(kt), 1.0)
            worst = max(worst, fnorm(mt @ la + kt - ra) / scale)
        _report("parametrization-full", worst <= 1e-12, f"worst {worst:.1e}")

    def test_core_family(self):
        # Mh La + Kh = G (Lc - La) for every parameter draw
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(200):
            p = int(rng.integers(1, 6))
            g, lc, la = crandn(rng, p, p), crandn(rng, p, p), crandn(rng, p, p)
            core = parametrized_core(g, lc, la, crandn(rng, p, p), crandn(rng, p, p))
            scale = max(
                fnorm(g) * (fnorm(lc) + fnorm(la)) + fnorm(core.mhat) * fnorm(la),
                1.0,
            )
            worst = max(worst, core.equation_residual(g, lc, la) / scale)
        _report("parametrization-core", worst <= 1e-12, f"worst {worst:.1e}")


class TestRecovery:
    def test_zero_mhat_branch(self):
        from nospillover.cases import CASES
        from nospillover.special import QuadraticSpec, solve_quadratic

        case = CASES["herm-6.1"]
        spec = QuadraticSpec("hermitian", case.lam_change, case.lam_target)
        res, info = solve_quadratic(case.m, case.k, spec, mhat=np.zeros(2))
        xn = res.provenance["xc_normalized"]
        direct = (
            case.m
            @ xn
            @ (info["problem"].change.lam - info["problem"].target_lam)
            @ xn.conj().T
            @ case.m
        )
        dev = fnorm(res.delta_k - direct) / fnorm(direct)
        ok = fnorm(res.delta_m) == 0.0 and dev <= 1e-13
        _report("recovery-zero-mhat", ok, f"dev {dev:.1e}")

    def test_commuting_family_branch(self):
        rng = np.random.default_rng(9)
        worst_res, worst_eig = 0.0, 0.0
        for seed in range(50):
            pencil, xc, lc, xf, lf = plant_hermitian_definite_pd_k(seed, 6, 2)
            lc = lc.real
            la = lc * (1 + 0.3 * rng.uniform(size=lc.size))
            bound = np.maximum((la - lc) * la, lc / la - 1.0)
            phi_min = 1.0 + (np.maximum(bound, 0.0) + (lc - la) * la) / (la**2 + 1.0)
            phi = phi_min + rng.uniform(0.01, 0.8, size=lc.size)
            z1, z2 = commuting_family_params(lc, la, phi)
            mh, kh = hermitian_core(lc, la, z1, z2)
            eq = np.abs(mh * la + kh - (lc - la)).max()
            worst_res = max(worst_res, eq / (1 + np.abs(lc).max()))
            res = hermitian_update(pencil, xc, lc, la, z1=z1, z2=z2)
            for delta in (res.delta_m, res.delta_k):
                evals = herm_eigs(delta)
                worst_eig = min(
                    worst_eig, evals[0] / max(fnorm(delta), 1.0)
                )
        ok = worst_res <= 1e-12 and worst_eig >= -1e-10
        _report("recovery-commuting-family", ok, f"eq {worst_res:.1e}, min eig {worst_eig:.1e}")


class TestJReduction:
    def test_equivalence(self):
        worst = 0.0
        for seed in range(50):
            pp = plant_star_shh(seed, 3 + seed % 3, 1, seed % 2)
            g, _ = shh_gramian(pp.pencil, pp.change.x)
            zrng = np.random.default_rng([seed, 33])
            p = g.shape[0]
            z1 = np.zeros((p, p), complex)
            z2 = np.zeros((p, p), complex)
            for j in range(pp.parameters["num_couples"]):
                a = complex(zrng.standard_normal() + 1j * zrng.standard_normal())
                b = complex(zrng.standard_normal() + 1j * zrng.standard_normal())
                z1[2 * j, 2 * j + 1], z1[2 * j + 1, 2 * j] = a, -np.conj(a)
                z2[2 * j, 2 * j + 1], z2[2 * j + 1, 2 * j] = b, np.conj(b)
            for kk in range(2 * pp.parameters["num_couples"], p):
                z1[kk, kk] = 1j * zrng.standard_normal()
                z2[kk, kk] = zrng.standard_normal()
            core = star_shh_core(
                g, pp.change.lam, pp.target_lam, z1, z2, pp.parameters["num_couples"]
            )
            res = shh_update(pp.pencil, pp.change.x, pp.change.lam, pp.target_lam, core)
            even = pp.pencil.even_pencil()
            res_even = structured_update(
                even, pp.change.x, pp.change.lam, pp.target_lam, core
            )
            j = pp.pencil.j
            scale = max(fnorm(res_even.delta_m) + fnorm(res_even.delta_k), 1.0)
            dev = (
                fnorm(j @ res.delta_m - res_even.delta_m)
                + fnorm(j @ res.delta_k - res_even.delta_k)
            ) / scale
            worst = max(worst, dev)
        _report("j-reduction", worst <= 1e-11, f"worst {worst:.1e}")


class TestUnstructuredOracle:
    def test_both_routes_restore_pairs(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng([seed, 40])
            n = int(rng.integers(4, 9))
            p = int(rng.integers(1, min(4, n - 1) + 1))
            m, k = crandn(rng, n, n), crandn(rng, n, n)
            pencil = StructuredPencil(m, k, None)
            eigs = eig_pencil(m, k)
            if not all(e.finite for e in eigs):
                continue
            xc = np.hstack([e.vector.reshape(-1, 1) for e in eigs[:p]])
            lc = np.diag([e.value for e in eigs[:p]])
            xf = np.hstack([e.vector.reshape(-1, 1) for e in eigs[p:]])
            lf = np.diag([e.value for e in eigs[p:]])
            la = lc + np.diag(0.3 * crandn(rng, p, 1)[:, 0])
            from nospillover.pencil import DeflatingPair

            problem = UpdateProblem(
                DeflatingPair(xc, lc), la, fixed=DeflatingPair(xf, lf)
            )
            for res in (
                solve_general(pencil, problem),
                dual_basis_update(pencil, problem, crandn(rng, n, p)),
            ):
                m1, k1 = m + res.delta_m, k + res.delta_k
                scale = fnorm(m1) * (1 + fnorm(la)) + fnorm(k1)
                tres = fnorm(m1 @ xc @ la + k1 @ xc) / scale
                sres = fnorm(m1 @ xf @ lf + k1 @ xf) / scale
                worst = max(worst, tres, sres)
                assert tres <= 1e-10 and sres <= 1e-10, (seed, tres, sres)
        _report("unstructured-oracle", worst <= 1e-10, f"worst {worst:.1e}")
