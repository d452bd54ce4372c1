"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Grids follow the stated minimums (N=360 time steps, M=401 state nodes).
Region-shape checks run on the default state-width (xmax_mult=8); value-accuracy
checks run on wide grids (xmax_mult=30) because the truncated upper tail alone
exceeds their tolerances on narrow grids. Slices that the sign of L only
*conjectures* to be nonempty are enforced at warning level.
"""

from __future__ import annotations

import warnings

import numpy as np

import vastop as vs
from vastop.surfaces import center_index

from conftest import BENCH_M, BENCH_N, WIDE_MULT, maturity_benefit_surface

G = 100.0


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num}: {name}: {detail}"


def _window_report(mask, lo: float, hi: float):
    """Surrender-node count inside (lo, hi] and empty slices outside it."""
    tn = mask.tnodes[:-1]
    inside = (tn > lo + 1e-12) & (tn <= hi + 1e-12)
    n_inside = int(mask.in_surrender[inside].sum())
    empty = np.array([not row.any() for row in mask.in_surrender])
    empty_outside = tn[~inside][empty[~inside]]
    return n_inside, empty_outside


def test_criterion_01_region_reproduction_c1(c1_lattice, c1_pde):
    n_inside, empty_outside = _window_report(c1_lattice["mask"], 5.0, 10.0)
    for t in empty_outside:
        warnings.warn(
            f"slice t={t:.4f} conjectured nonempty is empty (holding through the "
            f"cheap-fee window dominates just before the fee drops)", UserWarning)
    n_inside_pde, _ = _window_report(c1_pde["mask"], 5.0, 10.0)
    runtime = c1_lattice["runtime"]
    ok = n_inside == 0 and n_inside_pde == 0 and runtime <= 60.0
    _verdict(1, "fee-holiday region reproduction",
             ok,
             f"surrender nodes in (5,10]: lattice={n_inside} pde={n_inside_pde}; "
             f"empty-outside slices={[round(float(t), 3) for t in empty_outside]} (warning-level); "
             f"runtime={runtime:.1f}s <= 60s")


def test_criterion_02_region_reproduction_c2(c2_lattice):
    n_inside, empty_outside = _window_report(c2_lattice["mask"], 10.0, 15.0)
    for t in empty_outside:
        warnings.warn(f"slice t={t:.4f} conjectured nonempty is empty", UserWarning)
    last_nonempty = float(c2_lattice["boundary"].nonempty_times.max())
    ok = n_inside == 0 and last_nonempty <= 10.0 + 1e-9
    _verdict(2, "late-fee-drop region reproduction",
             ok,
             f"surrender nodes in (10,15): {n_inside}; boundary empty after "
             f"t={last_nonempty:.3f} (no limit toward the guarantee at maturity)")


def test_criterion_03_reward_representation_equivalence(c1_lattice, c2_lattice):
    gaps = []
    masks_equal = []
    for bundle in (c1_lattice, c2_lattice):
        gaps.append(float(np.max(np.abs(bundle["disc"].values - bundle["cont"].values))))
        masks_equal.append(np.array_equal(bundle["mask_ex"].in_surrender,
                                          bundle["mask_cont_ex"].in_surrender))
    ok = max(gaps) <= 1e-10 * G and all(masks_equal)
    _verdict(3, "discontinuous vs continuous reward equivalence",
             ok,
             f"max surface gap={max(gaps):.2e} (tol {1e-10 * G:.0e}); "
             f"exercise-region masks equal: {masks_equal}")


def test_criterion_04_trivial_case_collapse(kc_scn, kc_wide):
    rels = {}
    empty = {}
    for name in ("lattice", "pde"):
        surf = kc_wide[name]
        h = maturity_benefit_surface(kc_scn, surf)
        rels[name] = float(np.max(np.abs(surf.values - h) / np.maximum(h, 1e-12)))
        empty[name] = int(vs.extract_regions(surf, kc_scn, mode="exercise").in_surrender.sum())
    ok = all(v <= 2e-3 for v in rels.values()) and all(v == 0 for v in empty.values())
    _verdict(4, "matched-rate collapse to the closed form",
             ok,
             f"max rel |v-h|: lattice={rels['lattice']:.2e} pde={rels['pde']:.2e} (tol 2e-3); "
             f"surrender nodes: {empty}")


def test_criterion_05_cross_solver_agreement(c1_scn, c2_scn, lowch_scn,
                                             c1_study, c2_study, lowch_study):
    diffs = {}
    for label, scn, study in (
        ("c1", c1_scn, c1_study),
        ("c2", c2_scn, c2_study),
        ("low-charge", lowch_scn, lowch_study),
    ):
        pgrid = vs.build_pde_grid(scn, BENCH_N, BENCH_M, WIDE_MULT)
        surf = vs.solve_variational_inequality(scn, pgrid)
        i0 = center_index(surf.xnodes, scn.contract.F0)
        vp = float(surf.values[0, i0])
        diffs[label] = abs(vp - study.extrapolated) / study.extrapolated
    ok = all(d <= 1e-3 for d in diffs.values())
    _verdict(5, "pde vs refined-lattice value agreement",
             ok,
             "rel diffs: " + ", ".join(f"{k}={v:.2e}" for k, v in diffs.items()) + " (tol 1e-3)")


def test_criterion_06_decomposition_identities(c1_scn, c2_scn, c1_lattice, c2_lattice):
    means = {}
    id_gap = 0.0
    for label, scn, bundle in (("c1", c1_scn, c1_lattice), ("c2", c2_scn, c2_lattice)):
        rep = vs.decomposition_residuals(bundle["disc"], scn, bundle["boundary"])
        means[label] = (rep.mean_abs_res_he, rep.mean_abs_res_phif)
        for t in (0.0, 3.0, 8.0, 13.0):
            for x in (25.0, 100.0, 390.0):
                e, f = vs.premiums_at(scn, bundle["boundary"], t, x)
                rhs = vs.reward(scn, t, x) - vs.maturity_benefit_value(scn, t, x)
                id_gap = max(id_gap, abs((e - f) - rhs) / max(1.0, abs(rhs)))
    ok = all(m[0] <= 5e-3 * G and m[1] <= 5e-3 * G for m in means.values()) and id_gap <= 1e-8
    _verdict(6, "premium decomposition identities",
             ok,
             f"mean |v-h-e|, |v-payout-f|: c1={means['c1'][0]:.3f},{means['c1'][1]:.3f} "
             f"c2={means['c2'][0]:.3f},{means['c2'][1]:.3f} (tol {5e-3 * G}); "
             f"solver-free identity gap={id_gap:.2e} (tol 1e-8)")


def test_criterion_07_value_function_properties(c1_scn, c2_scn, kc_scn,
                                                c1_lattice, c2_lattice, c1_pde, c2_pde, kc_wide):
    surfaces = [
        ("c1-lattice", c1_lattice["disc"]),
        ("c1-pde", c1_pde["surface"]),
        ("c2-lattice", c2_lattice["disc"]),
        ("c2-pde", c2_pde["surface"]),
        ("kc-lattice", kc_wide["lattice"]),
        ("kc-pde", kc_wide["pde"]),
    ]
    eps_bound = 1e-6 * G
    eps_conv = 1e-5 * G
    worst = {"floor": 0.0, "reward": 0.0, "cap": 0.0, "mono": 0.0, "lip": 0.0, "conv": 0.0}
    for name, surf in surfaces:
        v, x = surf.values, surf.xnodes
        floor = G * np.exp(-0.03 * (15.0 - surf.tnodes))[:, None]
        worst["floor"] = min(worst["floor"], float((v - floor).min()))
        worst["reward"] = min(worst["reward"], float((v - surf.obstacle).min()))
        worst["cap"] = min(worst["cap"], float((G + 4.0 * x[None, :] - v).min()))
        dv = np.diff(v, axis=1)
        worst["mono"] = min(worst["mono"], float(dv.min()))
        slopes = dv / np.diff(x)[None, :]
        worst["lip"] = max(worst["lip"], float(slopes.max()))
        worst["conv"] = min(worst["conv"], float(np.diff(slopes, axis=1).min()))
    ok = (
        worst["floor"] >= -eps_bound
        and worst["reward"] >= -1e-12 * G
        and worst["cap"] >= 0.0
        and worst["mono"] >= -eps_bound
        and worst["lip"] <= 1.0 + 1e-9
        and worst["conv"] >= -eps_conv
    )
    _verdict(7, "value-function property suite",
             ok,
             f"floor gap>={worst['floor']:.1e}, v-reward>={worst['reward']:.1e}, "
             f"cap slack>={worst['cap']:.1e}, monotone>={worst['mono']:.1e}, "
             f"max slope={worst['lip']:.10f}, convexity>={worst['conv']:.1e}")


def test_criterion_08_bermudan_convergence(c1_study):
    d = c1_study.deltas
    ok = c1_study.deltas_decreasing and len(d) == 2
    _verdict(8, "exercise-date refinement convergence",
             ok,
             f"values at N=180/360/720: {[f'{v:.5f}' for v in c1_study.values]}; "
             f"deltas {d[0]:.2e} -> {d[1]:.2e} strictly decreasing={c1_study.deltas_decreasing}")


def test_criterion_09_monte_carlo_sandwich(c1_scn, c2_scn, c1_lattice, c2_lattice,
                                           mc_c1_batch, mc_c2_batch):
    results = {}
    for label, scn, bundle, batch in (
        ("c1", c1_scn, c1_lattice, mc_c1_batch),
        ("c2", c2_scn, c2_lattice, mc_c2_batch),
    ):
        h0 = float(vs.maturity_benefit_value(scn, 0.0, scn.contract.F0))
        i0 = center_index(bundle["disc"].xnodes, scn.contract.F0)
        v0 = float(bundle["disc"].values[0, i0])
        est = vs.mc_verify_estimates(batch, scn, bundle["boundary"], bundle["mask"])  # one pass
        mb, sv = est.maturity_benefit, est.boundary_strategy
        results[label] = {
            "mb_ok": abs(mb.estimate - h0) <= 3.0 * mb.std_error,
            "sandwich_ok": h0 - 3.0 * sv.std_error <= sv.estimate <= v0 + 3.0 * sv.std_error,
            "detail": (f"strategy={sv.estimate:.4f}±{sv.std_error:.4f} in "
                       f"[h-3se={h0 - 3 * sv.std_error:.4f}, v+3se={v0 + 3 * sv.std_error:.4f}]; "
                       f"mb z={(mb.estimate - h0) / mb.std_error:+.2f}"),
        }
    ok = all(r["mb_ok"] and r["sandwich_ok"] for r in results.values())
    _verdict(9, "Monte Carlo lower-bound sandwich (1e6 paths)",
             ok,
             "; ".join(f"{k}: {r['detail']}" for k, r in results.items()))


def test_criterion_10_smooth_fit_refinement(c1_scn):
    jumps = {}
    for M in (BENCH_M, 2 * BENCH_M - 1):  # nested log grids halve the spacing
        pgrid = vs.build_pde_grid(c1_scn, BENCH_N, M, 8.0)
        surf = vs.solve_variational_inequality(c1_scn, pgrid)
        mask = vs.extract_regions(surf, c1_scn)
        boundary = vs.extract_boundary(mask, surf)
        rep = vs.smooth_fit_diagnostic(surf, boundary, times=[2.0, 12.0])
        jumps[M] = rep.jump
    ratios = jumps[BENCH_M] / jumps[2 * BENCH_M - 1]
    ok = bool(np.all(ratios >= 1.5))
    _verdict(10, "smooth-fit slope-jump refinement",
             ok,
             f"jump ratios coarse/fine at t=2,12: {ratios.round(2).tolist()} (need >= 1.5)")
