"""Config-driven batch entry point.

``vastop run <config> [--out DIR] [--seed N] [--grid-N n --grid-M m]`` loads a
scenario plus run plan from a single JSON document, executes the requested
tasks in dependency order, and writes CSV artifacts plus a machine-readable
summary. Exit codes: 0 success, 1 solver failure, 2 config error. Re-running
with an identical config and seed reproduces byte-identical CSVs. The
environment variable VASTOP_THREADS caps BLAS worker pools and sets the number
of Monte Carlo chunk workers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from ._threads import thread_count
from .model import ConfigError

TASKS = (
    "check-L",
    "price-lattice",
    "price-pde",
    "regions",
    "boundary",
    "decompose",
    "mc-verify",
    "paper-fig",
)

_GRID_DEFAULTS = {"N": 360, "M": 401, "xmax_mult": 8.0}
_PDE_DEFAULTS = {"theta": 0.5, "tol": None, "max_iter": 10_000}
_MC_DEFAULTS = {"npaths": 100_000, "nsteps": None, "seed": 20_240_901, "scheme": "exact-lognormal"}
_REGION_DEFAULTS = {"tol_abs": None, "tol_rel": 1e-6}


@dataclass
class RunPlan:
    scenario_doc: dict
    tasks: tuple[str, ...]
    grid: dict
    pde: dict
    mc: dict
    region: dict
    out_dir: str


def _check_range(section: str, key: str, value, lo, hi) -> None:
    if not (lo <= value <= hi):
        raise ConfigError(f"{section}.{key} must lie in [{lo}, {hi}]")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A JSON number other than a bool that converts to a finite float."""
    try:
        return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _merge_section(doc: dict, name: str, defaults: dict) -> dict:
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = set(sec) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown key {name}.{sorted(unknown)[0]}")
    merged = dict(defaults)
    merged.update(sec)
    return merged


def load_plan(doc: dict, args) -> RunPlan:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    known = {"scenario", "tasks", "grid", "pde", "mc", "region", "out"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in config")
    if "scenario" not in doc:
        raise ConfigError("missing section 'scenario'")
    tasks = doc.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("tasks must be a non-empty array")
    for t in tasks:
        if t not in TASKS:
            raise ConfigError(f"tasks: unknown task {t!r} (choose from {', '.join(TASKS)})")
    grid = _merge_section(doc, "grid", _GRID_DEFAULTS)
    pde = _merge_section(doc, "pde", _PDE_DEFAULTS)
    mc = _merge_section(doc, "mc", _MC_DEFAULTS)
    region = _merge_section(doc, "region", _REGION_DEFAULTS)
    if args.grid_N is not None:
        grid["N"] = args.grid_N
    if args.grid_M is not None:
        grid["M"] = args.grid_M
    if args.seed is not None:
        mc["seed"] = args.seed
    if not _is_int(mc["seed"]) or not 0 <= mc["seed"] < 2**128:
        raise ConfigError("mc.seed must be an integer in [0, 2**128)")
    if not _is_int(mc["npaths"]):
        raise ConfigError("mc.npaths must be an integer")
    if mc["nsteps"] is not None and not _is_int(mc["nsteps"]):
        raise ConfigError("mc.nsteps must be an integer or null")
    grid["N"] = int(grid["N"])
    grid["M"] = int(grid["M"])
    grid["xmax_mult"] = float(grid["xmax_mult"])
    _check_range("grid", "N", grid["N"], 1, 100_000)
    _check_range("grid", "M", grid["M"], 3, 100_000)
    _check_range("grid", "xmax_mult", grid["xmax_mult"], 1.0 + 1e-9, 1e6)
    if not (_is_real(pde["theta"]) and 0.5 <= pde["theta"] <= 1.0):
        raise ConfigError("pde.theta must be a number in [0.5, 1]")
    if pde["tol"] is not None and not (_is_real(pde["tol"]) and pde["tol"] > 0):
        raise ConfigError("pde.tol must be null or a finite number above 0")
    if not (_is_int(pde["max_iter"]) and pde["max_iter"] >= 1):
        raise ConfigError("pde.max_iter must be an integer of at least 1")
    if mc["nsteps"] is None:
        mc["nsteps"] = grid["N"]
    _check_range("mc", "npaths", mc["npaths"], 1, 1_000_000_000)
    if mc["scheme"] not in ("exact-lognormal", "euler"):
        raise ConfigError("mc.scheme must be 'exact-lognormal' or 'euler'")
    out_dir = args.out or doc.get("out") or "vastop-out"
    return RunPlan(
        scenario_doc=doc["scenario"],
        tasks=tuple(tasks),
        grid=grid,
        pde=pde,
        mc=mc,
        region=region,
        out_dir=str(out_dir),
    )


def _ordered_tasks(requested: tuple[str, ...]) -> list[str]:
    """Fixed dependency order, with prerequisites pulled in implicitly."""
    need = set(requested)
    if "mc-verify" in need or "decompose" in need:
        need.add("boundary")
    if "boundary" in need:
        need.add("regions")
    if "regions" in need and not ({"price-lattice", "price-pde"} & need):
        need.add("price-lattice")
    return [t for t in TASKS if t in need]


def run_plan(plan: RunPlan) -> dict:
    """Execute the plan; returns the summary document."""
    # heavyweight imports deferred so `vastop run --help` stays snappy
    import numpy as np

    from . import io as csvio
    from .analytic import maturity_benefit_value, never_surrender_check
    from .decompose import decomposition_residuals
    from .lattice import bermudan_value, build_chain
    from .mc import mc_verify_estimates, simulate_paths
    from .model import L_value, scenario_from_dict, scenario_to_dict
    from .pde import build_pde_grid, solve_variational_inequality
    from .presets import benchmark_scenario
    from .region import classify_sections, extract_boundary, extract_regions
    from .surfaces import center_index, time_nodes

    scn = scenario_from_dict(plan.scenario_doc)
    os.makedirs(plan.out_dir, exist_ok=True)
    tasks = _ordered_tasks(plan.tasks)
    N, M, mult = plan.grid["N"], plan.grid["M"], plan.grid["xmax_mult"]
    summary: dict = {
        "config": {
            "scenario": scenario_to_dict(scn),
            "tasks": list(tasks),
            "grid": plan.grid,
            "pde": dict(plan.pde),
            "mc": dict(plan.mc),
            "region": dict(plan.region),
            "out": plan.out_dir,
        },
        "artifacts": [],
        "results": {},
    }

    def emit(name: str, writer, *args) -> None:
        path = os.path.join(plan.out_dir, name)
        writer(path, *args)
        summary["artifacts"].append(name)

    surfaces: dict[str, object] = {}
    masks: dict[str, object] = {}
    boundaries: dict[str, object] = {}
    chains: dict[tuple, object] = {}

    def chain(s):
        # paper-fig reuses the chain price-lattice built when its benchmark
        # scenario equals the run's (exact dataclass equality)
        key = (s, N, M, mult)
        if key not in chains:
            chains[key] = build_chain(s, N, M, mult)
        return chains[key]

    tnodes = time_nodes(scn, N)
    if "check-L" in tasks or scn.is_time_only:
        never_surrender = never_surrender_check(
            scn, tnodes[:-1], np.linspace(scn.contract.F0 / 4, scn.contract.F0 * 4, 41)
        )
    if "check-L" in tasks:
        dates = tnodes[:-1]
        L = [float(L_value(scn, float(t), scn.contract.F0)) for t in dates]
        pred = classify_sections(scn, dates) if scn.is_time_only else ["n/a"] * dates.size
        emit("check_L.csv", csvio.write_check_l_csv, dates, L, pred)
        summary["results"]["never_surrender_holds"] = bool(never_surrender.holds)
        summary["results"]["min_L"] = never_surrender.min_L

    if "price-lattice" in tasks:
        surf = bermudan_value(chain(scn), scn, "discontinuous")
        surfaces["lattice"] = surf
        i0 = center_index(surf.xnodes, scn.contract.F0)
        summary["results"]["lattice_value_at_inception"] = float(surf.values[0, i0])

    if "price-pde" in tasks:
        pgrid = build_pde_grid(
            scn, N, M, mult,
            theta=float(plan.pde["theta"]),
            tol=plan.pde["tol"],
            max_iter=plan.pde["max_iter"],
        )
        surf = solve_variational_inequality(scn, pgrid)
        surfaces["pde"] = surf
        i0 = center_index(surf.xnodes, scn.contract.F0)
        summary["results"]["pde_value_at_inception"] = float(surf.values[0, i0])

    if scn.is_time_only:
        h0 = float(maturity_benefit_value(scn, 0.0, scn.contract.F0))
        summary["results"]["maturity_benefit_value_at_inception"] = h0
        if never_surrender.holds and surfaces:
            gaps = {}
            for name, surf in surfaces.items():
                hline = np.stack(
                    [np.asarray(maturity_benefit_value(scn, float(t), surf.xnodes)) for t in surf.tnodes]
                )
                gaps[name] = float(np.max(np.abs(surf.values - hline) / np.maximum(hline, 1e-12)))
            summary["results"]["max_rel_gap_vs_maturity_benefit"] = gaps
            summary["results"]["surrender_region_empty_expected"] = True

    if "regions" in tasks:
        for name, surf in surfaces.items():
            mask = extract_regions(
                surf, scn, tol_abs=plan.region["tol_abs"], tol_rel=float(plan.region["tol_rel"])
            )
            masks[name] = mask
            emit(f"region_{name}.csv", csvio.write_surface_csv, surf, mask)
            empty = [float(t) for t, row in zip(mask.tnodes[:-1], mask.in_surrender) if not row.any()]
            summary["results"][f"empty_slices_{name}"] = len(empty)
            summary["results"][f"surrender_nodes_{name}"] = int(mask.in_surrender.sum())
            if scn.is_time_only:
                ex = extract_regions(
                    surf, scn, tol_abs=plan.region["tol_abs"],
                    tol_rel=float(plan.region["tol_rel"]), mode="exercise",
                )
                summary["results"][f"surrender_nodes_exercise_{name}"] = int(ex.in_surrender.sum())
    elif surfaces:
        for name, surf in surfaces.items():
            emit(f"surface_{name}.csv", csvio.write_surface_csv, surf)

    if "boundary" in tasks:
        for name, mask in masks.items():
            boundary = extract_boundary(mask, surfaces[name])
            boundaries[name] = boundary
            emit(f"boundary_{name}.csv", csvio.write_boundary_csv, boundary)

    if "decompose" in tasks:
        name = "lattice" if "lattice" in boundaries else "pde"
        report = decomposition_residuals(surfaces[name], scn, boundaries[name])
        emit("decompose.csv", csvio.write_report_csv, report, surfaces[name])
        summary["results"]["decompose"] = {
            "surface": name,
            "mean_abs_res_he": report.mean_abs_res_he,
            "mean_abs_res_phif": report.mean_abs_res_phif,
            "max_abs_res_he": report.max_abs_res_he,
            "max_abs_res_phif": report.max_abs_res_phif,
        }

    if "mc-verify" in tasks:
        name = "lattice" if "lattice" in boundaries else "pde"
        batch = simulate_paths(
            scn, plan.mc["seed"], plan.mc["npaths"], plan.mc["nsteps"], plan.mc["scheme"]
        )
        res = mc_verify_estimates(
            batch, scn, boundaries[name], masks[name] if scn.is_time_only else None
        )
        rows = []
        for label, est in (("maturity_benefit", res.maturity_benefit),
                           ("boundary_strategy_value", res.boundary_strategy)):
            rows.append((label, est.estimate, est.std_error, est.npaths, est.seed))
        prem = res.premiums
        if prem is not None:
            rows.append(("surrender_premium", prem.e_estimate, prem.e_std_error, prem.npaths, prem.seed))
            rows.append(("continuation_premium", prem.f_estimate, prem.f_std_error, prem.npaths, prem.seed))
        emit("estimates.csv", csvio.write_estimates_csv, rows)
        summary["results"]["mc"] = {name: {"estimate": e, "std_error": s} for name, e, s, _, _ in rows}

    if "paper-fig" in tasks:
        for label, panel_pair in (("c1", ("a", "b")), ("c2", ("c", "d"))):
            bscn = benchmark_scenario(label)
            bgrid = chain(bscn)
            for kind, panel in zip(("discontinuous", "continuous"), panel_pair):
                surf = bermudan_value(bgrid, bscn, kind)
                mode = "exercise" if kind == "continuous" else "value-gap"
                mask = extract_regions(surf, bscn, mode=mode)
                emit(f"fig_panel_{panel}_{label}_{kind}.csv", csvio.write_surface_csv, surf, mask)

    with open(os.path.join(plan.out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vastop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a config-driven valuation run")
    runp.add_argument("config", help="path to the JSON run configuration")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--seed", type=int, default=None, help="Monte Carlo seed override")
    runp.add_argument("--grid-N", type=int, default=None, dest="grid_N", help="time steps override")
    runp.add_argument("--grid-M", type=int, default=None, dest="grid_M", help="state nodes override")
    args = parser.parse_args(argv)

    try:
        thread_count()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON at line {exc.lineno}: {exc.msg}", file=sys.stderr)
        return 2

    try:
        plan = load_plan(doc, args)
        run_plan(plan)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver or runtime failure
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
