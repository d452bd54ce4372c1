"""The benchmark workloads: their inputs, the timed program calls, and the gates.

Each workload builds its inputs once (``__init__``), runs the program in
``run(seed)`` (the timed part) and checks the outputs in ``check`` (untimed).
The workload seed feeds only the Monte Carlo seeds. Gates use the acceptance
tolerances of the test suite; with 2^16 paths a z-score of 5 never fails by
chance in practice (two-sided tail 6e-7 per test).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil

import vastop  # noqa: F401  (applies VASTOP_THREADS before numpy loads)
from vastop import analytic, cli, decompose, lattice, mc, pde, presets, region
from vastop.model import scenario_to_dict
from vastop.surfaces import center_index

SIZES = {
    # production resolution of the acceptance suite and the ROADMAP
    "prod": {"N": 360, "M": 401, "mult": 8.0, "wide_mult": 30.0,
             "cli_paths": 100_000, "mc_paths": 1 << 16},
    # for the self-test and the warm-up: same code paths, well under a second
    # per iteration; the coarsest grid on which every gate holds (at N=30 the
    # low-charge lattice-PDE gap is 1.6e-3, from too few exercise dates)
    "tiny": {"N": 60, "M": 101, "mult": 8.0, "wide_mult": 30.0,
             "cli_paths": 1 << 14, "mc_paths": 1 << 14},
}

REFERENCE_SEED = 0
XSOLVER_REL_TOL = 1e-3      # criterion 05
CLOSED_FORM_REL_TOL = 2e-3  # criterion 04
DECOMPOSE_MEAN_TOL = 5e-3   # criterion 06, in units of G
REPRESENTATION_TOL = 1e-10  # criterion 03, in units of G
Z_TOL = 5.0


def mc_seed(seed: int, k: int) -> int:
    """Philox key of the k-th batch; seed 0 gives the acceptance suite's keys."""
    return 20_240_901 + k + 1000 * seed


def bp(diff: float, G: float) -> float:
    return abs(diff) / G * 1e4


class Check:
    """Outcome of one iteration: failed gates, gated values, reported metrics."""

    def __init__(self):
        self.failures: list[str] = []
        self.values: dict[str, float] = {}            # deterministic, drift-gated
        self.mc: dict[str, tuple[float, float]] = {}  # estimate, std error
        self.metrics: dict[str, float] = {}
        self.digests: dict[str, str] = {}

    def gate(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def sandwich(self, label: str, h0: float, v0: float, mb, sv) -> float:
        """Criterion-09 checks in se units; returns the largest z."""
        z_mb = abs(mb[0] - h0) / mb[1]
        excess = max((sv[0] - v0) / sv[1], (h0 - sv[0]) / sv[1])
        z = max(z_mb, excess)
        self.gate(z <= Z_TOL, f"{label}: MC z {z:.2f} > {Z_TOL} (mb z {z_mb:.2f}, "
                              f"sandwich excess {excess:.2f})")
        return z

    def against(self, ref: dict | None, seed: int, G: float) -> None:
        """Compare with the values recorded for this size at the reference seed."""
        if ref is None:
            return
        drift = 0.0
        for key, v in self.values.items():
            r = ref["values"][key]
            drift = max(drift, bp(v - r, G))
            self.gate(abs(v - r) <= XSOLVER_REL_TOL * abs(r),
                      f"{key}={v!r} drifted from the recorded {r!r}")
        self.metrics["ref_drift_bp"] = drift
        zmax = 0.0
        for key, (est, se) in self.mc.items():
            r_est, r_se = ref["mc"][key]
            z = abs(est - r_est) / math.hypot(se, r_se)
            zmax = max(zmax, z)
            self.gate(z <= Z_TOL, f"{key}={est!r} is {z:.2f} se from the recorded {r_est!r}")
        self.metrics["mc_ref_z"] = zmax
        if self.digests and "digests" in ref:
            seeded = set(ref["seeded_files"])
            recorded = {k: v for k, v in ref["digests"].items()
                        if seed == ref["seed"] or k not in seeded}
            mine = {k: v for k, v in self.digests.items() if k in recorded or k not in seeded}
            self.metrics["files_changed"] = sum(
                1 for k in set(recorded) | set(mine) if recorded.get(k) != mine.get(k))


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _v0(surface, scn) -> float:
    return float(surface.values[0, center_index(surface.xnodes, scn.contract.F0)])


class CliProd:
    """`vastop run` on the full_pipeline_demo c1 scenario, all 8 tasks."""

    name = "cli-prod"

    def __init__(self, size: str, workdir: str):
        p = SIZES[size]
        self.scn = presets.benchmark_scenario("c1")
        doc = {
            "scenario": scenario_to_dict(self.scn),
            "tasks": list(cli.TASKS),
            "grid": {"N": p["N"], "M": p["M"], "xmax_mult": p["mult"]},
            "mc": {"npaths": p["cli_paths"]},
        }
        os.makedirs(workdir, exist_ok=True)
        self.config = os.path.join(workdir, "cli-prod.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.out = os.path.join(workdir, "cli-out")

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self, seed: int):
        return cli.main(["run", self.config, "--out", self.out, "--seed", str(mc_seed(seed, 0))])

    def check(self, rc, seed: int, ref: dict | None) -> Check:
        ck = Check()
        ck.gate(rc == 0, f"vastop run exited {rc}")
        if rc != 0:
            return ck
        G = self.scn.contract.G
        with open(os.path.join(self.out, "summary.json"), encoding="utf-8") as fh:
            res = json.load(fh)["results"]
        lat, pv = res["lattice_value_at_inception"], res["pde_value_at_inception"]
        h0 = res["maturity_benefit_value_at_inception"]
        ck.values.update({"c1.lattice_v0": lat, "c1.pde_v0": pv})
        ck.gate(abs(lat - pv) <= XSOLVER_REL_TOL * pv, f"lattice {lat} vs pde {pv}")
        ck.metrics["xsolver_gap_bp"] = bp(lat - pv, G)
        dec = res["decompose"]
        for key in ("mean_abs_res_he", "mean_abs_res_phif"):
            ck.values[f"c1.decompose.{key}"] = dec[key]
            ck.gate(dec[key] <= DECOMPOSE_MEAN_TOL * G, f"decompose {key}={dec[key]}")
        est = {k: (v["estimate"], v["std_error"]) for k, v in res["mc"].items()}
        ck.mc.update({f"c1.{k}": v for k, v in est.items()})
        ck.metrics["mc_max_z"] = ck.sandwich(
            "c1", h0, lat, est["maturity_benefit"], est["boundary_strategy_value"])
        for fname in sorted(os.listdir(self.out)):
            if fname.endswith(".csv"):
                ck.digests[fname] = _sha256(os.path.join(self.out, fname))
        ck.against(ref, seed, G)
        return ck


class SolveGrid:
    """Both solvers, regions, boundary and decomposition as library calls."""

    name = "solve-grid"

    def __init__(self, size: str, workdir: str):
        p = SIZES[size]
        self.N, self.M = p["N"], p["M"]
        self.scenarios = {
            "c1": (presets.benchmark_scenario("c1"), p["mult"]),
            "c2": (presets.benchmark_scenario("c2"), p["mult"]),
            "low-charge": (presets.low_charge_scenario(), p["mult"]),
            "kc": (presets.matched_exponential_scenario(0.01), p["wide_mult"]),
        }

    def prepare(self) -> None:
        pass

    def run(self, seed: int) -> dict:
        out = {}
        for label, (scn, mult) in self.scenarios.items():
            grid = lattice.build_chain(scn, self.N, self.M, mult)
            disc = lattice.bermudan_value(grid, scn, "discontinuous")
            cont = lattice.bermudan_value(grid, scn, "continuous")
            surf = pde.solve_variational_inequality(
                scn, pde.build_pde_grid(scn, self.N, self.M, mult))
            mask = region.extract_regions(disc, scn)
            mask_ex = region.extract_regions(disc, scn, mode="exercise")
            boundary = region.extract_boundary(mask, disc)
            out[label] = (disc, cont, surf, mask_ex, boundary)
        disc, _, _, _, boundary = out["c1"]
        out["decompose"] = decompose.decomposition_residuals(
            disc, self.scenarios["c1"][0], boundary)
        return out

    def check(self, out: dict, seed: int, ref: dict | None) -> Check:
        ck = Check()
        gap = 0.0
        for label, (scn, _) in self.scenarios.items():
            G = scn.contract.G
            disc, cont, surf, mask_ex, _ = out[label]
            lat, pv = _v0(disc, scn), _v0(surf, scn)
            ck.values.update({f"{label}.lattice_v0": lat, f"{label}.pde_v0": pv})
            ck.gate(abs(lat - pv) <= XSOLVER_REL_TOL * pv, f"{label}: lattice {lat} vs pde {pv}")
            gap = max(gap, bp(lat - pv, G))
            rep_gap = float(abs(disc.values - cont.values).max())
            ck.gate(rep_gap <= REPRESENTATION_TOL * G,
                    f"{label}: reward representations differ by {rep_gap}")
            if label == "kc":
                h0 = float(analytic.maturity_benefit_value(scn, 0.0, scn.contract.F0))
                err = max(abs(lat - h0), abs(pv - h0))
                ck.gate(err <= CLOSED_FORM_REL_TOL * h0, f"kc: |v - h| = {err} at inception")
                ck.gate(not mask_ex.in_surrender.any(), "kc: surrender region is not empty")
                ck.metrics["closed_form_err_bp"] = bp(err, G)
        ck.metrics["xsolver_gap_bp"] = gap
        rep = out["decompose"]
        G = self.scenarios["c1"][0].contract.G
        for key in ("mean_abs_res_he", "mean_abs_res_phif"):
            ck.values[f"c1.decompose.{key}"] = getattr(rep, key)
            ck.gate(getattr(rep, key) <= DECOMPOSE_MEAN_TOL * G,
                    f"decompose c1 {key}={getattr(rep, key)}")
        ck.against(ref, seed, G)
        return ck


class McVerify:
    """Lattice boundary and mask, then the three MC estimators, for c1 and c2."""

    name = "mc-verify"

    def __init__(self, size: str, workdir: str):
        p = SIZES[size]
        self.N, self.M, self.mult, self.npaths = p["N"], p["M"], p["mult"], p["mc_paths"]
        self.scenarios = {label: presets.benchmark_scenario(label) for label in ("c1", "c2")}

    def prepare(self) -> None:
        pass

    def run(self, seed: int) -> dict:
        out = {}
        for k, (label, scn) in enumerate(self.scenarios.items()):
            disc = lattice.bermudan_value(lattice.build_chain(scn, self.N, self.M, self.mult), scn)
            mask = region.extract_regions(disc, scn)
            boundary = region.extract_boundary(mask, disc)
            batch = mc.simulate_paths(scn, mc_seed(seed, k), self.npaths, self.N)
            out[label] = (
                disc,
                mc.mc_maturity_benefit(batch, scn),
                mc.mc_boundary_strategy_value(batch, scn, boundary),
                mc.mc_premium_integrals(batch, scn, mask),
            )
        return out

    def check(self, out: dict, seed: int, ref: dict | None) -> Check:
        ck = Check()
        zmax = 0.0
        for label, scn in self.scenarios.items():
            G = scn.contract.G
            disc, mb, sv, prem = out[label]
            v0 = _v0(disc, scn)
            h0 = float(analytic.maturity_benefit_value(scn, 0.0, scn.contract.F0))
            ck.values[f"{label}.lattice_v0"] = v0
            ck.mc.update({
                f"{label}.maturity_benefit": (mb.estimate, mb.std_error),
                f"{label}.boundary_strategy_value": (sv.estimate, sv.std_error),
                f"{label}.surrender_premium": (prem.e_estimate, prem.e_std_error),
                f"{label}.continuation_premium": (prem.f_estimate, prem.f_std_error),
            })
            zmax = max(zmax, ck.sandwich(label, h0, v0, ck.mc[f"{label}.maturity_benefit"],
                                         ck.mc[f"{label}.boundary_strategy_value"]))
        ck.metrics["mc_max_z"] = zmax
        ck.against(ref, seed, G)
        return ck


WORKLOADS = {w.name: w for w in (CliProd, SolveGrid, McVerify)}
