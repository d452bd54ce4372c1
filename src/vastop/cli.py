"""Config-driven batch entry point.

``vastop run <config> [--out DIR] [--seed N] [--grid-N n --grid-M m]`` loads a
scenario plus run settings from a single JSON document, runs the requested tasks
and their prerequisites in the order of one task table, `_TABLE`, and writes
CSV artifacts plus a machine-readable summary. `_Run` checks the document and
holds what its tasks share. One checker,
`model.checked_section`, checks every key of the document against a table in
one rule format: the grid and mc sections, overrides included, against
`_RULES`, the scenario against `model._SCENARIO_RULES`. Solver settings are not
keys: the PDE is Crank-Nicolson with the scheme constants of `pde.PdeGrid` and
the tolerance `pde.build_pde_grid` derives from G, regions use
`region.extract_regions`' fixed tolerances, and paths take exact lognormal
steps. Exit codes: 0 success, 1 solver failure (a NaN or infinite result is
one, and no summary.json is then written), running out of memory on a grid
under the budget (one line, no summary.json) or internal error (any other
exception, printed with its traceback), 2 config error (naming
`<section>.<key>` when one key is at fault; an `out` that cannot be created or
written is one too, and so is a grid on which a task's largest arrays would
exceed `MEMORY_BUDGET`, refused before any work).
Re-running with an identical config and seed reproduces byte-identical CSVs.
BLAS runs on one thread (`_threads.pin_blas`); one worker per CPU the process
may run on (`taskset` limits them) builds and reduces Monte Carlo chunks and
evaluates decomposition time slices, bit-identically for any worker count.
A run writes each CSV in a child process forked at its emit
(`_threads.ForkedCalls`) while its later tasks compute; the child reads the
artifact from the memory it shares with the run, so nothing is copied to it.
The writes run side by side, and a failed write stops none of the others. The
run waits for its writes before it writes summary.json and on every error, so
no process outlives it, and then reports the first failed write. summary.json
records the seconds of each task and of that wait under `timings`, and, under
`diagnostics`, the solver checks every task but check-L computes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import os
import sys
import time
import traceback

import numpy as np

from . import analytic, decompose, lattice, mc, model, pde, presets, region, surfaces
from . import io as csvio
from ._threads import ForkedCalls, worker_count
from .model import ConfigError

# section -> key -> (default, type, allowed), the rule format of the scenario
# table `model._SCENARIO_RULES`
_RULES = {
    "grid": {
        "N": (360, int, f"[1, {surfaces.MAX_STEPS}]"),
        "M": (401, int, "[3, 100000]"),
        "xmax_mult": (8.0, float, "(1, 1e6]"),
    },
    "mc": {
        "npaths": (100_000, int, "[1, 1e9]"),
        "seed": (20_240_901, int, "[0, 2**128)"),
    },
}


# paper-fig's benchmark scenarios by fee label, with their two panels
_FIGURE = {"c1": ("a", "b"), "c2": ("c", "d")}


# Every task's largest arrays must fit in this many bytes: a run whose grid
# needs more is refused before any work (see _largest_arrays).
MEMORY_BUDGET = 2 << 30


def _largest_arrays(task: str, N: int, M: int, matrices: int, paths: int) -> int:
    """Bytes of the largest float64 arrays task holds at once on an N x M grid,
    with matrices transition matrices in the chains it builds and keeps, and
    paths Monte Carlo paths; 0 for a task that holds O(N) floats."""
    surface = 2 * (N + 1) * M  # values and obstacle
    # scipy's Pade workspace (5 M x M), the generator step, a squaring's product
    # and its mask, and the kept matrices
    chains = (8 + matrices) * M * M
    floats = {
        "price-lattice": chains + surface,
        "price-pde": surface,
        "regions": 3 * (N + 1) * M,
        # the report's 5 arrays and 2 of their absolute values, the log(x / K)
        # table, and two column blocks of 3N rows on each pool worker
        "decompose": 7 * (N + 1) * M + N * M
        + 6 * N * min(M, decompose.BLOCK_NODES + 3) * worker_count(N + 1),
        # a few blocks of paths on each pool worker
        "mc-verify": 5 * mc.BLOCK_ROWS * (N + 1) * worker_count(-(-paths // mc.CHUNK_PATHS)),
        # the chains of c1 and c2 and the four surfaces of the panels
        "paper-fig": chains + 4 * surface,
    }
    return 8 * floats.get(task, 0)


def _largest_fit(fits, lo: int, hi: int) -> int:
    """The largest n in [lo, hi] with fits(n), for fits true at lo and false at hi."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def _matrix_keys(scn, grid: dict, fee: str) -> set:
    """The memo keys of the distinct transition matrices of scn's chain on grid
    (`lattice.chain_steps`). A grid.N that misses a breakpoint of scn's fee is
    refused naming fee, the owner of that fee."""
    try:
        *_, keys = lattice.chain_steps(scn, grid["N"], grid["M"], grid["xmax_mult"])
    except ConfigError as exc:  # time_nodes names the run's own fee, scenario.fee
        raise ConfigError(str(exc).replace("scenario.fee", fee)) from None
    return set(keys.values())


def _check_memory(tasks, scn, grid: dict, paths: int) -> None:
    """Refuse, with a ConfigError naming grid.M or grid.N and its largest value
    that fits, a grid on which a task's largest arrays exceed MEMORY_BUDGET.
    grid.M is named for the tasks that build chains, whose M x M matrices no
    grid.N makes smaller, grid.N for the others."""
    N, M = grid["N"], grid["M"]
    own = [_matrix_keys(scn, grid, "scenario.fee")] if "price-lattice" in tasks else []
    chains = {"price-lattice": own}
    if "paper-fig" in tasks:  # a run whose N misses the benchmark breakpoints stops here
        chains["paper-fig"] = [*own, *(_matrix_keys(presets.benchmark_scenario(label), grid,
                                                    f"paper-fig's {label} benchmark fee")
                                       for label in _FIGURE)]
    matrices = {task: len(set().union(*keys)) for task, keys in chains.items() if task in tasks}
    for task in tasks:
        def need(n: int, m: int) -> int:
            return _largest_arrays(task, n, m, matrices.get(task, 0), paths)

        if need(N, M) <= MEMORY_BUDGET:
            continue
        if task in matrices:
            key, value = "grid.M", M
            fit = _largest_fit(lambda m: need(N, m) <= MEMORY_BUDGET, 3, M)
        else:
            key, value = "grid.N", N
            fit = _largest_fit(lambda n: need(n, M) <= MEMORY_BUDGET, 1, N)
        raise ConfigError(
            f"{key} = {value} is too large: {task} would hold {need(N, M) / 2**30:.3g} GiB"
            f" of arrays, over the {MEMORY_BUDGET / 2**30:g} GiB budget; the largest"
            f" {key} that fits is {fit}")


@contextlib.contextmanager
def _writing(path: str):
    """Report an OSError raised while writing path as a config error: the
    run's out, not the program, is at fault (a directory or a read-only file
    where an output goes)."""
    try:
        yield path
    except OSError as exc:
        raise ConfigError(f"out: cannot write {path!r}: {exc.strerror}") from None


class _Run:
    """What the tasks of one run share: its checked document (scenario, tasks
    with their prerequisites, grid, mc and out), its time nodes, the summary,
    the products of earlier tasks, the run's memos (the chains and lattice
    surfaces built so far and the transition matrices of those chains) and its
    CSV writes. Each run starts with empty memos and writes of its own."""

    def __init__(self, doc: dict, args):
        """Check doc with the command-line overrides of args, then set up the run;
        ConfigError names the first key at fault, and a refused run creates no out."""
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        known = {"scenario", "tasks", *_RULES, "out"}
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
        overrides = {"grid": {"N": args.grid_N, "M": args.grid_M}, "mc": {"seed": args.seed}}
        sections = {}
        for name, rules in _RULES.items():
            given = doc.get(name, {})
            if isinstance(given, dict):
                given = {**given,
                         **{k: v for k, v in overrides.get(name, {}).items() if v is not None}}
            sections[name] = model.checked_section(name, given, rules)
        self.grid, self.mc = sections["grid"], sections["mc"]
        self.out_dir = args.out or doc.get("out") or "vastop-out"
        if not isinstance(self.out_dir, str):
            raise ConfigError("out must be a string")
        self.tasks = _closed(tasks)
        self.scn = scn = model.scenario_from_dict(doc["scenario"])
        self.summary: dict = {
            "config": {"scenario": model.scenario_to_dict(scn), "tasks": self.tasks,
                       **{name: dict(section) for name, section in sections.items()},
                       "out": self.out_dir},
            "artifacts": [],
            "results": {},
            "diagnostics": {},
        }
        self.results, self.diagnostics = self.summary["results"], self.summary["diagnostics"]
        self.tnodes = surfaces.time_nodes(scn, self.grid["N"])
        _check_memory(self.tasks, scn, self.grid, self.mc["npaths"])
        self.results["maturity_benefit_value_at_inception"] = float(
            analytic.maturity_benefit_value(scn, 0.0, scn.contract.F0))
        self.surfaces, self.masks, self.boundaries = {}, {}, {}
        self._chains, self._matrices, self._values = {}, {}, {}
        self.writes = ForkedCalls()
        # last, so that a run refused by a check above leaves no directory behind
        try:
            os.makedirs(self.out_dir, exist_ok=True)
        except OSError as exc:  # a file where the directory or one of its parents goes
            raise ConfigError(
                f"out: cannot create directory {self.out_dir!r}: {exc.strerror}") from None

    def emit(self, name: str, writer, *args) -> None:
        """Have writer write artifact name. orjson, which the writers use, is
        loaded here, so that each forked write finds it loaded."""
        path = os.path.join(self.out_dir, name)

        def write():
            with _writing(path):
                writer(path, *args)

        importlib.import_module("orjson")
        self.writes.submit(write)
        self.summary["artifacts"].append(name)

    def chain(self, scn):
        """The chain of scn on the run's grid, built once: paper-fig reuses the one
        price-lattice built when its benchmark scenario equals the run's. Chains
        share the transition matrices of steps with the same coefficients."""
        if scn not in self._chains:
            grid = self.grid
            self._chains[scn] = lattice.build_chain(scn, grid["N"], grid["M"], grid["xmax_mult"],
                                                    self._matrices)
        return self._chains[scn]

    def value(self, scn, kind: str):
        """The lattice surface of scn for reward kind on the run's chain, priced once:
        paper-fig's panel a is price-lattice's surface when the run's scenario is c1."""
        if (scn, kind) not in self._values:
            self._values[scn, kind] = lattice.bermudan_value(self.chain(scn), scn, kind)
        return self._values[scn, kind]

    @functools.cached_property
    def never_surrender(self):
        """L >= 0 on the run's dates, checked on first use."""
        return analytic.never_surrender_check(self.scn, self.tnodes[:-1])

    def priced(self, name: str, surf) -> None:
        """Keep a priced surface and report its value at inception. Write it out when
        no regions task will, and where waiting is optimal report its largest gap
        to the maturity benefit."""
        scn = self.scn
        self.surfaces[name] = surf
        i0 = surfaces.center_index(surf.xnodes, scn.contract.F0)
        self.results[f"{name}_value_at_inception"] = float(surf.values[0, i0])
        if "regions" not in self.tasks:
            self.emit(f"surface_{name}.csv", csvio.write_surface_csv, surf)
        if self.never_surrender.holds:
            hline = analytic.maturity_benefit_value(scn, surf.tnodes, surf.xnodes)
            # h >= G e^{-r (T - t)} > 0: an absolute floor would make the gap depend on G's scale
            gap = float(np.max(np.abs(surf.values - hline) / hline))
            self.results.setdefault("max_rel_gap_vs_maturity_benefit", {})[name] = gap
            self.results["surrender_region_empty_expected"] = True

    @property
    def checked(self) -> str:
        """The surface decompose and mc-verify check: the lattice's when it was priced."""
        return "lattice" if "lattice" in self.boundaries else "pde"


def _check_l(run: _Run) -> None:
    scn, dates, check = run.scn, run.tnodes[:-1], run.never_surrender
    L = model.L_value(scn, dates)
    run.emit("check_L.csv", csvio.write_check_l_csv, dates, L, region.classify_sections(scn, dates))
    run.results["never_surrender_holds"] = bool(check.holds)
    run.results["min_L"] = check.min_L


def _matrix_checks(chain) -> list[dict]:
    """The checks build_chain made on each distinct transition matrix of chain,
    with the fee rate of its steps."""
    return [{"fee": c, **check} for c, check in chain.checks.items()]


def _price_lattice(run: _Run) -> None:
    run.priced("lattice", run.value(run.scn, "discontinuous"))
    run.diagnostics["price-lattice"] = {"transition_matrices": _matrix_checks(run.chain(run.scn))}


def _price_pde(run: _Run) -> None:
    grid = pde.build_pde_grid(run.scn, **run.grid)
    surf = pde.solve_variational_inequality(run.scn, grid)
    run.diagnostics["price-pde"] = {key: surf.metadata[key] for key in (
        "psor_max_iterations", "complementarity_free_max", "complementarity_active_min")}
    run.priced("pde", surf)


def _regions(run: _Run) -> None:
    dates = run.tnodes[:-1]
    predicted_empty = region.classify_sections(run.scn, dates) == "empty"
    mismatches = run.diagnostics["regions"] = {}
    for name, surf in run.surfaces.items():
        mask = region.extract_regions(surf, run.scn)
        run.masks[name] = mask
        run.emit(f"region_{name}.csv", csvio.write_surface_csv, surf, mask)
        run.results[f"empty_slices_{name}"] = int((~mask.in_surrender.any(axis=1)).sum())
        run.results[f"surrender_nodes_{name}"] = int(mask.in_surrender.sum())
        ex = region.extract_regions(surf, run.scn, mode="exercise")
        run.results[f"surrender_nodes_exercise_{name}"] = int(ex.in_surrender.sum())
        # the dates where the sign of L and the solved exercise-mode emptiness disagree
        solved_empty = ~ex.in_surrender.any(axis=1)
        mismatches[f"sign_mismatch_dates_{name}"] = dates[solved_empty != predicted_empty].tolist()


def _boundary(run: _Run) -> None:
    counts = run.diagnostics["boundary"] = {}
    for name, mask in run.masks.items():
        run.boundaries[name] = region.extract_boundary(mask)
        run.emit(f"boundary_{name}.csv", csvio.write_boundary_csv, run.boundaries[name])
        counts[f"threshold_violations_{name}"] = len(run.boundaries[name].violations)


def _decompose(run: _Run) -> None:
    name = run.checked
    report = decompose.decomposition_residuals(run.surfaces[name], run.scn, run.boundaries[name])
    run.emit("decompose.csv", csvio.write_report_csv, report, run.surfaces[name])
    run.results["decompose"] = {
        "surface": name,
        **{key: getattr(report, key) for key in (
            "mean_abs_res_he", "mean_abs_res_phif", "max_abs_res_he", "max_abs_res_phif")},
    }
    run.diagnostics["decompose"] = {
        "flagged_nodes": len(report.flagged), "min_e": report.min_e, "min_f": report.min_f}


def _mc_verify(run: _Run) -> None:
    name, opts = run.checked, run.mc
    batch = mc.simulate_paths(run.scn, opts["seed"], opts["npaths"], run.grid["N"])
    est = mc.mc_verify_estimates(batch, run.scn, run.boundaries[name], run.masks[name])
    run.emit("estimates.csv", csvio.write_estimates_csv, est)
    run.results["mc"] = {q: {"estimate": e.estimate, "std_error": e.std_error}
                         for q, e in est.items()}
    mb, sv = est["maturity_benefit"], est["boundary_strategy_value"]
    # in standard errors, None where the standard error is 0: the maturity
    # benefit's distance to its closed form h0, and how far the boundary
    # strategy, a lower bound on v0, lies above v0 or below h0
    h0 = run.results["maturity_benefit_value_at_inception"]
    v0 = run.results[f"{name}_value_at_inception"]
    run.diagnostics["mc-verify"] = {
        "maturity_benefit_z": abs(mb.estimate - h0) / mb.std_error if mb.std_error else None,
        "sandwich_excess": (max((sv.estimate - v0) / sv.std_error,
                                (h0 - sv.estimate) / sv.std_error) if sv.std_error else None),
    }


def _paper_fig(run: _Run) -> None:
    checks = run.diagnostics["paper-fig"] = {}
    for label, panel_pair in _FIGURE.items():
        bscn = presets.benchmark_scenario(label)
        checks[f"transition_matrices_{label}"] = _matrix_checks(run.chain(bscn))
        for kind, panel in zip(("discontinuous", "continuous"), panel_pair):
            surf = run.value(bscn, kind)
            mode = "exercise" if kind == "continuous" else "value-gap"
            mask = region.extract_regions(surf, bscn, mode=mode)
            run.emit(f"fig_panel_{panel}_{label}_{kind}.csv", csvio.write_surface_csv, surf, mask)


# task -> (function, prerequisites); the key order is the run order, so every
# prerequisite comes before its task. "a|b" needs one of a and b and pulls in a
# when the requested tasks name neither.
_TABLE = {
    "check-L": (_check_l, ()),
    "price-lattice": (_price_lattice, ()),
    "price-pde": (_price_pde, ()),
    "regions": (_regions, ("price-lattice|price-pde",)),
    "boundary": (_boundary, ("regions",)),
    "decompose": (_decompose, ("boundary",)),
    "mc-verify": (_mc_verify, ("boundary",)),
    "paper-fig": (_paper_fig, ()),
}
TASKS = tuple(_TABLE)


def _closed(requested) -> list[str]:
    """requested plus the prerequisites of every task in it, in run order."""
    need = set(requested)
    for task in reversed(_TABLE):
        if task in need:
            for options in (pre.split("|") for pre in _TABLE[task][1]):
                if need.isdisjoint(options):
                    need.add(options[0])
    return [task for task in _TABLE if task in need]


def run_plan(doc: dict, args) -> dict:
    """Check the run document doc with the overrides of args, run its tasks and
    their prerequisites in table order, wait for the CSV writes, write
    summary.json and return it. The summary's timings hold the wall seconds of
    each task and of the wait for the writes after the last task (writer_join_s);
    its diagnostics hold the solver checks of the tasks that compute them."""
    run = _Run(doc, args)
    timings = run.summary["timings"] = {}
    steps = [(task, functools.partial(_TABLE[task][0], run)) for task in run.tasks]
    with run.writes:
        for key, step in [*steps, ("writer_join_s", run.writes.join)]:
            start = time.perf_counter()
            step()
            timings[key] = time.perf_counter() - start
    try:
        text = json.dumps(run.summary, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # NaN or an infinity among the results
        raise FloatingPointError("non-finite result; summary.json not written") from None
    with _writing(os.path.join(run.out_dir, "summary.json")) as path, \
            open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return run.summary


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
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON at line {exc.lineno}: {exc.msg}", file=sys.stderr)
        return 2
    except RecursionError:  # arrays or objects nested deeper than the decoder recurses
        print("config error: invalid JSON: nested too deeply", file=sys.stderr)
        return 2

    try:
        run_plan(doc, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (pde.SolverError, FloatingPointError) as exc:  # no convergence, a non-finite result
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a grid under the budget on a machine with less free memory
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
