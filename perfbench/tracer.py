"""Span tracer that times vastop's layers from outside the package.

``Tracer.installed()`` replaces every public function of the traced modules
with a wrapper at module attribute level, and ``PathBatch.iter_chunks`` with a
generator that times each ``next()``. Callers that look a function up through
its module at call time (the CLI's lazy imports, calls inside the defining
module, the benchmark's own calls) pass through the wrappers; names bound by
``from x import f`` at package import time keep the originals. Spans are kept
in memory and written out once, at the end of a run.

Per-cell helpers are not wrapped: ``io.format_number`` runs once per CSV
field (millions of calls per CLI run) and would dominate the traced time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import time

import numpy as np

MODULES = ("cli", "io", "lattice", "pde", "region", "decompose", "mc", "analytic")
SKIP = {"io.format_number"}


class Span:
    __slots__ = ("id", "name", "module", "parent", "iteration", "start", "end", "child_s")

    def __init__(self, sid, name, module, parent, iteration, start):
        self.id = sid
        self.name = name
        self.module = module
        self.parent = parent
        self.iteration = iteration
        self.start = start
        self.end = start
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def has_ancestor_in(self, module: str) -> bool:
        p = self.parent
        while p is not None:
            if p.module == module:
                return True
            p = p.parent
        return False


class Tracer:
    """Records spans and exact work counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.iteration = -1
        self._stack: list[Span] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, module: str, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), f"{module}.{name}", module, parent, self.iteration,
                 time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.duration

    def count(self, key: str, n: float = 1) -> None:
        c = self.counts.setdefault(self.iteration, {})
        c[key] = c.get(key, 0) + n

    def count_max(self, key: str, value: float) -> None:
        c = self.counts.setdefault(self.iteration, {})
        c[key] = max(c.get(key, value), value)

    # -- installation ----------------------------------------------------

    def _wrap(self, modname: str, fname: str, fn):
        observe = _OBSERVERS.get(f"{modname}.{fname}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(modname, fname) as s:
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, s, args, kwargs, result)
            return result

        return wrapper

    def _wrap_iter_chunks(self, orig):
        tracer = self

        @functools.wraps(orig)
        def iter_chunks(batch):
            tracer.count("mc.passes_total")
            c = tracer.counts.setdefault(tracer.iteration, {})
            c.setdefault("mc.batch_keys", set()).add(
                (batch.seed, batch.npaths, batch.nsteps, batch.scheme))
            gen = orig(batch)
            while True:
                with tracer.span("mc", "path_gen"):
                    item = next(gen, None)
                if item is None:
                    return
                tracer.count("mc.chunks_generated")
                tracer.count("mc.paths_generated", item[1].shape[0])
                yield item

        return iter_chunks

    @contextlib.contextmanager
    def installed(self, iteration: int):
        """Wrap the traced modules for the duration of one iteration."""
        self.iteration = iteration
        self.counts.setdefault(iteration, {})
        patches = []
        for modname in MODULES:
            mod = importlib.import_module(f"vastop.{modname}")
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or f"{modname}.{fname}" in SKIP):
                    continue
                patches.append((mod, fname, fn))
                setattr(mod, fname, self._wrap(modname, fname, fn))
        mc = importlib.import_module("vastop.mc")
        orig_iter = mc.PathBatch.iter_chunks
        mc.PathBatch.iter_chunks = self._wrap_iter_chunks(orig_iter)
        try:
            yield self
        finally:
            mc.PathBatch.iter_chunks = orig_iter
            for mod, fname, fn in patches:
                setattr(mod, fname, fn)
            self._stack.clear()

    # -- reporting -------------------------------------------------------

    def iteration_metrics(self, iteration: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced iteration (times in s, counts exact)."""
        spans = [s for s in self.spans if s.iteration == iteration]
        counts = self.counts.get(iteration, {})

        def dur(name):
            return sum(s.duration for s in spans if s.name == name)

        def self_of(module):
            return sum(s.self_s for s in spans if s.module == module)

        def calls(name, under=None):
            return sum(1 for s in spans
                       if s.name == name and (under is None or s.has_ancestor_in(under)))

        m: dict[str, float] = {}
        for mod in MODULES:
            m[f"{mod}.self_s"] = self_of(mod)
        m["io.write_s"] = m.pop("io.self_s")
        m["analytic.s"] = m.pop("analytic.self_s")
        m["cli.chain_builds"] = calls("lattice.build_chain", under="cli")
        m["cli.never_surrender_calls"] = calls("analytic.never_surrender_check", under="cli")
        m["io.bytes"] = counts.get("io.bytes", 0)
        m["io.MB_per_s"] = m["io.bytes"] / 1e6 / m["io.write_s"] if m["io.write_s"] > 0 else 0.0
        m["lattice.build_chain_s"] = dur("lattice.build_chain")
        m["lattice.expm_count"] = counts.get("lattice.expm_count", 0)
        m["lattice.bermudan_s"] = dur("lattice.bermudan_value")
        m["pde.solve_s"] = dur("pde.solve_variational_inequality")
        m["pde.time_levels"] = counts.get("pde.time_levels", 0)
        m["pde.step_ms"] = (1e3 * m["pde.solve_s"] / m["pde.time_levels"]
                            if m["pde.time_levels"] else 0.0)
        m["pde.psor_max_iter"] = counts.get("pde.psor_max_iter", 0)
        m["pde.complementarity_free_max"] = counts.get("pde.complementarity_free_max", 0.0)
        m["region.extract_s"] = dur("region.extract_regions")
        m["region.extract_exercise_s"] = dur("region.extract_regions:exercise")
        m["region.boundary_s"] = dur("region.extract_boundary")
        m["region.violations"] = counts.get("region.violations", 0)
        m["decompose.residuals_s"] = dur("decompose.decomposition_residuals")
        m["decompose.ndtr_evals"] = sum(ndtr_evals(b, n)
                                        for b, n in counts.get("decompose.quadratures", ()))
        m["decompose.flagged"] = counts.get("decompose.flagged", 0)
        m["mc.path_gen_s"] = dur("mc.path_gen")
        m["mc.reduce_s"] = m["mc.self_s"] - m["mc.path_gen_s"]
        m["mc.chunks_generated"] = counts.get("mc.chunks_generated", 0)
        batches = len(counts.get("mc.batch_keys", ()))
        m["mc.passes"] = counts.get("mc.passes_total", 0) / batches if batches else 0.0
        m["mc.paths_per_s"] = (counts.get("mc.paths_generated", 0) / m["mc.path_gen_s"]
                               if m["mc.path_gen_s"] > 0 else 0.0)
        m["analytic.calls"] = sum(1 for s in spans if s.module == "analytic")
        m["bench.unattributed_s"] = wall_s - sum(s.self_s for s in spans)
        return m

    def write(self, path: str) -> None:
        """Dump every span (times relative to the first one) as JSON."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            {"id": s.id, "name": s.name, "parent": s.parent.id if s.parent else None,
             "iteration": s.iteration, "start_s": s.start - t0, "end_s": s.end - t0,
             "self_s": s.self_s}
            for s in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


# -- per-function observers: exact counts taken from arguments and results --

def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _obs_build_chain(tr, span, args, kwargs, grid):
    tr.count("lattice.expm_count", len(grid.matrices))


def _obs_solve_vi(tr, span, args, kwargs, surf):
    grid = _arg(args, kwargs, 1, "grid")
    nsteps = grid.tnodes.size - 1
    tr.count("pde.time_levels", nsteps + min(grid.rannacher_intervals, nsteps))
    tr.count_max("pde.psor_max_iter", surf.metadata.get("psor_max_iterations", 0))
    tr.count_max("pde.complementarity_free_max",
                 surf.metadata.get("complementarity_free_max", 0.0))


def _obs_extract_regions(tr, span, args, kwargs, mask):
    if mask.mode == "exercise":
        span.name += ":exercise"


def _obs_extract_boundary(tr, span, args, kwargs, boundary):
    tr.count("region.violations", len(boundary.violations))


def _obs_residuals(tr, span, args, kwargs, report):
    tr.count("decompose.flagged", len(report.flagged))
    # counted when the metrics are reported, outside every span
    c = tr.counts.setdefault(tr.iteration, {})
    c.setdefault("decompose.quadratures", []).append(
        (_arg(args, kwargs, 2, "boundary"), report.xnodes.size))


def ndtr_evals(boundary, nstates: int) -> int:
    """ndtr calls of one decomposition_residuals: one per state node for every
    Simpson node after the evaluation date whose boundary is finite (see
    decompose._StepQuadrature.premiums)."""
    finite = np.repeat(np.isfinite(np.asarray(boundary.values, dtype=float)), 3)
    later = np.cumsum(finite[::-1])[::-1]  # later[j] = finite Simpson nodes at index >= j
    starts = 3 * np.arange(finite.size // 3) + 1
    return int(later[starts].sum()) * nstates


def _obs_csv_writer(tr, span, args, kwargs, result):
    tr.count("io.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


_OBSERVERS = {
    "lattice.build_chain": _obs_build_chain,
    "pde.solve_variational_inequality": _obs_solve_vi,
    "region.extract_regions": _obs_extract_regions,
    "region.extract_boundary": _obs_extract_boundary,
    "decompose.decomposition_residuals": _obs_residuals,
    "io.write_surface_csv": _obs_csv_writer,
    "io.write_boundary_csv": _obs_csv_writer,
    "io.write_report_csv": _obs_csv_writer,
    "io.write_estimates_csv": _obs_csv_writer,
}
