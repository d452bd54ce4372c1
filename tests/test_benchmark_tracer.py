"""The benchmark's span tracer (perfbench/tracer.py) still runs over the package:
a change that breaks traced benchmark runs fails here, not only in the benchmark."""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

from vastop import decompose, lattice, mc, pde, region

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes(tracer_module) -> dict:
    """Every attribute of the traced modules, and PathBatch.iter_chunks."""
    attrs = {(name, key): value
             for name in tracer_module.MODULES
             for key, value in vars(importlib.import_module(f"vastop.{name}")).items()}
    attrs["PathBatch", "iter_chunks"] = mc.PathBatch.__dict__["iter_chunks"]
    return attrs


def test_traced_pipeline_reports_and_restores(c1_scn):
    traced = _load_tracer()
    before = _attributes(traced)
    tracer = traced.Tracer()
    with tracer.installed(0):
        assert mc.PathBatch.__dict__["iter_chunks"] is not before["PathBatch", "iter_chunks"]
        # through the module attributes, as the benchmark's workloads call them
        disc = lattice.bermudan_value(lattice.build_chain(c1_scn, 12, 21, 8.0), c1_scn)
        pde.solve_variational_inequality(c1_scn, pde.build_pde_grid(c1_scn, 12, 21, 8.0))
        mask = region.extract_regions(disc, c1_scn)
        region.extract_regions(disc, c1_scn, mode="exercise")
        boundary = region.extract_boundary(mask, disc)
        report = decompose.decomposition_residuals(disc, c1_scn, boundary)
    after = _attributes(traced)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    metrics = tracer.iteration_metrics(0, 1.0)
    assert metrics["lattice.expm_count"] > 0
    assert metrics["pde.time_levels"] > 0
    assert metrics["region.extract_exercise_s"] > 0.0
    assert metrics["decompose.residuals_s"] > 0.0
    assert metrics["decompose.ndtr_evals"] > 0
    assert metrics["decompose.flagged"] == len(report.flagged)
    assert {s.name for s in tracer.spans} >= {
        "lattice.build_chain", "lattice.bermudan_value", "pde.solve_variational_inequality",
        "region.extract_regions", "region.extract_regions:exercise", "region.extract_boundary",
        "decompose.decomposition_residuals"}
