"""Session-scoped solves shared across test modules, and a leak check.

The benchmark solves at production resolution (N=360, M=401) are reused by the
module tests and the acceptance suite so the full run stays fast; their chains
share one transition-matrix memo (see ``build_chain``), so the c1 and c2
scenarios, which differ only in the charge, exponentiate each step once. Every
test must end with no child process and no thread of the package's pool alive.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

import vastop as vs
from vastop._threads import worker_count

BENCH_N = 360
BENCH_M = 401
BENCH_MULT = 8.0
WIDE_MULT = 30.0


def assert_no_children() -> None:
    """Assert that the process has no child, running or ended and not yet
    waited for, as the OS sees it, whether or not multiprocessing (which forks
    the CSV writes of `vastop run`) still tracks it."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail a test that leaves a child process (a CSV write of `vastop run`)
    or a thread of the package's pool (named vastop_*) behind."""
    yield
    assert_no_children()
    threads = [t.name for t in threading.enumerate() if t.name.startswith("vastop")]
    assert not threads, f"left running: {threads}"


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) lets the process run on n CPUs, as `taskset` would, for the rest of
    the test; it checks that the worker count follows, so a test that varies the
    count cannot pass on the host's."""

    def run_on(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        assert worker_count(n + 1) == n

    return run_on


@pytest.fixture(scope="session")
def matrices():
    """The transition-matrix memo of every production-size chain below."""
    return {}


@pytest.fixture(scope="session")
def c1_scn():
    return vs.benchmark_scenario("c1")


@pytest.fixture(scope="session")
def c2_scn():
    return vs.benchmark_scenario("c2")


@pytest.fixture(scope="session")
def kc_scn():
    return vs.matched_exponential_scenario(0.01)


@pytest.fixture(scope="session")
def lowch_scn():
    return vs.low_charge_scenario()


def _lattice_bundle(scn, matrices):
    t0 = time.monotonic()
    grid = vs.build_chain(scn, BENCH_N, BENCH_M, BENCH_MULT, matrices)
    disc = vs.bermudan_value(grid, scn, "discontinuous")
    mask = vs.extract_regions(disc, scn)
    boundary = vs.extract_boundary(mask, disc)
    runtime = time.monotonic() - t0
    cont = vs.bermudan_value(grid, scn, "continuous")
    return {
        "grid": grid,
        "disc": disc,
        "cont": cont,
        "mask": mask,
        "mask_ex": vs.extract_regions(disc, scn, mode="exercise"),
        "mask_cont_ex": vs.extract_regions(cont, scn, mode="exercise"),
        "boundary": boundary,
        "runtime": runtime,
    }


def _pde_bundle(scn, mult=BENCH_MULT):
    pgrid = vs.build_pde_grid(scn, BENCH_N, BENCH_M, mult)
    surf = vs.solve_variational_inequality(scn, pgrid)
    mask = vs.extract_regions(surf, scn)
    return {
        "surface": surf,
        "mask": mask,
        "boundary": vs.extract_boundary(mask, surf),
    }


@pytest.fixture(scope="session")
def c1_lattice(c1_scn, matrices):
    return _lattice_bundle(c1_scn, matrices)


@pytest.fixture(scope="session")
def c2_lattice(c2_scn, matrices):
    return _lattice_bundle(c2_scn, matrices)


@pytest.fixture(scope="session")
def c1_pde(c1_scn):
    return _pde_bundle(c1_scn)


@pytest.fixture(scope="session")
def c2_pde(c2_scn):
    return _pde_bundle(c2_scn)


@pytest.fixture(scope="session")
def kc_wide(kc_scn, matrices):
    grid = vs.build_chain(kc_scn, BENCH_N, BENCH_M, WIDE_MULT, matrices)
    lattice = vs.bermudan_value(grid, kc_scn, "discontinuous")
    pgrid = vs.build_pde_grid(kc_scn, BENCH_N, BENCH_M, WIDE_MULT)
    pde = vs.solve_variational_inequality(kc_scn, pgrid)
    return {"lattice": lattice, "pde": pde, "grid": grid}


@pytest.fixture(scope="session")
def c1_study(c1_scn):
    return vs.american_extrapolate(c1_scn, [180, 360, 720], M=BENCH_M, xmax_mult=WIDE_MULT)


@pytest.fixture(scope="session")
def c2_study(c2_scn):
    return vs.american_extrapolate(c2_scn, [180, 360, 720], M=BENCH_M, xmax_mult=WIDE_MULT)


@pytest.fixture(scope="session")
def lowch_study(lowch_scn):
    return vs.american_extrapolate(lowch_scn, [180, 360, 720], M=BENCH_M, xmax_mult=WIDE_MULT)


@pytest.fixture(scope="session")
def mc_c1_batch(c1_scn):
    return vs.simulate_paths(c1_scn, seed=20240901, npaths=10**6, nsteps=BENCH_N)


@pytest.fixture(scope="session")
def mc_c2_batch(c2_scn):
    return vs.simulate_paths(c2_scn, seed=20240902, npaths=10**6, nsteps=BENCH_N)


def maturity_benefit_surface(scn, surf) -> np.ndarray:
    return vs.maturity_benefit_value(scn, surf.tnodes, surf.xnodes)
