"""Config-driven entry point: validation, artifacts, reproducibility."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import assert_no_children
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vastop as vs
from vastop import cli, lattice, mc
from vastop.cli import MEMORY_BUDGET, TASKS, main
from vastop.model import ConfigError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _base_config(**overrides):
    doc = {
        "scenario": {
            "market": {"r": 0.03, "sigma": 0.2},
            "contract": {"G": 100.0, "T": 15.0, "F0": 100.0},
            "fee": {"kind": "constant", "rate": 0.01},
            "charge": {"kind": "exponential", "kappa": 0.01},
        },
        "tasks": ["check-L", "price-lattice", "regions"],
        "grid": {"N": 24, "M": 41, "xmax_mult": 8.0},
    }
    doc.update(overrides)
    return doc


_INT_RANGES = {
    "grid.N": (1, 100_000),
    "grid.M": (3, 100_000),
    "mc.npaths": (1, 10**9),
    "mc.seed": (0, 2**128 - 1),
}

_REAL_RULES = {
    "grid.xmax_mult": lambda v: 1 < v <= 1e6,
    "market.r": lambda v: abs(v) <= 1,
    "market.sigma": lambda v: 0 < v <= 10,
    "contract.G": lambda v: 1e-100 <= v <= 1e100,
    "contract.T": lambda v: 2.0**-1022 <= v <= 100,  # a normal float
    "contract.F0": lambda v: 1e-100 <= v <= 1e100,
    "fee.rate": lambda v: 0 <= v <= 1,
    "charge.kappa": lambda v: 0 <= v <= 1,
}


_STR_RULES = {
    "fee.kind": ("constant", "piecewise"),
    "charge.kind": ("exponential", "cubic"),
}


# removed keys and their messages: PSOR's relaxation factor (with the whole pde
# section), the path count, the path scheme
_REMOVED = {
    "pde.omega": "unknown key 'pde' in config",
    "mc.nsteps": "unknown key mc.nsteps",
    "mc.scheme": "unknown key mc.scheme",
}


def _value_ok(path, value):
    """The documented rule of each config key, written out independently of the package."""
    if path in _STR_RULES:
        return value in _STR_RULES[path]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if path in _INT_RANGES:
        lo, hi = _INT_RANGES[path]
        return isinstance(value, int) and lo <= value <= hi
    if not (math.isfinite(value) if isinstance(value, float) else abs(value) < 2**1023):
        return False
    return _REAL_RULES[path](value)


def _no_constants(name):
    raise ValueError(f"summary.json holds {name}")


class TestConfigValidation:
    def test_missing_sigma_exits_2_with_field_path(self, tmp_path, capsys):
        doc = _base_config()
        del doc["scenario"]["market"]["sigma"]
        assert main(["run", _write(tmp_path, doc)]) == 2
        assert "market.sigma" in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        assert main(["run", _write(tmp_path, _base_config(extra=1))]) == 2
        assert "extra" in capsys.readouterr().err

    def test_unknown_task(self, tmp_path, capsys):
        assert main(["run", _write(tmp_path, _base_config(tasks=["price-lattice", "plot"]))]) == 2
        assert "plot" in capsys.readouterr().err

    def test_empty_tasks(self, tmp_path):
        assert main(["run", _write(tmp_path, _base_config(tasks=[]))]) == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        # the decoder recurses once per level, past the interpreter's limit
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err

    def test_missing_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_solver_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        import vastop.pde as pde

        monkeypatch.setattr(pde.PdeGrid, "max_iter", 1)
        doc = _base_config(tasks=["price-pde"])
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 1
        assert "solver error" in capsys.readouterr().err

    def test_unexpected_exception_is_an_internal_error(self, tmp_path, capsys, monkeypatch):
        import vastop.lattice as lattice

        def broken(*args, **kwargs):
            raise KeyError("boom")

        monkeypatch.setattr(lattice, "bermudan_value", broken)
        doc = _base_config(tasks=["price-lattice"])
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "internal error: KeyError: 'boom'" in err
        assert "Traceback (most recent call last)" in err and "in broken" in err
        assert "solver error" not in err

    @pytest.mark.parametrize("path, value", [
        ("market.r", -1e300),
        ("market.r", 1.5),
        ("contract.F0", 5e-324),
        ("contract.G", 5e-324),
        ("contract.T", 5e-324),
        ("fee.kind", [1]),  # an unhashable kind
        ("charge.kind", [1]),
        ("market.sigma", 1e20),  # no active-set solve settled
        ("market.sigma", 1e200),  # overflowed in analytic's d1
    ])
    def test_out_of_domain_scenario_values_exit_2(self, tmp_path, capsys, path, value):
        doc = _base_config(tasks=["price-lattice", "price-pde", "regions", "mc-verify"],
                           grid={"N": 12, "M": 21}, mc={"npaths": 200})
        section, key = path.split(".")
        doc["scenario"][section][key] = value
        out = tmp_path / "o"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {path} " in err and "internal error" not in err
        assert not out.exists()

    def test_long_contract_at_negative_rate_exits_2(self, tmp_path, capsys):
        # exp(-r T) would overflow at r = -1, T = 1000: the maturity is bounded by 100 years
        doc = _base_config(tasks=["price-lattice", "price-pde", "regions", "mc-verify"],
                           grid={"N": 12, "M": 21}, mc={"npaths": 200})
        doc["scenario"]["market"]["r"] = -1
        doc["scenario"]["contract"]["T"] = 1000
        out = tmp_path / "o"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: contract.T " in err and "internal error" not in err
        assert not out.exists()

    def test_pde_needs_four_state_nodes(self, tmp_path, capsys):
        # the PDE extrapolates its top node from two interior nodes; the lattice runs on 3
        doc = _base_config(tasks=["price-pde"], grid={"N": 12, "M": 3})
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error: grid.M must be at least 4 for the PDE solver" in err
        assert "internal error" not in err
        doc["tasks"] = ["price-lattice", "regions"]
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("M", [3, 4])
    def test_decompose_needs_five_state_nodes(self, tmp_path, capsys, M):
        # its residual statistics skip 2 state nodes at each edge
        doc = _base_config(tasks=["decompose"], grid={"N": 12, "M": M})
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error: grid.M must be at least 5 for decompose" in err
        assert "internal error" not in err and not (tmp_path / "o" / "summary.json").exists()
        doc["grid"]["M"] = 5
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 0

    def test_too_stiff_scenario_names_the_key(self, tmp_path, capsys):
        # no grid cures sigma = 1e10: its rule names the key before any solver runs
        # and advises no grid (test_lattice checks build_chain's own message)
        doc = _base_config(tasks=["price-lattice", "price-pde", "regions", "mc-verify"],
                           grid={"N": 1, "M": 3, "xmax_mult": 1.5}, mc={"npaths": 200})
        doc["scenario"]["market"]["sigma"] = 1e10
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error: market.sigma must be a number in (0, 10]" in err
        assert "try" not in err

    def test_too_narrow_state_grid_names_the_spacing(self, tmp_path, capsys):
        # sigma = 0.2 is the benchmark volatility: the 1e-8 log spacing of the
        # nodes makes the diffusion rates sigma^2 / dy^2 too stiff
        doc = _base_config(tasks=["price-lattice", "price-pde", "regions", "mc-verify"],
                           grid={"N": 12, "M": 21, "xmax_mult": 1.0000001}, mc={"npaths": 200})
        out = tmp_path / "o"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: invalid transition matrix" in err
        assert "market.sigma = 0.2" in err and "state spacing dy = 1e-08" in err
        assert "grid.M = 21" in err and "grid.xmax_mult = 1.0000001 " in err
        assert "internal error" not in err and not (out / "summary.json").exists()

    @pytest.mark.parametrize("r", [-0.5, 0.5])
    def test_underflowing_sigma_is_priced(self, tmp_path, r):
        # (sigma x)^2 underflows to 0 at every node, so the generator is triangular;
        # its exponential takes the Pade path of every other generator
        scn = vs.low_charge_scenario()
        scn = dataclasses.replace(scn, market=vs.MarketParams(r=r, sigma=1e-200))
        doc = _base_config(scenario=vs.scenario_to_dict(scn), tasks=["price-lattice"],
                           grid={"N": 12, "M": 41})
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text(),
                             parse_constant=_no_constants)
        assert math.isfinite(summary["results"]["lattice_value_at_inception"])

    def test_stiff_underflowing_sigma_names_the_key(self, tmp_path, capsys):
        # a triangular generator too stiff for any time step is told so, as any other
        scn = vs.low_charge_scenario()
        scn = dataclasses.replace(scn, market=vs.MarketParams(r=0.5, sigma=1e-200))
        doc = _base_config(scenario=vs.scenario_to_dict(scn), tasks=["price-lattice"],
                           grid={"N": 1, "M": 21, "xmax_mult": 1.0000001})
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid transition matrix: market.r with the fee"
                              " makes the generator too stiff for any time step")
        assert "market.sigma" not in err and "try" not in err

    def test_too_long_time_step_advises_more_steps(self, tmp_path, capsys):
        # sigma = 10 is a valid scenario: one 15-year step is too stiff for it, and a
        # finer state grid would be stiffer still, so the advice is on N, not M
        doc = _base_config(tasks=["price-lattice", "regions", "mc-verify"],
                           grid={"N": 1, "M": 21, "xmax_mult": 1.5}, mc={"npaths": 200})
        doc["scenario"]["market"]["sigma"] = 10.0
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error: invalid transition matrix" in err and "try grid.N >= 203" in err
        assert "market.sigma" not in err and "try grid.M" not in err
        doc["grid"]["N"] = 203
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 0

    def test_advice_on_the_time_grid_names_its_key(self, tmp_path, capsys, monkeypatch):
        # two neighbouring random-document draws whose 12 steps of 8.33 years are
        # about twice as stiff as the rounding budget (9598.5 and 9598.8): both are
        # refused before any exponential, whichever way it would round, and the
        # advice names grid.N
        calls = []
        monkeypatch.setattr(lattice, "_expm", lambda A: calls.append(A))
        for r, sigma in ((0.6119, 7.071), (0.6111, 7.0711)):
            scenario = {"market": {"r": r, "sigma": sigma},
                        "contract": {"G": 1e100, "T": 100.0, "F0": 1e100},
                        "fee": {"kind": "constant", "rate": 0.3001},
                        "charge": {"kind": "exponential", "kappa": 0.2522}}
            doc = _base_config(scenario=scenario, tasks=["price-lattice"],
                               grid={"N": 12, "M": 21})
            assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: invalid transition matrix: the generator is"
                                  " too stiff for dt = 8.33 (largest exit rate x dt = 9.60e+03)")
            assert err.endswith("; try grid.N >= 26\n") and "internal error" not in err
        assert calls == [] and not (tmp_path / "o" / "summary.json").exists()

    def test_advice_on_the_state_grid_names_its_key(self, tmp_path, capsys, monkeypatch):
        # a step within the rounding budget whose matrix misses its row sums is
        # the state grid's fault: the advice names grid.M
        expm = lattice._expm
        monkeypatch.setattr(lattice, "_expm", lambda A: expm(A) * (1.0 + 1e-9))
        doc = _base_config(tasks=["price-lattice"])
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid transition matrix")
        assert err.endswith("; try grid.M >= 82\n") and "internal error" not in err

    def test_misaligned_breakpoints_exit_2(self, tmp_path, capsys):
        doc = _base_config()
        doc["scenario"]["fee"] = {
            "kind": "piecewise", "breakpoints": [5.0, 10.0],
            "rates": [0.010908, 0.005454, 0.010908],
        }
        doc["grid"]["N"] = 20  # 15/20 grid misses t=5 and t=10
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
        assert "breakpoint" in capsys.readouterr().err

    def _off_grid_refusal(self, tmp_path, capsys, fee, N) -> str:
        """The refusal of a check-L, price-lattice and paper-fig run with fee on N
        steps, after checking that it creates no out."""
        doc = _base_config(tasks=["check-L", "price-lattice", "paper-fig"])
        doc["scenario"]["fee"] = fee
        out = tmp_path / "o"
        assert main(["run", _write(tmp_path, doc), "--out", str(out), "--grid-N", str(N)]) == 2
        assert not out.exists()
        return capsys.readouterr().err

    def test_paper_fig_off_the_benchmark_breakpoints_exits_2_before_any_work(self, tmp_path,
                                                                              capsys):
        # the run's own fee is constant, but paper-fig prices c1 and c2, whose fee
        # breakpoints at t = 5 and 10 N = 100 misses: no task runs, no out is made
        err = self._off_grid_refusal(tmp_path, capsys, {"kind": "constant", "rate": 0.01}, 100)
        assert err == ("config error: grid.N = 100 puts no date on the breakpoint t=5.0 of"
                       " paper-fig's c1 benchmark fee; choose grid.N a multiple of 3\n")

    def test_own_fee_off_the_grid_names_scenario_fee(self, tmp_path, capsys):
        # the run's own fee breaks at t = 5, which 7 steps of 15/7 years miss
        fee = {"kind": "piecewise", "breakpoints": [5.0], "rates": [0.01, 0.02]}
        err = self._off_grid_refusal(tmp_path, capsys, fee, 7)
        assert err == ("config error: grid.N = 7 puts no date on the breakpoint t=5.0 of"
                       " scenario.fee; choose grid.N a multiple of 3\n")

    @pytest.mark.parametrize("breakpoint, advice", [
        (3.14159265, "no grid.N up to 100000 puts every breakpoint on a date"),
        (15.0 * 7 / 20011, "choose grid.N a multiple of 20011"),  # the least N is past 10000
    ])
    def test_misaligned_breakpoint_advice_names_an_aligning_n_or_none(self, tmp_path, capsys,
                                                                      breakpoint, advice):
        doc = _base_config()
        doc["scenario"]["fee"] = {"kind": "piecewise", "breakpoints": [breakpoint],
                                  "rates": [0.01, 0.02]}
        doc["grid"]["N"] = 12
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: grid.N = 12 puts no date on the breakpoint"
                              f" t={breakpoint} of scenario.fee; ")
        assert err.rstrip().endswith(advice)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out", ["blocker", "blocker/sub"])
    def test_out_blocked_by_a_file_exits_2(self, tmp_path, capsys, out):
        (tmp_path / "blocker").write_text("")
        out = str(tmp_path / out)
        assert main(["run", _write(tmp_path, _base_config()), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: out: cannot create directory {out!r}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["check_L.csv", "summary.json"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, name):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        doc = _base_config(tasks=["check-L"])
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: out: cannot write {str(out / name)!r}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("mc, argv", [
        ({}, ["--seed", "-1"]),
        ({"seed": "abc"}, []),
        ({"seed": True}, []),
        ({"seed": 2**128}, []),
        ({"seed": 1.5}, []),
        ({"npaths": 2000.5}, []),
        ({"npaths": "2000"}, []),
        ({"nsteps": 24}, []),  # the path count is grid.N, not a key
    ])
    def test_invalid_mc_inputs_exit_2(self, tmp_path, capsys, mc, argv):
        doc = _base_config(tasks=["price-lattice", "mc-verify"], mc=mc)
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o"), *argv]) == 2
        key = next(iter(mc), "seed")
        expected = f"unknown key mc.{key}" if key == "nsteps" else f"mc.{key} "
        assert f"config error: {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", [
        ("grid.N", "abc"),
        ("grid.N", True),
        ("grid.N", 24.0),
        ("grid.xmax_mult", "8"),
        ("grid.xmax_mult", 1),
        ("charge.kappa", float("nan")),
        ("charge.kappa", float("inf")),
        ("contract.G", float("inf")),
        ("fee.breakpoints", ["5"]),
        ("fee.rates", ["x", 0.01]),
    ])
    def test_invalid_values_exit_2_naming_the_field(self, tmp_path, capsys, path, value):
        doc = _base_config()
        doc["scenario"]["fee"] = {"kind": "piecewise", "breakpoints": [5.0], "rates": [0.01, 0.01]}
        section, key = path.split(".")
        (doc["scenario"] if section in doc["scenario"] else doc)[section][key] = value
        out = tmp_path / "o"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 2
        assert f"config error: {path}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", [True, {"a": 1}, 5])
    def test_non_string_out_exits_2(self, tmp_path, monkeypatch, capsys, out):
        monkeypatch.chdir(tmp_path)
        assert main(["run", _write(tmp_path, _base_config(out=out))]) == 2
        assert "config error: out " in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("argv, path", [
        (["--grid-N", "0"], "grid.N"),
        (["--grid-M", "2"], "grid.M"),
    ])
    def test_invalid_overrides_exit_2(self, tmp_path, capsys, argv, path):
        doc = _base_config()
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o"), *argv]) == 2
        assert f"config error: {path} " in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the gap to the closed form
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_result_exits_1_without_summary(self, tmp_path, capsys, monkeypatch, bad):
        # F0 = 1e-300 and G = 1e308 gave such results until the contract scale was
        # bounded; a closed form that returns one stands in for them
        import vastop.analytic as analytic

        monkeypatch.setattr(analytic, "maturity_benefit_value",
                            lambda scn, t, x: np.full(np.shape(t) + np.shape(x), bad))
        doc = _base_config(tasks=["price-lattice", "price-pde", "regions"])
        out = tmp_path / "o"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "solver error: " in err and "non-finite result" in err
        assert not (out / "summary.json").exists()

    def test_non_finite_surface_stops_at_its_solver(self, tmp_path, capsys, monkeypatch):
        import vastop.lattice as lattice

        monkeypatch.setattr(lattice, "_step", lambda grid, n, values, rho: values * math.nan)
        doc = _base_config(tasks=["price-lattice", "regions"])
        out = tmp_path / "o"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "solver error: FloatingPointError: non-finite lattice surface" in err
        assert not (out / "summary.json").exists() and not list(out.glob("*.csv"))

    @pytest.mark.parametrize("kappa, code", [(1e300, 2), (1.0, 0)])
    def test_charge_kappa_is_at_most_one(self, tmp_path, capsys, kappa, code):
        """kappa = 1e300 overflowed the Monte Carlo continuation premium (exit 1,
        NaN standard error); the rule kappa <= 1 refuses it and the edge finishes."""
        with open(os.path.join(CONFIG_DIR, "full_pipeline_demo.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["scenario"]["charge"]["kappa"] = kappa
        doc["tasks"] = ["price-lattice", "regions", "boundary", "mc-verify"]
        out = tmp_path / "o"
        argv = ["run", _write(tmp_path, doc), "--out", str(out), "--grid-N", "12", "--grid-M", "21"]
        assert main(argv) == code
        if code == 2:
            assert capsys.readouterr().err.startswith("config error: charge.kappa ")
            assert not out.exists()
        else:
            summary = json.loads((out / "summary.json").read_text(), parse_constant=_no_constants)
            assert all(math.isfinite(v) for q in summary["results"]["mc"].values()
                       for v in q.values())

    @pytest.mark.parametrize("contract, code", [
        *[pytest.param({key: v}, 2, id=f"{key}={v:g}")
          for key, v in (("G", 1e308), ("G", 1e300), ("G", 1e200), ("F0", 1e300), ("F0", 1e200),
                         ("F0", 1e-300))],
        *[pytest.param({"G": g, "F0": f0}, 0, id=f"G={g:g},F0={f0:g}")
          for g in (1e-100, 1e100) for f0 in (1e-100, 1e100)],
    ])
    def test_contract_scale_is_bounded(self, tmp_path, capsys, contract, code):
        """G or F0 = 1e200 overflowed the Monte Carlo sums of squares and F0 = 1e-300
        the generator coefficients (exit 1, non-finite result); the rule
        1e-100 <= G, F0 <= 1e100 refuses them and every corner finishes."""
        with open(os.path.join(CONFIG_DIR, "full_pipeline_demo.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["scenario"]["fee"] = {"kind": "constant", "rate": 0.02}
        doc["scenario"]["contract"].update(contract)
        doc["tasks"] = [task for task in TASKS if task != "paper-fig"]
        out = tmp_path / "o"
        argv = ["run", _write(tmp_path, doc), "--out", str(out), "--grid-N", "12", "--grid-M", "21"]
        assert main(argv) == code
        if code == 2:
            assert capsys.readouterr().err.startswith(f"config error: contract.{next(iter(contract))} ")
            assert not out.exists()
        else:
            summary = json.loads((out / "summary.json").read_text(), parse_constant=_no_constants)
            assert all(math.isfinite(v) for q in summary["results"]["mc"].values()
                       for v in q.values())

    @pytest.mark.parametrize("section, given, message", [
        ("pde", {"theta": 0.5}, "unknown key 'pde' in config"),
        ("region", {"tol_rel": 1e-6}, "unknown key 'region' in config"),
        ("mc", {"scheme": "exact-lognormal"}, "unknown key mc.scheme"),
    ], ids=["pde", "region", "mc.scheme"])
    def test_removed_solver_keys_exit_2(self, tmp_path, capsys, section, given, message):
        # a removed key is rejected even at its former default
        doc = _base_config(tasks=["price-pde", "regions", "mc-verify"], **{section: given})
        out = tmp_path / "o"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @given(
        grid=st.fixed_dictionaries({
            "N": st.integers(1, 41), "M": st.integers(3, 41), "xmax_mult": st.floats(1.5, 30.0),
        }),
        mc=st.fixed_dictionaries({
            "npaths": st.integers(1, 2000),
            "seed": st.integers(0, 2**128 - 1),
        }),
        path=st.sampled_from([None, None, *_REMOVED, *_INT_RANGES, *_REAL_RULES, *_STR_RULES]),
        junk=st.one_of(
            st.none(), st.booleans(), st.integers(-2, 2), st.floats(0.4, 1.1), st.floats(),
            st.just(2**1100), st.just("euler"), st.text(max_size=2),
            st.lists(st.integers(), max_size=1),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_mutated_config_exit_codes(self, tmp_path_factory, grid, mc, path, junk):
        doc = _base_config(tasks=["price-lattice", "price-pde", "regions", "mc-verify"],
                           grid=grid, mc=mc)
        if path is not None:
            section, key = path.split(".")
            parent = doc["scenario"] if section in doc["scenario"] else doc
            parent.setdefault(section, {})[key] = junk  # a removed section is added
        out = tmp_path_factory.mktemp("cfg")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", _write(out, doc), "--out", str(out / "o")])
        assert code in (0, 1, 2)
        if path in _REMOVED:
            assert code == 2 and f"config error: {_REMOVED[path]}" in err.getvalue()
        elif path is not None and not _value_ok(path, junk):
            assert code == 2 and f"config error: {path}" in err.getvalue()
        elif grid["M"] == 3:
            # the PDE solver needs 4 state nodes; the lattice, which runs first, may
            # reject the grid before it
            assert code == 2 and ("config error: grid.M must be at least 4" in err.getvalue()
                                  or "config error: invalid transition matrix" in err.getvalue())
        elif code == 2:
            # the lattice rejects a state grid too coarse for the scenario as a
            # config error that names no single key
            assert "config error: invalid transition matrix" in err.getvalue()
        else:
            assert code in (0, 1)
        assert code == 1 or "solver error" not in err.getvalue()
        assert "internal error" not in err.getvalue()
        summary = out / "o" / "summary.json"
        assert summary.exists() == (code == 0)
        if code == 0:
            json.loads(summary.read_text(), parse_constant=_no_constants)

    def test_import_leaves_the_blas_variables_as_it_found_them(self):
        # importing vastop sets no BLAS variable, and changes none that is set
        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
        code = f"import os, vastop; print([os.environ.get(v) for v in {blas!r}])"
        for given in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
            env = {k: v for k, v in os.environ.items() if k not in blas}
            env.update(given, PYTHONPATH=SRC_DIR)
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True)
            assert out.stdout.strip() == repr([given.get(v) for v in blas])


def _log_uniform(lo: float, hi: float):
    """Floats spread log-uniformly over [lo, hi], both ends included."""
    inside = st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))
    return st.one_of(st.sampled_from([lo, hi]), inside)


@st.composite
def _scenarios(draw) -> dict:
    """A scenario document drawn over the rule intervals of its numbers, with
    fee breakpoints on the dates of a 12-step grid."""
    T = draw(st.one_of(st.sampled_from([2.0**-1022, 100.0]), _log_uniform(1e-3, 100.0)))
    rates = st.floats(0.0, 1.0)
    if draw(st.booleans()):
        fee = {"kind": "constant", "rate": draw(rates)}
    else:
        steps = sorted(draw(st.sets(st.integers(1, 11), min_size=1, max_size=3)))
        fee = {"kind": "piecewise", "breakpoints": [T * j / 12 for j in steps],
               "rates": draw(st.lists(rates, min_size=len(steps) + 1, max_size=len(steps) + 1))}
    if draw(st.booleans()):
        charge = {"kind": "exponential", "kappa": draw(st.floats(0.0, 1.0))}
    else:
        charge = {"kind": "cubic", "k": draw(st.floats(0.0, 1.0, exclude_min=True,
                                                       exclude_max=True))}
    return {
        "market": {"r": draw(st.floats(-1.0, 1.0)),
                   "sigma": draw(st.one_of(_log_uniform(1e-3, 10.0),
                                           st.floats(0.0, 10.0, exclude_min=True)))},
        "contract": {"G": draw(_log_uniform(1e-100, 1e100)), "T": T,
                     "F0": draw(_log_uniform(1e-100, 1e100))},
        "fee": fee,
        "charge": charge,
    }


class TestRandomDocuments:
    # a numpy RuntimeWarning of an accepted document is a fault: raised in a run,
    # it ends the run with exit 1
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(scenario=_scenarios())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_an_accepted_document_runs_to_a_finite_summary(self, tmp_path_factory, cpus,
                                                          scenario):
        # every task but price-pde, whose linear systems can stop being
        # M-matrices on an accepted document, and paper-fig, which prices
        # fixed scenarios
        cpus(2)
        doc = _base_config(scenario=scenario, grid={"N": 12, "M": 21},
                           mc={"npaths": 256, "seed": 5},
                           tasks=["check-L", "price-lattice", "regions", "boundary", "decompose",
                                  "mc-verify"])
        out = tmp_path_factory.mktemp("doc")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", _write(out, doc), "--out", str(out / "o")])
        assert_no_children()
        summary = out / "o" / "summary.json"
        if code == 0:
            json.loads(summary.read_text(), parse_constant=_no_constants)
        else:
            assert code == 2 and err.getvalue().startswith("config error: "), err.getvalue()
            assert not summary.exists()


@pytest.mark.parametrize("threads", [1, 2])
class TestWriterExitPaths:
    """Each way out of a run, on one CPU and on two, with the CSVs written in
    child processes forked from the run: the exit code and message are the
    same, no child process is left and only a run that exits 0 writes
    summary.json."""

    @pytest.fixture(autouse=True)
    def _run_on(self, cpus, threads):
        cpus(threads)

    def _run(self, tmp_path, doc):
        out = tmp_path / "o"
        code = main(["run", _write(tmp_path, doc), "--out", str(out)])
        assert_no_children()
        assert (out / "summary.json").exists() == (code == 0)
        return code, out

    def test_success(self, tmp_path):
        doc = _base_config(tasks=["check-L", "price-lattice", "regions", "boundary"])
        code, out = self._run(tmp_path, doc)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(os.listdir(out)) == sorted([*summary["artifacts"], "summary.json"])

    def test_solver_error_after_writes(self, tmp_path, capsys, monkeypatch):
        import vastop.pde as pde

        monkeypatch.setattr(pde.PdeGrid, "max_iter", 1)
        doc = _base_config(tasks=["check-L", "price-lattice", "price-pde"])
        code, out = self._run(tmp_path, doc)
        assert code == 1
        assert capsys.readouterr().err.startswith("solver error: SolverError: ")
        # the writes emitted before the failure are finished, as in one process
        assert sorted(os.listdir(out)) == ["check_L.csv", "surface_lattice.csv"]

    def test_out_of_memory_after_writes(self, tmp_path, capsys, monkeypatch):
        # a grid under the budget on a machine with less free memory: numpy's
        # refusal is reported on one line, without a traceback
        import vastop.pde as pde

        message = ("Unable to allocate 5.36 GiB for an array with shape (12000, 12000)"
                   " and data type float64")

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(pde, "solve_variational_inequality", exhausted)
        doc = _base_config(tasks=["check-L", "price-lattice", "price-pde"])
        code, out = self._run(tmp_path, doc)
        assert code == 1
        assert capsys.readouterr().err == f"out of memory: {message}\n"
        assert sorted(os.listdir(out)) == ["check_L.csv", "surface_lattice.csv"]

    def test_internal_error_in_a_write(self, tmp_path, capsys, monkeypatch):
        import vastop.io as csvio

        def broken(*args, **kwargs):
            raise KeyError("boom")

        monkeypatch.setattr(csvio, "_write_grid", broken)
        code, _ = self._run(tmp_path, _base_config(tasks=["check-L", "price-lattice", "regions"]))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("internal error: KeyError: 'boom'\n")
        assert "Traceback (most recent call last)" in err and "in broken" in err

    def test_interrupt_after_writes(self, tmp_path, monkeypatch):
        import vastop.pde as pde

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(pde, "solve_variational_inequality", interrupted)
        out = tmp_path / "o"
        doc = _base_config(tasks=["check-L", "price-lattice", "price-pde"])
        with pytest.raises(KeyboardInterrupt):
            main(["run", _write(tmp_path, doc), "--out", str(out)])
        assert_no_children()
        assert not (out / "summary.json").exists()

    def test_unwritable_output_in_a_write(self, tmp_path, capsys):
        blocked = tmp_path / "o" / "region_lattice.csv"
        blocked.mkdir(parents=True)
        doc = _base_config(tasks=["price-lattice", "regions", "boundary"])
        code, out = self._run(tmp_path, doc)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: out: cannot write {str(blocked)!r}: ")
        assert "Traceback" not in err
        # the write after the failed one completes
        assert sorted(os.listdir(out)) == ["boundary_lattice.csv", "region_lattice.csv"]


class TestRunPipeline:
    def test_full_pipeline_artifacts(self, tmp_path):
        doc = _base_config(
            tasks=["check-L", "price-lattice", "price-pde", "regions",
                   "boundary", "decompose", "mc-verify"],
            mc={"npaths": 2000, "seed": 9},
        )
        out = tmp_path / "out"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 0
        expected = [
            "check_L.csv", "region_lattice.csv", "region_pde.csv",
            "boundary_lattice.csv", "boundary_pde.csv", "decompose.csv",
            "estimates.csv", "summary.json",
        ]
        for name in expected:
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        # all defaults materialized in the echo, which holds the settable keys only
        assert sorted(summary["config"]) == ["grid", "mc", "out", "scenario", "tasks"]
        assert summary["config"]["grid"] == {"N": 24, "M": 41, "xmax_mult": 8.0}
        assert summary["config"]["mc"] == {"npaths": 2000, "seed": 9}
        assert summary["results"]["never_surrender_holds"] is True
        assert summary["results"]["surrender_region_empty_expected"] is True

    def test_never_surrender_check_runs_once(self, tmp_path, monkeypatch):
        import vastop.analytic as analytic

        calls = []
        check = analytic.never_surrender_check

        def counting(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(analytic, "never_surrender_check", counting)
        doc = _base_config(tasks=["check-L", "price-lattice"])
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_matched_rates_summary_reports_collapse(self, tmp_path):
        doc = _base_config(
            tasks=["check-L", "price-lattice", "price-pde", "regions"],
            grid={"N": 360, "M": 401, "xmax_mult": 30.0},
        )
        out = tmp_path / "out"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        gaps = summary["results"]["max_rel_gap_vs_maturity_benefit"]
        assert gaps["lattice"] <= 2e-3 and gaps["pde"] <= 2e-3
        assert summary["results"]["never_surrender_holds"] is True
        assert summary["results"]["surrender_nodes_exercise_lattice"] == 0
        assert summary["results"]["surrender_nodes_exercise_pde"] == 0

    def test_reruns_byte_identical(self, tmp_path):
        doc = _base_config(tasks=["price-lattice", "regions", "boundary", "mc-verify"],
                           mc={"npaths": 1500, "seed": 11})
        cfg = _write(tmp_path, doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(out1)]) == 0
        assert main(["run", cfg, "--out", str(out2)]) == 0
        for name in os.listdir(out1):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            if name == "summary.json":
                # the echoed out-dir and the wall times differ by construction
                s1 = json.loads(b1)
                s2 = json.loads(b2)
                for s in (s1, s2):
                    s["config"].pop("out")
                    assert set(s.pop("timings")) == {*s["config"]["tasks"], "writer_join_s"}
                assert s1 == s2
            else:
                assert b1 == b2, name

    def test_summary_times_each_task_and_the_writer_join(self, tmp_path):
        doc = _base_config(tasks=["decompose", "paper-fig"], grid={"N": 12, "M": 21})
        out = tmp_path / "out"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        timings = summary["timings"]
        assert set(timings) == {*summary["config"]["tasks"], "writer_join_s"}
        assert len(summary["config"]["tasks"]) == 5  # decompose pulls in its prerequisites
        assert all(math.isfinite(v) and v >= 0 for v in timings.values())

    @pytest.mark.parametrize("tasks, diagnosed", [
        (["check-L"], set()),
        (["price-pde"], {"price-pde"}),
        (["decompose"], {"price-lattice", "regions", "boundary", "decompose"}),
        (["price-pde", "decompose"], {"price-pde", "regions", "boundary", "decompose"}),
        (["paper-fig"], {"paper-fig"}),
    ])
    def test_summary_reports_the_diagnostics_of_the_tasks_run(self, tmp_path, tasks, diagnosed):
        doc = _base_config(tasks=tasks, grid={"N": 12, "M": 21})
        out = tmp_path / "out"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        diagnostics = summary["diagnostics"]
        assert set(diagnostics) == diagnosed
        priced = [name for name in ("lattice", "pde")
                  if f"{name}_value_at_inception" in summary["results"]]
        keys = {"price-lattice": {"transition_matrices"},
                "paper-fig": {"transition_matrices_c1", "transition_matrices_c2"},
                "price-pde": {"psor_max_iterations", "complementarity_free_max",
                              "complementarity_active_min"},
                "regions": {f"sign_mismatch_dates_{name}" for name in priced},
                "boundary": {f"threshold_violations_{name}" for name in priced},
                "decompose": {"flagged_nodes", "min_e", "min_f"}}
        for task, entry in diagnostics.items():
            assert set(entry) == keys[task]
            assert all(math.isfinite(v) for value in entry.values()
                       for item in (value if isinstance(value, list) else [value])
                       for v in (item.values() if isinstance(item, dict) else [item]))
        if "price-pde" in diagnosed:
            assert diagnostics["price-pde"]["psor_max_iterations"] >= 1
        if "decompose" in diagnosed:
            # the report's extremes are those of the columns decompose.csv holds
            table = np.genfromtxt(out / "decompose.csv", delimiter=",", names=True)
            assert diagnostics["decompose"]["min_e"] == table["e"].min()
            assert diagnostics["decompose"]["min_f"] == table["f"].min()
            assert isinstance(diagnostics["decompose"]["flagged_nodes"], int)

    @pytest.mark.parametrize("fee, own", [
        ({"kind": "piecewise", "breakpoints": [5.0, 10.0],
          "rates": [0.010908, 0.005454, 0.010908]}, [0.010908, 0.005454]),  # c1
        ({"kind": "constant", "rate": 0.01}, [0.01]),
    ])
    def test_chain_diagnostics_report_each_distinct_matrix(self, tmp_path, fee, own):
        doc = _base_config(tasks=["price-lattice", "paper-fig"], grid={"N": 30, "M": 41})
        doc["scenario"]["fee"] = fee
        out = tmp_path / "out"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 0
        diag = json.loads((out / "summary.json").read_text())["diagnostics"]

        def checks(scn):
            chain = vs.build_chain(scn, 30, 41, 8.0)
            return [{"fee": c, **check} for c, check in chain.checks.items()]

        lattice_checks = diag["price-lattice"]["transition_matrices"]
        assert lattice_checks == checks(vs.scenario_from_dict(doc["scenario"]))
        assert [entry["fee"] for entry in lattice_checks] == own
        # c1 and c2 share their two matrices, and so their numbers
        c1 = checks(vs.benchmark_scenario("c1"))
        assert diag["paper-fig"] == {"transition_matrices_c1": c1, "transition_matrices_c2": c1}
        for entry in [*lattice_checks, *c1]:
            assert 0 <= entry["row_sum_error"] <= 1e-12 and entry["min_probability"] >= -1e-12

    def test_boundary_diagnostics_count_the_threshold_violations(self, tmp_path):
        # value-gap mode marks the PDE's lowest node in slices 0-3 of this
        # scenario, so those slices are not threshold-shaped
        scenario = {"market": {"r": 0.092, "sigma": 0.96},
                    "contract": {"G": 100.0, "T": 30.0, "F0": 152.6},
                    "fee": {"kind": "constant", "rate": 0.02},
                    "charge": {"kind": "exponential", "kappa": 0.028}}
        doc = _base_config(scenario=scenario, tasks=["price-lattice", "price-pde", "boundary"],
                           grid={"N": 24, "M": 41})
        out = tmp_path / "out"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 0
        counts = json.loads((out / "summary.json").read_text())["diagnostics"]["boundary"]
        scn = vs.scenario_from_dict(scenario)
        priced = {"lattice": vs.bermudan_value(vs.build_chain(scn, 24, 41, 8.0), scn),
                  "pde": vs.solve_variational_inequality(scn, vs.build_pde_grid(scn, 24, 41))}
        assert counts == {
            f"threshold_violations_{name}":
                len(vs.extract_boundary(vs.extract_regions(surf, scn), surf).violations)
            for name, surf in priced.items()}
        assert counts["threshold_violations_pde"] > 0

    @pytest.mark.parametrize("label, mismatches", [("c2", [10.0]), ("c1", [])])
    def test_regions_diagnostics_list_the_sign_mismatch_dates(self, tmp_path, label, mismatches):
        # at N=90, M=151 c2's exercise-mode slice at t=10 is empty where L < 0
        doc = _base_config(tasks=["price-lattice", "price-pde", "regions"],
                           grid={"N": 90, "M": 151})
        doc["scenario"] = vs.scenario_to_dict(vs.benchmark_scenario(label))
        out = tmp_path / "out"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 0
        diag = json.loads((out / "summary.json").read_text())["diagnostics"]["regions"]
        assert diag == {"sign_mismatch_dates_lattice": mismatches,
                        "sign_mismatch_dates_pde": mismatches}

    @pytest.mark.parametrize("npaths", [1, 1500])
    def test_mc_verify_diagnostics_are_the_sandwich_checks(self, tmp_path, npaths):
        doc = _base_config(tasks=["mc-verify"], grid={"N": 12, "M": 21},
                           mc={"npaths": npaths, "seed": 3})
        out = tmp_path / "out"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        diag, res = summary["diagnostics"]["mc-verify"], summary["results"]
        if npaths == 1:  # one path has no standard error
            assert diag == {"maturity_benefit_z": None, "sandwich_excess": None}
            return
        h0 = res["maturity_benefit_value_at_inception"]
        v0 = res["lattice_value_at_inception"]
        mb, sv = res["mc"]["maturity_benefit"], res["mc"]["boundary_strategy_value"]
        assert diag == {
            "maturity_benefit_z": abs(mb["estimate"] - h0) / mb["std_error"],
            "sandwich_excess": max((sv["estimate"] - v0) / sv["std_error"],
                                   (h0 - sv["estimate"]) / sv["std_error"]),
        }

    def test_readme_names_every_diagnostics_key(self, tmp_path):
        doc = _base_config(tasks=list(TASKS), grid={"N": 12, "M": 21},
                           mc={"npaths": 256, "seed": 3})
        out = tmp_path / "out"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 0
        diagnostics = json.loads((out / "summary.json").read_text())["diagnostics"]
        assert set(diagnostics) == set(TASKS) - {"check-L"}

        def keys(value):  # every key of the nested dicts, those inside lists included
            if isinstance(value, dict):
                for key, item in value.items():
                    yield key
                    yield from keys(item)
            elif isinstance(value, list):
                for item in value:
                    yield from keys(item)

        with open(os.path.join(SRC_DIR, "..", "README.md"), encoding="utf-8") as fh:
            named = set(re.findall(r"`([^`\s]+)`", fh.read()))
        # a name such as `sign_mismatch_dates_<surface>` stands for each surface
        patterns = [re.compile(re.sub(r"<[a-z]+>", "[a-z0-9]+", re.escape(name))) for name in named]
        unnamed = {key for key in keys(diagnostics)
                   if not any(pattern.fullmatch(key) for pattern in patterns)}
        assert not unnamed

    def test_each_artifact_is_written_by_one_fork(self, tmp_path, cpus, monkeypatch):
        cpus(2)
        doc = _base_config(tasks=list(TASKS), grid={"N": 12, "M": 21},
                           mc={"npaths": 256, "seed": 3})
        cfg = _write(tmp_path, doc)
        forks, fork = [], os.fork

        def counted():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        assert main(["run", cfg, "--out", str(tmp_path / "forked")]) == 0
        artifacts = json.loads((tmp_path / "forked" / "summary.json").read_text())["artifacts"]
        assert len(artifacts) == 11 and len(forks) == len(artifacts)
        assert_no_children()
        # where os.fork does not exist, the run writes the same bytes in its own process
        monkeypatch.delattr(os, "fork")
        assert main(["run", cfg, "--out", str(tmp_path / "inline")]) == 0
        assert len(forks) == len(artifacts)
        for name in artifacts:
            assert ((tmp_path / "forked" / name).read_bytes()
                    == (tmp_path / "inline" / name).read_bytes()), name

    def test_cli_overrides(self, tmp_path):
        doc = _base_config(tasks=["price-lattice"])
        out = tmp_path / "out"
        assert main([
            "run", _write(tmp_path, doc), "--out", str(out),
            "--grid-N", "12", "--grid-M", "31", "--seed", "123",
        ]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["grid"]["N"] == 12
        assert summary["config"]["grid"]["M"] == 31
        assert summary["config"]["mc"]["seed"] == 123

    def test_real_keys_echo_as_floats(self, tmp_path):
        doc = _base_config(tasks=["price-lattice"], grid={"N": 12, "M": 31, "xmax_mult": 8})
        out = tmp_path / "out"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 0
        text = (out / "summary.json").read_text()
        config = json.loads(text)["config"]
        assert config["grid"] == {"N": 12, "M": 31, "xmax_mult": 8.0}
        assert '"xmax_mult": 8.0' in text

    @pytest.mark.parametrize("fee, builds", [
        ({"kind": "piecewise", "breakpoints": [5.0, 10.0],
          "rates": [0.010908, 0.005454, 0.010908]}, 2),
        ({"kind": "constant", "rate": 0.01}, 3),
    ])
    def test_paper_fig_reuses_the_benchmark_chain(self, tmp_path, monkeypatch, fee, builds):
        import vastop.lattice as lattice

        calls = {}

        def counted(name):
            fn, calls[name] = getattr(lattice, name), []

            def counting(*args, **kwargs):
                calls[name].append(args[0])
                return fn(*args, **kwargs)

            return counting

        for name in ("build_chain", "_expm", "bermudan_value"):
            monkeypatch.setattr(lattice, name, counted(name))
        doc = _base_config(tasks=["price-lattice", "paper-fig"], grid={"N": 30, "M": 41})
        doc["scenario"]["fee"] = fee
        c1 = fee["kind"] == "piecewise"
        if c1:
            doc["scenario"]["charge"]["kappa"] = 0.0055  # the c1 benchmark scenario
        out = tmp_path / "out"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 0
        assert len(calls["build_chain"]) == builds
        # c1 and c2 share their two fee rates, so only a constant fee adds a matrix
        assert len(calls["_expm"]) == (2 if c1 else 3)
        # a c1 run's discontinuous surface is panel a
        assert len(calls["bermudan_value"]) == (4 if c1 else 5)
        # panels from a reused chain are byte-identical to a paper-fig-only run
        alone = tmp_path / "alone"
        doc["tasks"] = ["paper-fig"]
        assert main(["run", _write(tmp_path, doc, "alone.json"), "--out", str(alone)]) == 0
        panels = sorted(n for n in os.listdir(out) if n.startswith("fig_panel_"))
        assert panels == sorted(n for n in os.listdir(alone) if n.startswith("fig_panel_"))
        for name in panels:
            assert (out / name).read_bytes() == (alone / name).read_bytes(), name

    def test_runs_in_one_process_match_fresh_processes(self, tmp_path):
        """A c1 run, then a matched-rate run (fee rate = charge kappa) on another
        grid in the same process write the bytes a fresh process writes: no memo
        outlives its run. Both runs price the c1 and c2 panels."""
        c1 = _base_config(tasks=list(TASKS), grid={"N": 30, "M": 41},
                          mc={"npaths": 500, "seed": 3})
        c1["scenario"]["fee"] = {"kind": "piecewise", "breakpoints": [5.0, 10.0],
                                 "rates": [0.010908, 0.005454, 0.010908]}
        c1["scenario"]["charge"]["kappa"] = 0.0055
        matched = {**c1, "scenario": _base_config()["scenario"], "grid": {"N": 24, "M": 31}}
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        for name, doc in (("c1", c1), ("matched", matched)):
            cfg = _write(tmp_path, doc, f"{name}.json")
            here, fresh = tmp_path / f"{name}_here", tmp_path / f"{name}_fresh"
            assert main(["run", cfg, "--out", str(here)]) == 0
            subprocess.run([sys.executable, "-m", "vastop.cli", "run", cfg, "--out", str(fresh)],
                           env=env, check=True, capture_output=True)
            csvs = sorted(n for n in os.listdir(here) if n.endswith(".csv"))
            assert len(csvs) == 11 and csvs == sorted(
                n for n in os.listdir(fresh) if n.endswith(".csv"))
            for csv in csvs:
                assert (here / csv).read_bytes() == (fresh / csv).read_bytes(), (name, csv)
        # panel a of the c1 run is the run's own surface and region
        assert ((tmp_path / "c1_here" / "fig_panel_a_c1_discontinuous.csv").read_bytes()
                == (tmp_path / "c1_here" / "region_lattice.csv").read_bytes())

    def test_paper_fig_task_writes_four_panels(self, tmp_path):
        doc = _base_config(tasks=["paper-fig"], grid={"N": 30, "M": 41, "xmax_mult": 8.0})
        out = tmp_path / "out"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 0
        names = sorted(os.listdir(out))
        panels = [n for n in names if n.startswith("fig_panel_")]
        assert len(panels) == 4

    def test_bundled_benchmark_config_small_grid(self, tmp_path):
        cfg = os.path.join(CONFIG_DIR, "region_benchmark_c1.json")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--grid-N", "36", "--grid-M", "81"]) == 0
        rows = (out / "region_lattice.csv").read_text().splitlines()
        assert rows[0] == "t,x,value,reward,in_surrender_region"
        # no surrender nodes inside the cheap-fee window even on a coarse grid
        flagged = set()
        for row in rows[1:]:
            t, x, v, rew, flag = row.split(",")
            if flag == "1":
                flagged.add(float(t))
        assert not any(5.0 + 1e-9 < t <= 10.0 + 1e-9 for t in flagged)
        assert any(t <= 5.0 for t in flagged) and any(t > 10.0 for t in flagged)


SHIPPED = sorted(name[:-len(".json")] for name in os.listdir(CONFIG_DIR))


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class TestTaskTable:
    @pytest.mark.parametrize("name, threads", [
        *((name, None) for name in SHIPPED),
        ("full_pipeline_demo", 1),
        ("full_pipeline_demo", 3),
        ("full_pipeline_demo", "one-cpu-child"),
    ])
    def test_shipped_config_matches_golden(self, tmp_path, cpus, name, threads):
        """Every CSV of a shipped config hashes to the recorded sha256, and the
        summary lists the same artifacts, tasks and results. BLAS runs on one
        thread, so the bytes are the same for any count of CPUs the run may use
        (conftest imported numpy before vastop) and in a child pinned to one CPU
        that asks OpenBLAS for two threads."""
        with open(os.path.join(GOLDEN_DIR, f"{name}.json"), encoding="utf-8") as fh:
            golden = json.load(fh)
        argv = ["run", os.path.join(CONFIG_DIR, f"{name}.json"), "--out", str(tmp_path / "out")]
        if threads == "one-cpu-child":
            env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=SRC_DIR)
            child = subprocess.run([sys.executable, "-m", "vastop.cli", *argv], env=env,
                                   preexec_fn=_one_cpu, capture_output=True, text=True)
            assert child.returncode == 0, child.stderr
        else:
            if threads is not None:
                cpus(threads)
            assert main(argv) == 0
        out = tmp_path / "out"
        csvs = sorted(n for n in os.listdir(out) if n.endswith(".csv"))
        assert csvs == sorted(golden["sha256"])
        for csv in csvs:
            digest = hashlib.sha256((out / csv).read_bytes()).hexdigest()
            assert digest == golden["sha256"][csv], csv
        summary = json.loads((out / "summary.json").read_text())
        assert summary["artifacts"] == golden["artifacts"]
        assert summary["config"]["tasks"] == golden["tasks"]
        assert summary["results"] == golden["results"]

    @pytest.mark.parametrize("requested, tasks, artifacts", [
        (["decompose"], ["price-lattice", "regions", "boundary", "decompose"],
         ["region_lattice.csv", "boundary_lattice.csv", "decompose.csv"]),
        (["price-pde", "decompose"], ["price-pde", "regions", "boundary", "decompose"],
         ["region_pde.csv", "boundary_pde.csv", "decompose.csv"]),
        (["price-pde", "mc-verify"], ["price-pde", "regions", "boundary", "mc-verify"],
         ["region_pde.csv", "boundary_pde.csv", "estimates.csv"]),
        (["mc-verify", "check-L"], ["check-L", "price-lattice", "regions", "boundary", "mc-verify"],
         ["check_L.csv", "region_lattice.csv", "boundary_lattice.csv", "estimates.csv"]),
        (["price-lattice", "price-pde"], ["price-lattice", "price-pde"],
         ["surface_lattice.csv", "surface_pde.csv"]),
        (["paper-fig"], ["paper-fig"],
         ["fig_panel_a_c1_discontinuous.csv", "fig_panel_b_c1_continuous.csv",
          "fig_panel_c_c2_discontinuous.csv", "fig_panel_d_c2_continuous.csv"]),
    ])
    def test_prerequisites_are_closed_in_table_order(self, tmp_path, requested, tasks, artifacts):
        doc = _base_config(tasks=requested, mc={"npaths": 300, "seed": 3})
        doc["scenario"]["fee"] = {"kind": "piecewise", "breakpoints": [5.0, 10.0],
                                  "rates": [0.010908, 0.005454, 0.010908]}
        out = tmp_path / "out"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["tasks"] == tasks
        assert summary["artifacts"] == artifacts
        assert sorted(os.listdir(out)) == sorted([*artifacts, "summary.json"])
        if "decompose" in tasks:  # the lattice surface when it was priced
            surface = "lattice" if "price-lattice" in tasks else "pde"
            assert summary["results"]["decompose"]["surface"] == surface


# columns that do not scale with (G, F0): times, L per unit account, labels,
# counts and flags; every other column is a value in the units of G
_SCALE_FREE = {"t", "L", "predicted_section", "quantity", "npaths", "seed",
               "in_surrender_region", "empty_flag"}


def _scaled_run(tmp_path, name: str, lam: float):
    """A shipped config on N=30, M=41 with G and F0 multiplied by lam, every task
    but paper-fig and 2000 paths: its CSV columns by file and its summary results."""
    with open(os.path.join(CONFIG_DIR, f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    contract = doc["scenario"]["contract"]
    contract["G"] *= lam
    contract["F0"] *= lam
    doc["tasks"] = [t for t in doc["tasks"] if t != "paper-fig"]
    if "mc" in doc:
        doc["mc"]["npaths"] = 2000
    out = tmp_path / f"out-{lam:g}"
    cfg = _write(tmp_path, doc, f"{name}-{lam:g}.json")
    assert main(["run", cfg, "--out", str(out), "--grid-N", "30", "--grid-M", "41"]) == 0
    tables = {}
    for file in sorted(os.listdir(out)):
        if file.endswith(".csv"):
            header, *rows = (out / file).read_text().splitlines()
            tables[file] = dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))
    return tables, json.loads((out / "summary.json").read_text())["results"]


class TestScaleInvariance:
    @pytest.mark.parametrize("name", ["full_pipeline_demo", "flat_charge_match"])
    def test_results_are_homogeneous_of_degree_one_in_g_and_f0(self, tmp_path, name):
        """The value is homogeneous of degree one in (G, F0, x): scaling G and F0
        by lam scales every value column by lam and changes no time, flag, count
        or relative gap."""
        base_tables, base = _scaled_run(tmp_path, name, 1.0)
        for lam in (1e-50, 1e90):
            tables, results = _scaled_run(tmp_path, name, lam)
            assert tables.keys() == base_tables.keys()
            for file, columns in tables.items():
                for col, cells in columns.items():
                    ref = base_tables[file][col]
                    if col in _SCALE_FREE:
                        assert cells == ref, (lam, file, col)
                        continue
                    got, want = np.array(cells, dtype=float) / lam, np.array(ref, dtype=float)
                    assert np.array_equal(np.isinf(got), np.isinf(want)), (lam, file, col)
                    fin = np.isfinite(want)
                    err = np.abs(got[fin] - want[fin]) / np.maximum(np.abs(want[fin]), 1.0)
                    assert err.max(initial=0.0) <= 1e-12, (lam, file, col)
            counts = {k: v for k, v in base.items() if isinstance(v, (bool, int))}
            assert {k: results[k] for k in counts} == counts, lam
            gaps = base.get("max_rel_gap_vs_maturity_benefit", {})
            assert results.get("max_rel_gap_vs_maturity_benefit", {}).keys() == gaps.keys()
            for solver, gap in gaps.items():
                assert results["max_rel_gap_vs_maturity_benefit"][solver] == \
                    pytest.approx(gap, rel=1e-9), (lam, solver)


class TestMemoryBudget:
    """A grid on which a task's largest arrays exceed MEMORY_BUDGET is refused
    before any work, naming grid.M or grid.N and the largest value that fits."""

    REFUSAL = re.compile(r"(grid\.[MN]) = (\d+) is too large: (\S+) would hold [\d.e+]+ GiB"
                         r" of arrays, over the 2 GiB budget; the largest \1 that fits is (\d+)$")

    @staticmethod
    def _refusal(doc, out) -> re.Match | None:
        """The refusal of doc's run setup, None when the run is accepted; the
        setup checks the document and creates out, and allocates no grid."""
        args = argparse.Namespace(out=str(out), seed=None, grid_N=None, grid_M=None)
        try:
            cli._Run(doc, args)
        except ConfigError as exc:
            match = TestMemoryBudget.REFUSAL.match(str(exc))
            assert match, str(exc)
            return match
        return None

    # task: the tasks requested, the grid at the rule ends but for one key, and
    # the CPUs the run may use (the pool's blocks count once per worker)
    CASES = {
        "price-lattice": (["price-lattice"], {"N": 12, "M": 100_000}, 2),
        "price-pde": (["price-pde"], {"N": 100_000, "M": 100_000}, 2),
        "regions": (["price-pde", "regions"], {"N": 100_000, "M": 100_000}, 2),
        "decompose": (["price-pde", "decompose"], {"N": 100_000, "M": 401}, 2),
        "mc-verify": (["price-pde", "mc-verify"], {"N": 100_000, "M": 5}, 4),
        "paper-fig": (["paper-fig"], {"N": 12, "M": 100_000}, 2),
    }

    @pytest.mark.parametrize("task", sorted(CASES))
    def test_each_task_at_and_just_past_the_budget(self, tmp_path, cpus, task):
        requested, grid, ncpu = self.CASES[task]
        cpus(ncpu)
        doc = _base_config(tasks=requested, grid=dict(grid))
        tracemalloc.start()
        try:
            # take each refusal's advice until the run is accepted: the last
            # refusal is the task's own, and its value is the largest that fits
            refused = []
            while (match := self._refusal(doc, tmp_path / "out")) is not None:
                key, value, by, fit = match.groups()
                assert int(fit) < int(value) == doc["grid"][key[-1]]
                refused.append((key, by, int(fit)))
                doc["grid"][key[-1]] = int(fit)
            key, by, fit = refused[-1]
            assert by == task
            assert cli._largest_arrays(task, **self._sizes(doc, task)) <= MEMORY_BUDGET
            doc["grid"][key[-1]] = fit + 1
            match = self._refusal(doc, tmp_path / "out")
            assert match is not None and match.group(1, 3, 4) == (key, task, str(fit))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6  # no task ran: the grids at the budget take gigabytes

    @staticmethod
    def _sizes(doc, task) -> dict:
        scn = vs.scenario_from_dict(doc["scenario"])
        figs = [vs.benchmark_scenario("c1"), vs.benchmark_scenario("c2")]
        chains = {"price-lattice": [scn], "paper-fig": figs}.get(task, [])
        N, M = doc["grid"]["N"], doc["grid"]["M"]
        keys = {key for chain in chains for key in lattice.chain_steps(chain, N, M)[3].values()}
        return {"N": N, "M": M, "paths": 100_000, "matrices": len(keys)}

    @pytest.mark.parametrize("tasks", [
        ["price-lattice", "price-pde", "regions", "decompose", "mc-verify"],
        ["paper-fig"],  # alone, so that it builds its chains
    ])
    def test_estimates_track_the_traced_peaks(self, tmp_path, cpus, monkeypatch, tasks):
        # c1 at N=360, M=401 on two CPUs, where every estimate is 2 to 23 MB: each
        # task's traced peak lies within half and twice the estimate, which encodes
        # the block sizes of decompose and mc and scipy's Pade workspace
        cpus(2)
        monkeypatch.setattr(cli._Run, "emit", lambda run, *args: None)  # no CSV is written
        doc = _base_config(scenario=vs.scenario_to_dict(vs.benchmark_scenario("c1")),
                           tasks=tasks, grid={"N": 360, "M": 401},
                           mc={"npaths": 2 * mc.CHUNK_PATHS})
        args = argparse.Namespace(out=str(tmp_path / "out"), seed=None, grid_N=None, grid_M=None)
        run = cli._Run(doc, args)
        measured = []
        for task in run.tasks:
            tracemalloc.start()
            try:
                cli._TABLE[task][0](run)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            sizes = {**self._sizes(doc, task), "paths": doc["mc"]["npaths"]}
            estimate = cli._largest_arrays(task, **sizes)
            if estimate:
                assert estimate >= 2e6 and estimate / 2 <= peak <= 2 * estimate, (task, peak)
                measured.append(task)
        assert measured == tasks

    @pytest.mark.parametrize("task", ["check-L", "boundary"])
    def test_tasks_of_o_n_floats_hold_no_grid(self, task):
        assert cli._largest_arrays(task, 100_000, 100_000, 0, 10**9) == 0

    def test_refusal_exits_2_before_any_work(self, tmp_path, capsys):
        doc = _base_config(tasks=["price-lattice"], grid={"N": 12, "M": 12_000})
        out = tmp_path / "out"
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grid.M = 12000 is too large: price-lattice")
        assert "internal error" not in err
        assert not out.exists()
