"""Config-driven entry point: validation, artifacts, reproducibility."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from vastop.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


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

    def test_missing_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_solver_failure_exits_1(self, tmp_path, capsys):
        doc = _base_config(tasks=["price-pde"], pde={"max_iter": 1})
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 1
        assert "solver error" in capsys.readouterr().err

    def test_misaligned_breakpoints_exit_2(self, tmp_path, capsys):
        doc = _base_config()
        doc["scenario"]["fee"] = {
            "kind": "piecewise", "breakpoints": [5.0, 10.0],
            "rates": [0.010908, 0.005454, 0.010908],
        }
        doc["grid"]["N"] = 20  # 15/20 grid misses t=5 and t=10
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
        assert "breakpoint" in capsys.readouterr().err


    @pytest.mark.parametrize("mc, argv", [
        ({}, ["--seed", "-1"]),
        ({"seed": "abc"}, []),
        ({"seed": True}, []),
        ({"seed": 2**128}, []),
        ({"seed": 1.5}, []),
        ({"npaths": 2000.5}, []),
        ({"npaths": "2000"}, []),
        ({"nsteps": "24"}, []),
        ({"nsteps": 24.0}, []),
    ])
    def test_invalid_mc_inputs_exit_2(self, tmp_path, capsys, mc, argv):
        doc = _base_config(tasks=["price-lattice", "mc-verify"], mc=mc)
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o"), *argv]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "mc." in err


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
        # all defaults materialized in the echo
        assert summary["config"]["grid"] == {"N": 24, "M": 41, "xmax_mult": 8.0}
        assert summary["config"]["pde"]["theta"] == 0.5
        assert summary["config"]["mc"]["npaths"] == 2000
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
                # the echoed out-dir differs by construction
                s1 = json.loads(b1)
                s2 = json.loads(b2)
                s1["config"].pop("out")
                s2["config"].pop("out")
                assert s1 == s2
            else:
                assert b1 == b2, name

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
