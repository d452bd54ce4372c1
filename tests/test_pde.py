"""Variational-inequality solver and the smooth-fit diagnostic."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

import vastop as vs
from vastop.cli import main
from vastop.model import ConfigError, ContractParams
from vastop.pde import SolverError, _obstacle_solve
from vastop.surfaces import center_index

from conftest import maturity_benefit_surface


def _ref_psor(sub, diag, sup, rhs, obstacle, v0, omega, tol, max_iter):
    """Projected SOR on a tridiagonal system, red-black sweep order.

    The solver the active-set solve replaced, kept as the reference it is
    compared with. Solves A v = rhs subject to v >= obstacle with componentwise
    complementarity; returns (v, iterations).
    """
    K = rhs.size
    v = np.maximum(v0, obstacle)
    vp = np.zeros(K + 2)
    vp[1:-1] = v
    last = math.inf
    for it in range(1, max_iter + 1):
        last = 0.0
        for start in (0, 1):
            sl = slice(start, K, 2)
            inner = vp[1:-1]
            gs = (rhs[sl] - sub[sl] * vp[:-2][sl] - sup[sl] * vp[2:][sl]) / diag[sl]
            vn = np.maximum(obstacle[sl], inner[sl] + omega * (gs - inner[sl]))
            d = float(np.max(np.abs(vn - inner[sl]))) if vn.size else 0.0
            last = max(last, d)
            inner[sl] = vn
        if last < tol:
            return vp[1:-1].copy(), it
    raise SolverError(f"PSOR did not converge in {max_iter} iterations (last update {last:.3e})", last)


def _banded_obstacle_solve(sub, diag, sup, rhs, obstacle, v0, tol, max_iter):
    """The active-set solve as it was written on ``solve_banded``, kept as the
    reference of the direct LAPACK call: the same iteration, each linear solve
    through a (3, K) band matrix."""
    v = np.maximum(v0, obstacle)
    ab = np.zeros((3, rhs.size))
    active = None
    for it in range(1, max_iter + 1):
        res = diag * v - rhs
        res[1:] += sub[1:] * v[:-1]
        res[:-1] += sup[:-1] * v[1:]
        now = res > v - obstacle
        if active is not None and (last <= tol or np.array_equal(now, active)):
            return v, res, it
        active = now
        ab[0, 1:] = np.where(active[:-1], 0.0, sup[:-1])
        ab[1] = np.where(active, 1.0, diag)
        ab[2, :-1] = np.where(active[1:], 0.0, sub[1:])
        vn = solve_banded((1, 1), ab, np.where(active, obstacle, rhs), check_finite=False)
        last = float(np.max(np.abs(vn - v)))
        v = vn
    raise SolverError("did not settle", last)


def _assert_same_solve(args):
    v, res, it = _obstacle_solve(*args)
    v_ref, res_ref, it_ref = _banded_obstacle_solve(*args)
    assert it == it_ref
    assert v.tobytes() == v_ref.tobytes() and res.tobytes() == res_ref.tobytes()
    return v


def _psor_surface(scn, grid, monkeypatch):
    """The surface as the PSOR solver (omega 1.5, tolerance grid.tol) computed it."""

    def obstacle_solve(sub, diag, sup, rhs, obstacle, v0, tol, max_iter):
        v, iters = _ref_psor(sub, diag, sup, rhs, obstacle, v0, 1.5, tol, max_iter)
        res = diag * v - rhs
        res[1:] += sub[1:] * v[:-1]
        res[:-1] += sup[:-1] * v[1:]
        return v, res, iters

    with monkeypatch.context() as m:
        m.setattr("vastop.pde._obstacle_solve", obstacle_solve)
        return vs.solve_variational_inequality(scn, grid)


class TestSolveVariationalInequality:
    def test_terminal_slice_exact(self, c1_pde):
        surf = c1_pde["surface"]
        assert np.array_equal(surf.values[-1], np.maximum(100.0, surf.xnodes))

    def test_matched_rates_collapse(self, kc_scn, kc_wide):
        surf = kc_wide["pde"]
        h = maturity_benefit_surface(kc_scn, surf)
        rel = np.abs(surf.values - h) / np.maximum(h, 1e-12)
        assert float(rel.max()) <= 2e-3

    def test_projection_property(self, c1_pde, c2_pde):
        for bundle in (c1_pde, c2_pde):
            surf = bundle["surface"]
            assert float(np.min(surf.values - surf.obstacle)) >= -1e-12 * 100.0

    def test_complementarity(self, c1_pde):
        meta = c1_pde["surface"].metadata
        # free nodes solve the scheme to within the solver tolerance; active
        # nodes only overshoot in the feasible direction
        assert meta["complementarity_free_max"] <= 100.0 * meta["solver_tol"]
        assert meta["complementarity_active_min"] >= -100.0 * meta["solver_tol"]

    def test_cross_solver_agreement(self, c1_lattice, c1_pde):
        i0 = center_index(c1_pde["surface"].xnodes, 100.0)
        vp = c1_pde["surface"].values[0, i0]
        vl = c1_lattice["disc"].values[0, i0]
        assert abs(vp - vl) / vl <= 1e-3

    def test_cross_solver_agreement_nodewise(self, c1_lattice, c1_pde):
        vl = c1_lattice["disc"].values
        vp = c1_pde["surface"].values
        rel = np.abs(vl - vp) / np.maximum(np.abs(vp), 1.0)
        assert float(rel.max()) <= 2e-3

    @pytest.mark.parametrize("label", ["c1", "c2", "low-charge", "kc"])
    def test_matches_psor_reference(self, label, monkeypatch):
        scn, mult = {
            "c1": (vs.benchmark_scenario("c1"), 8.0),
            "c2": (vs.benchmark_scenario("c2"), 8.0),
            "low-charge": (vs.low_charge_scenario(), 8.0),
            "kc": (vs.matched_exponential_scenario(0.01), 30.0),
        }[label]
        G = scn.contract.G
        grid = vs.build_pde_grid(scn, N=60, M=101, xmax_mult=mult)
        new = vs.solve_variational_inequality(scn, grid)
        ref = _psor_surface(scn, grid, monkeypatch)
        for mode in ("value-gap", "exercise"):
            a = vs.extract_regions(new, scn, mode=mode).in_surrender
            b = vs.extract_regions(ref, scn, mode=mode).in_surrender
            assert np.array_equal(a, b), mode
        assert float(np.max(np.abs(new.values - ref.values))) <= 1e-6 * G
        assert new.metadata["complementarity_free_max"] <= 1e-10 * G

    def test_degenerate_nodes_settle(self):
        # v_star solves each LCP with a zero residual on every row, and some of
        # its nodes sit on the obstacle as well: there both sides of the
        # activity test are zero up to rounding
        rng = np.random.default_rng(1)
        for _ in range(100):
            K = int(rng.integers(2, 60))
            a, c = rng.uniform(0.0, 2.0, K), rng.uniform(0.0, 2.0, K)
            sub, sup, diag = -a, -c, 1.0 + a + c + rng.uniform(0.0, 1.0, K)
            sub[0] = sup[-1] = 0.0
            obstacle = 10.0 * rng.normal(size=K)
            v_star = np.maximum(obstacle, 10.0 * rng.normal(size=K))
            touch = rng.random(K) < 0.4
            v_star[touch] = obstacle[touch]
            rhs = diag * v_star
            rhs[1:] += sub[1:] * v_star[:-1]
            rhs[:-1] += sup[:-1] * v_star[1:]
            v0 = 10.0 * rng.normal(size=K)
            v, _, _ = _obstacle_solve(sub, diag, sup, rhs, obstacle, v0, 1e-9, 100)
            assert float(np.max(np.abs(v - v_star))) <= 1e-9

    def test_bottom_node_never_below_the_obstacle(self):
        # here the guarantee floor G e^{-r(T-t)} lies below the payout g(t) x at the
        # lowest node: taken alone as the bottom value, it left the value 1.9 below
        # the obstacle there and pulled node 1 into the value-gap surrender region
        scn = vs.Scenario(
            market=vs.MarketParams(r=0.092, sigma=0.96),
            contract=vs.ContractParams(G=100.0, T=30.0, F0=152.6),
            fee=vs.FeeSpec("constant", rate=0.02),
            charge=vs.ChargeSpec("exponential", T=30.0, kappa=0.028),
        )
        surf = vs.solve_variational_inequality(scn, vs.build_pde_grid(scn, N=24, M=41))
        assert float(np.min(surf.values - surf.obstacle)) == 0.0
        assert not vs.extract_regions(surf, scn).in_surrender[:, 1:].any()

    def test_implicit_small_grid_solves(self, c1_scn):
        # projected SOR stalled on this grid (no convergence in 10,000 sweeps)
        pgrid = vs.build_pde_grid(c1_scn, N=12, M=51, xmax_mult=8.0)
        surf = vs.solve_variational_inequality(c1_scn, pgrid)
        disc = vs.bermudan_value(vs.build_chain(c1_scn, 12, 51, 8.0), c1_scn, "discontinuous")
        i0 = center_index(surf.xnodes, 100.0)
        vp, vl = surf.values[0, i0], disc.values[0, i0]
        assert abs(vp - vl) / vl <= 1e-3

    def test_psor_failure_raises_with_residual(self, kc_scn, monkeypatch):
        monkeypatch.setattr(vs.PdeGrid, "max_iter", 2)
        grid = vs.build_pde_grid(kc_scn, N=12, M=101, xmax_mult=8.0)
        with pytest.raises(SolverError) as err:
            vs.solve_variational_inequality(kc_scn, grid)
        assert err.value.last_delta > 0.0

    def test_grid_validation(self, tmp_path, capsys):
        # the relaxation factor went with the PSOR solver, the other solver keys
        # with the whole pde section
        doc = {
            "scenario": {
                "market": {"r": 0.03, "sigma": 0.2},
                "contract": {"G": 100.0, "T": 15.0, "F0": 100.0},
                "fee": {"kind": "constant", "rate": 0.01},
                "charge": {"kind": "exponential", "kappa": 0.01},
            },
            "tasks": ["price-pde"],
            "grid": {"N": 12, "M": 51},
            "pde": {"omega": 1.5},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error: unknown key 'pde' in config" in capsys.readouterr().err

    def test_default_tol_stays_positive_for_a_tiny_guarantee(self, kc_scn):
        # the smallest G of the rules
        scn = dataclasses.replace(kc_scn, contract=ContractParams(G=1e-100, T=15.0, F0=100.0))
        assert vs.build_pde_grid(scn, N=12, M=51).tol > 0.0
        assert vs.build_pde_grid(kc_scn, N=12, M=51).tol == 1e-10 * kc_scn.contract.G


class TestObstacleSolve:
    def test_every_c1_level_matches_solve_banded(self, c1_scn, monkeypatch):
        levels = []

        def recording(*args):
            levels.append([np.copy(a) if isinstance(a, np.ndarray) else a for a in args])
            return _obstacle_solve(*args)

        monkeypatch.setattr("vastop.pde._obstacle_solve", recording)
        vs.solve_variational_inequality(c1_scn, vs.build_pde_grid(c1_scn, 360, 401))
        assert len(levels) == 362  # 360 steps, two of them in Rannacher half steps
        for args in levels:
            _assert_same_solve(args)

    def test_random_systems_match_solve_banded(self):
        # diagonally dominant systems whose obstacle binds on a random part of the nodes
        rng = np.random.default_rng(7)
        mixed = 0
        for _ in range(50):
            K = int(rng.integers(2, 80))
            a, c = rng.uniform(0.0, 2.0, K), rng.uniform(0.0, 2.0, K)
            sub, sup, diag = -a, -c, a + c + rng.uniform(1e-3, 1.0, K)
            sub[0] = sup[-1] = 0.0
            obstacle = rng.normal(size=K)
            rhs = rng.normal(size=K)
            v = _assert_same_solve((sub, diag, sup, rhs, obstacle, rng.normal(size=K), 1e-12, 100))
            mixed += 0 < np.count_nonzero(v == obstacle) < K
        assert mixed >= 10

    def test_zero_pivot_on_a_free_row_raises(self):
        # row and column 2 are zero, and row 2 is free: 0 * v_2 - rhs_2 = 0 is not
        # above v_2 - obstacle_2 = 0
        K = 5
        sub, sup, diag = np.full(K, -1.0), np.full(K, -1.0), np.full(K, 4.0)
        sub[0] = sup[-1] = 0.0
        sub[2] = diag[2] = sup[2] = sup[1] = sub[3] = 0.0
        rhs, obstacle = np.ones(K), np.full(K, -1e9)
        rhs[2], obstacle[2] = 0.0, 0.0
        args = (sub, diag, sup, rhs, obstacle, np.zeros(K), 1e-12, 100)
        for solve in (_obstacle_solve, _banded_obstacle_solve):
            with pytest.raises(LinAlgError, match="singular matrix"):
                solve(*args)


class TestSmoothFit:
    def test_deep_region_slope_equals_charge_factor(self, c1_scn, c1_pde):
        surf = c1_pde["surface"]
        rep = vs.smooth_fit_diagnostic(surf, c1_pde["boundary"], times=[2.0])
        g2 = float(c1_scn.charge(2.0))
        assert rep.slope_right[0] == pytest.approx(g2, abs=1e-6)

    def test_empty_sections_skipped(self, c1_pde):
        rep = vs.smooth_fit_diagnostic(c1_pde["surface"], c1_pde["boundary"], times=[7.0])
        assert np.isnan(rep.jump[0])
        assert any("empty" in s for s in rep.skipped)

    def test_maturity_has_its_own_marker(self, c1_pde):
        # the regions live on [0, T): maturity has no section, empty or not
        rep = vs.smooth_fit_diagnostic(c1_pde["surface"], c1_pde["boundary"], times=[2.0, 15.0])
        assert np.isfinite(rep.jump[0]) and np.isnan(rep.jump[1])
        assert rep.skipped == ("t=15.0: maturity, no section",)

    def test_off_date_time_rejected(self, c1_pde):
        # dates lie 1/24 apart on the production grid
        with pytest.raises(ConfigError, match=r"t=0\.017 is not a date of the time grid"):
            vs.smooth_fit_diagnostic(c1_pde["surface"], c1_pde["boundary"],
                                     times=[2.0, 0.017])

    def test_jump_shrinks_under_refinement(self, c1_scn):
        jumps = {}
        for M in (201, 401):
            grid = vs.build_pde_grid(c1_scn, N=180, M=M, xmax_mult=8.0)
            surf = vs.solve_variational_inequality(c1_scn, grid)
            mask = vs.extract_regions(surf, c1_scn)
            boundary = vs.extract_boundary(mask, surf)
            rep = vs.smooth_fit_diagnostic(surf, boundary, times=[2.0])
            jumps[M] = float(rep.jump[0])
        assert jumps[401] < jumps[201]
