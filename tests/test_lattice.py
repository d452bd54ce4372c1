"""Chain construction and Bermudan backward induction."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

import vastop as vs
from vastop import lattice
from vastop.model import ConfigError
from vastop.surfaces import center_index


def _subnormals(P: np.ndarray) -> int:
    return int(((P != 0.0) & (np.abs(P) < np.finfo(float).tiny)).sum())


class TestBuildChain:
    def test_rows_are_stochastic(self, c1_scn):
        grid = vs.build_chain(c1_scn, N=36, M=101, xmax_mult=8.0)
        seen = set()
        for n in range(grid.nsteps):
            key = grid.step_keys[n]
            if key in seen:
                continue
            seen.add(key)
            P = grid.transition(n)
            assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-12
            assert P.min() >= 0.0
        # piecewise fee with two distinct rates -> two distinct matrices
        assert len(seen) == 2

    def test_production_matrices_hold_no_subnormal(self, c1_lattice):
        assert [_subnormals(P) for P in c1_lattice["grid"].matrices.values()] == [0, 0]

    @pytest.mark.parametrize("G, F0", [(1e-100, 1e100), (1e100, 1e-100), (1.0, 1.0)])
    @pytest.mark.parametrize("r, xmax_mult", [(-0.5, 8.0), (0.5, 1000.0)])
    def test_flushed_subnormals_change_no_bit(self, monkeypatch, G, F0, r, xmax_mult):
        # sigma = 0.02 on 121 nodes leaves far-tail probabilities below the smallest
        # normal double in expm's result; the chain holds 0 there, and both sweeps
        # give the bits of the matrices that keep them (negatives clipped)
        raw = []
        monkeypatch.setattr(lattice, "expm", lambda A: raw.append(expm(A)) or raw[-1].copy())
        scn = vs.Scenario(
            market=vs.MarketParams(r=r, sigma=0.02),
            contract=vs.ContractParams(G=G, T=15.0, F0=F0),
            fee=vs.FeeSpec("piecewise", breakpoints=(5.0, 10.0), rates=(0.03, 0.0, 0.03)),
            charge=vs.ChargeSpec("exponential", T=15.0, kappa=0.01),
        )
        grid = vs.build_chain(scn, 30, 121, xmax_mult)
        kept = dataclasses.replace(
            grid, matrices={key: np.maximum(P, 0.0) for key, P in zip(grid.matrices, raw)})
        assert len(raw) == 2 and all(_subnormals(P) > 0 for P in kept.matrices.values())
        assert all(_subnormals(P) == 0 for P in grid.matrices.values())
        for kind in ("discontinuous", "continuous"):
            flushed, reference = vs.bermudan_value(grid, scn, kind), vs.bermudan_value(kept, scn, kind)
            assert flushed.values.tobytes() == reference.values.tobytes()
            assert flushed.obstacle.tobytes() == reference.obstacle.tobytes()

    def test_one_step_conditional_mean_matches_drift(self, c1_scn):
        grid = vs.build_chain(c1_scn, N=36, M=201, xmax_mult=8.0)
        x = grid.xnodes
        mean = grid.transition(0) @ x
        c = 0.010908
        target = x * math.exp((0.03 - c) * grid.dt)
        # moment matching is exact on interior rows up to truncation leakage
        sl = slice(40, 160)
        assert np.max(np.abs(mean[sl] / target[sl] - 1.0)) <= 1e-10

    def test_discounted_terminal_account_is_martingale_without_fee(self):
        scn = vs.matched_exponential_scenario(0.0)
        grid = vs.build_chain(scn, N=180, M=401, xmax_mult=30.0)
        v = grid.xnodes.copy()
        for n in range(grid.nsteps - 1, -1, -1):
            v = grid.discount * (grid.transition(n) @ v)
        i0 = center_index(grid.xnodes, 100.0)
        assert abs(v[i0] - 100.0) / 100.0 <= 1e-3

    def test_breakpoints_must_align(self, c1_scn):
        with pytest.raises(ConfigError, match="breakpoint"):
            vs.build_chain(c1_scn, N=100, M=51, xmax_mult=8.0)
        vs.build_chain(c1_scn, N=9, M=51, xmax_mult=8.0)  # multiples of 3 align

    def test_parameter_validation(self, c1_scn):
        with pytest.raises(ConfigError):
            vs.build_chain(c1_scn, N=0, M=51)
        with pytest.raises(ConfigError):
            vs.build_chain(c1_scn, N=9, M=2)
        with pytest.raises(ConfigError):
            vs.build_chain(c1_scn, N=9, M=51, xmax_mult=0.5)


class TestBermudanValue:
    def test_terminal_slice_exact(self, c1_lattice):
        surf = c1_lattice["disc"]
        assert np.array_equal(surf.values[-1], np.maximum(100.0, surf.xnodes))
        i = int(np.searchsorted(surf.xnodes, 80.0))
        assert surf.values[-1][i] == 100.0 or surf.xnodes[i] >= 100.0

    def test_matched_rates_collapse_to_maturity_benefit(self, kc_scn, kc_wide):
        surf = kc_wide["lattice"]
        i0 = center_index(surf.xnodes, 100.0)
        h0 = vs.maturity_benefit_value(kc_scn, 0.0, 100.0)
        assert abs(surf.values[0, i0] - h0) / h0 <= 2e-3

    def test_reward_kinds_agree_nodewise(self, c1_scn):
        grid = vs.build_chain(c1_scn, N=90, M=201, xmax_mult=8.0)
        disc = vs.bermudan_value(grid, c1_scn, "discontinuous")
        cont = vs.bermudan_value(grid, c1_scn, "continuous")
        assert np.max(np.abs(disc.values - cont.values)) <= 1e-10 * 100.0

    def test_surface_dominates_reward(self, c1_lattice):
        surf = c1_lattice["disc"]
        assert float(np.min(surf.values - surf.obstacle)) >= -1e-12 * 100.0

    def test_value_bounds(self, c1_lattice, c1_scn):
        surf = c1_lattice["disc"]
        floor = 100.0 * np.exp(-0.03 * (15.0 - surf.tnodes))[:, None]
        assert float(np.min(surf.values - floor)) >= -1e-9 * 100.0
        cap = 100.0 + 4.0 * surf.xnodes[None, :]
        assert float(np.min(cap - surf.values)) >= 0.0

    def test_slices_monotone_convex_lipschitz(self, c2_lattice):
        surf = c2_lattice["disc"]
        dv = np.diff(surf.values, axis=1)
        assert float(dv.min()) >= -1e-9 * 100.0
        slopes = dv / np.diff(surf.xnodes)[None, :]
        assert float(slopes.max()) <= 1.0 + 1e-9
        assert float(np.diff(slopes, axis=1).min()) >= -1e-5 * 100.0

    def test_bad_reward_kind(self, c1_scn, c1_lattice):
        with pytest.raises(ConfigError):
            vs.bermudan_value(c1_lattice["grid"], c1_scn, "exotic")


class TestAmericanExtrapolate:
    def test_matched_rates_limit_hits_closed_form(self, kc_scn):
        # constant coefficients: one-step matrices compose exactly, so the
        # value is independent of N and the deltas are pure roundoff; the
        # study flags that instead of extrapolating through noise
        with pytest.warns(RuntimeWarning, match="deltas"):
            study = vs.american_extrapolate(kc_scn, [90, 180, 360], M=301, xmax_mult=30.0)
        h0 = vs.maturity_benefit_value(kc_scn, 0.0, 100.0)
        assert abs(study.extrapolated - h0) <= 1e-3 * h0

    def test_benchmark_deltas_decrease(self, c1_study):
        assert c1_study.deltas_decreasing
        assert len(c1_study.deltas) == 2

    def test_worthless_guarantee_recovers_account(self):
        # g == 1 (kappa=0), no fee, guarantee negligible: pure account
        kc0 = vs.matched_exponential_scenario(0.0)
        scn = dataclasses.replace(kc0, contract=dataclasses.replace(kc0.contract, G=1e-6))
        with pytest.warns(RuntimeWarning, match="deltas"):
            study = vs.american_extrapolate(scn, [60, 120, 240], M=301, xmax_mult=30.0)
        assert abs(study.extrapolated - 100.0) / 100.0 <= 1e-3

    def test_needs_three_levels(self, kc_scn):
        with pytest.raises(ConfigError):
            vs.american_extrapolate(kc_scn, [90, 180], M=51)


class TestGridResolutionError:
    def _scn(self, sigma, T=15.0):
        return vs.Scenario(
            market=vs.MarketParams(r=0.03, sigma=sigma),
            contract=vs.ContractParams(G=100.0, T=T, F0=100.0),
            fee=vs.FeeSpec("constant", rate=0.01),
            charge=vs.ChargeSpec("exponential", T=T, kappa=0.01),
        )

    def test_finer_state_grid_does_not_cure_a_long_step(self):
        # the rounding error of expm grows with M and shrinks with N
        vs.build_chain(self._scn(10.0), 1, 3, 1.5)
        for M in (6, 12):
            with pytest.raises(vs.GridResolutionError, match="try N >= "):
                vs.build_chain(self._scn(10.0), 1, M, 1.5)
        vs.build_chain(self._scn(10.0), 62, 12, 1.5)  # the N the advice names at M = 12

    def test_too_stiff_sigma_names_the_key(self):
        # no grid of the rules cures the largest sigma over the longest step on the
        # narrowest state grid
        with pytest.raises(vs.GridResolutionError, match=r"market.sigma = 10 ") as exc:
            vs.build_chain(self._scn(10.0, T=100.0), 1, 3, 1.0000001)
        assert "try" not in str(exc.value)
