"""Chain construction and Bermudan backward induction."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.linalg._matfuncs_expm import pick_pade_structure

import vastop as vs
from vastop import lattice
from vastop.model import ConfigError
from vastop.surfaces import center_index


def _subnormals(P: np.ndarray) -> int:
    return int(((P != 0.0) & (np.abs(P) < np.finfo(float).tiny)).sum())


# _expm's entries equal scipy.linalg.expm's wherever scipy's is at least this: the
# largest entry it moved was 1.4e-137 on the production grids (kc at xmax_mult 30)
# and 2.8e-137 over 500 documents of _documents
_SCIPY_BOUND = 1e-130
_expm = lattice._expm


def _chain_and_scipy_reference(scn, N, M, xmax_mult):
    """build_chain's chain, and the same chain with the matrices of scipy.linalg.expm
    (negatives clipped, subnormals kept); (None, None) where build_chain refuses a
    matrix, after checking that scipy's fails the same row-sum or sign check, or a
    step before its exponential, after checking that the step is stiffer than the
    rounding budget."""
    raw = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_expm", lambda A: raw.append(expm(A)) or _expm(A))
        try:
            grid = vs.build_chain(scn, N, M, xmax_mult)
        except vs.GridResolutionError as exc:
            if "row-sum err" in str(exc):
                P = raw[-1]
                assert np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12 or P.min() < -1e-12
            else:
                assert _stiffness(scn, N, M, xmax_mult) > lattice._STEP_BUDGET
            return None, None
    kept = {key: np.maximum(P, 0.0) for key, P in zip(grid.matrices, raw)}
    return grid, dataclasses.replace(grid, matrices=kept)


def _stiffness(scn, N, M, xmax_mult) -> float:
    """The largest exit rate x dt of the steps of scn's chain."""
    x = vs.surfaces.log_space_nodes(scn.contract.F0, xmax_mult, M)
    tn = vs.time_nodes(scn, N)
    rates = [-np.diag(lattice._generator(x, (scn.market.r - c) * x, (scn.market.sigma * x) ** 2))
             for c in set(scn.fee(tn[:-1]).tolist())]
    return float(max(r.max() for r in rates)) * float(tn[1] - tn[0])


def _assert_scipy_bits(grid, reference, scn):
    for P, R in zip(grid.matrices.values(), reference.matrices.values()):
        big = R >= _SCIPY_BOUND
        assert np.array_equal(P[big], R[big])
    for kind in ("discontinuous", "continuous"):
        ours, theirs = vs.bermudan_value(grid, scn, kind), vs.bermudan_value(reference, scn, kind)
        assert ours.values.tobytes() == theirs.values.tobytes()
        assert ours.obstacle.tobytes() == theirs.obstacle.tobytes()


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def _documents(draw):
    """A scenario inside the rule table, with a chain grid of at most 60 steps and
    121 nodes: r and sigma log-uniform, a constant or piecewise fee, an exponential
    or cubic charge, G and F0 over 1e-100 to 1e100."""
    N = draw(st.integers(1, 60))
    T = draw(_log_uniform(0.01, 100.0))
    if N > 1 and draw(st.booleans()):
        steps = sorted(draw(st.lists(st.integers(1, N - 1), min_size=1, max_size=3, unique=True)))
        dates = np.linspace(0.0, T, N + 1)  # the grid's dates, as time_nodes builds them
        fee = vs.FeeSpec("piecewise", breakpoints=tuple(float(dates[k]) for k in steps),
                         rates=tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=len(steps) + 1,
                                                   max_size=len(steps) + 1))))
    else:
        fee = vs.FeeSpec("constant", rate=draw(st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        charge = vs.ChargeSpec("exponential", T=T, kappa=draw(st.floats(0.0, 1.0)))
    else:
        charge = vs.ChargeSpec("cubic", T=T, k=draw(st.floats(0.01, 0.99)))
    scn = vs.Scenario(
        market=vs.MarketParams(r=draw(st.sampled_from([-1.0, 1.0])) * draw(_log_uniform(1e-4, 1.0)),
                               sigma=draw(_log_uniform(1e-3, 10.0))),
        contract=vs.ContractParams(G=draw(_log_uniform(1e-100, 1e100)), T=T,
                                   F0=draw(_log_uniform(1e-100, 1e100))),
        fee=fee,
        charge=charge,
    )
    M = 121 - draw(st.integers(0, 118))  # drawn from the top: far tails need many nodes
    return scn, N, M, draw(_log_uniform(1.5, 1000.0))


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
    def test_flushed_subnormals_change_no_bit(self, G, F0, r, xmax_mult):
        # sigma = 0.02 on 121 nodes leaves far-tail probabilities below the smallest
        # normal double in scipy's expm; the chain holds 0 there, and both sweeps
        # give the bits of scipy's matrices that keep them (negatives clipped)
        scn = vs.Scenario(
            market=vs.MarketParams(r=r, sigma=0.02),
            contract=vs.ContractParams(G=G, T=15.0, F0=F0),
            fee=vs.FeeSpec("piecewise", breakpoints=(5.0, 10.0), rates=(0.03, 0.0, 0.03)),
            charge=vs.ChargeSpec("exponential", T=15.0, kappa=0.01),
        )
        grid, reference = _chain_and_scipy_reference(scn, 30, 121, xmax_mult)
        assert len(grid.matrices) == 2
        assert all(_subnormals(P) > 0 for P in reference.matrices.values())
        assert all(_subnormals(P) == 0 for P in grid.matrices.values())
        _assert_scipy_bits(grid, reference, scn)

    @pytest.mark.parametrize("label, xmax_mult, squarings", [("c1", 8.0, 3), ("kc", 30.0, 2)])
    def test_production_chain_keeps_scipys_bits(self, label, xmax_mult, squarings):
        # the production grid (N=360, M=401), where expm squares its Pade
        # approximant 3 times (c1) or twice (kc on the wide grid)
        scn = vs.benchmark_scenario() if label == "c1" else vs.matched_exponential_scenario(0.01)
        grid, reference = _chain_and_scipy_reference(scn, 360, 401, xmax_mult)
        x, r, sigma = grid.xnodes, scn.market.r, scn.market.sigma
        A = lattice._generator(x, (r - grid.step_keys[0]) * x, (sigma * x) ** 2) * grid.dt
        Am = np.empty((5,) + A.shape)
        Am[0] = A
        assert pick_pade_structure(Am) == (13, squarings)
        _assert_scipy_bits(grid, reference, scn)

    @pytest.mark.parametrize("r", [-0.5, 0.5])
    def test_triangular_generator_takes_scipys_branch(self, r):
        # sigma = 1e-200 squares to a zero variance, so the upwinded drift moves one
        # way only and the generator is triangular. scipy exponentiates that case
        # with its own formula, whose rows miss 1 by about 2% here: the chain
        # refuses the grid, with scipy's matrix as with _expm's
        scn = dataclasses.replace(vs.low_charge_scenario(), market=vs.MarketParams(r=r, sigma=1e-200))
        assert _chain_and_scipy_reference(scn, 12, 41, 8.0) == (None, None)
        x = vs.surfaces.log_space_nodes(100.0, 8.0, 41)
        A = lattice._generator(x, (r - 0.02) * x, (1e-200 * x) ** 2) * 1.25  # dt = 15 / 12
        assert (np.any(np.diag(A, -1)), np.any(np.diag(A, 1))) == (r < 0.02, r > 0.02)
        assert lattice._expm(A).tobytes() == expm(A).tobytes()

    @given(doc=_documents())
    @settings(max_examples=100, deadline=None)
    def test_random_chains_keep_scipys_bits(self, doc):
        scn, N, M, xmax_mult = doc
        grid, reference = _chain_and_scipy_reference(scn, N, M, xmax_mult)
        if grid is not None:
            _assert_scipy_bits(grid, reference, scn)

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
        # the stiffness of a step, and with it the rounding error of expm, grows
        # with M and shrinks with N; the advice names the least N within the budget
        for M, steps in ((3, 2), (6, 13), (12, 62)):
            with pytest.raises(vs.GridResolutionError, match=f"try grid.N >= {steps}$"):
                vs.build_chain(self._scn(10.0), 1, M, 1.5)
            with pytest.raises(vs.GridResolutionError, match=f"try grid.N >= {steps}$"):
                vs.build_chain(self._scn(10.0), steps - 1, M, 1.5)
            vs.build_chain(self._scn(10.0), steps, M, 1.5)

    def test_too_stiff_sigma_names_the_key(self):
        # no grid of the rules cures the largest sigma over the longest step on the
        # narrowest state grid
        with pytest.raises(vs.GridResolutionError, match=r"market.sigma = 10 ") as exc:
            vs.build_chain(self._scn(10.0, T=100.0), 1, 3, 1.0000001)
        assert "try" not in str(exc.value)
