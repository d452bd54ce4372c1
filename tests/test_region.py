"""Region extraction, boundary structure, classification, comparisons."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vastop as vs
from vastop.model import ConfigError
from vastop.region import RegionMask
from vastop.surfaces import time_nodes


class TestExtractRegions:
    def test_matched_rates_mask_empty(self, kc_scn, kc_wide):
        for surf in (kc_wide["lattice"], kc_wide["pde"]):
            mask = vs.extract_regions(surf, kc_scn, mode="exercise")
            assert int(mask.in_surrender.sum()) == 0

    def test_benchmark_cheap_window_empty(self, c1_lattice):
        mask = c1_lattice["mask"]
        tn = mask.tnodes[:-1]
        window = (tn > 5.0 + 1e-12) & (tn <= 10.0 + 1e-12)
        assert int(mask.in_surrender[window].sum()) == 0

    def test_deep_region_probe(self, c1_lattice):
        mask = c1_lattice["mask"]
        n = int(np.argmin(np.abs(mask.tnodes - 2.0)))
        assert bool(mask.in_surrender[n, -1])  # x = x_max, t = 2

    def test_mask_invariant_value_on_obstacle(self, c1_lattice):
        surf, mask = c1_lattice["disc"], c1_lattice["mask"]
        gap = (surf.values[:-1] - surf.obstacle[:-1])[mask.in_surrender]
        tol = mask.tol_abs + mask.tol_rel * surf.obstacle[:-1][mask.in_surrender]
        assert np.all(gap <= tol)

    def test_bad_mode(self, c1_lattice, c1_scn):
        with pytest.raises(ConfigError):
            vs.extract_regions(c1_lattice["disc"], c1_scn, mode="fancy")


class TestExtractBoundary:
    def test_empty_sections_marked(self, c1_lattice):
        b = c1_lattice["boundary"]
        n7 = int(np.argmin(np.abs(b.tnodes - 7.0)))
        assert not np.isfinite(b.values[n7])

    def test_threshold_structure_clean(self, c1_lattice, c2_lattice):
        assert c1_lattice["boundary"].violations == ()
        assert c2_lattice["boundary"].violations == ()

    def test_boundary_above_guarantee_floor(self, c1_lattice):
        b = c1_lattice["boundary"]
        x = c1_lattice["disc"].xnodes
        dx = float(np.max(np.diff(x)))
        tn = b.tnodes[:-1]
        finite = np.isfinite(b.values)
        floor = 100.0 * np.exp(-0.03 * (15.0 - tn[finite]))
        assert np.all(b.values[finite] >= floor - dx)

    def test_no_boundary_limit_at_guarantee_near_maturity(self, c2_lattice):
        # sections empty close to maturity: the boundary never converges to G
        b = c2_lattice["boundary"]
        assert float(b.nonempty_times.max()) <= 10.0 + 1e-9

    def test_structural_violation_reported(self):
        tn = np.linspace(0.0, 1.0, 3)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        in_s = np.array([[False, True, False, True], [False, False, True, True]])
        mask = RegionMask(
            tnodes=tn, xnodes=x, in_surrender=in_s,
            tol_abs=1e-8, tol_rel=1e-6, mode="value-gap",
        )
        b = vs.extract_boundary(mask)
        assert (0, 2) in b.violations
        assert b.values[0] == 2.0 and b.values[1] == 3.0


class TestClassifySections:
    def test_benchmark_prediction(self, c1_scn):
        tg = np.linspace(0.0, 15.0, 361)[:-1]
        pred = vs.classify_sections(c1_scn, tg)
        window = (tg > 5.0 + 1e-12) & (tg <= 10.0 + 1e-12)
        assert all(p == "empty" for p in pred[window])
        assert all(p == "nonempty-conjectured" for p in pred[~window])

    def test_matched_rates_all_empty(self, kc_scn):
        pred = vs.classify_sections(kc_scn, [0.0, 5.0, 14.9])
        assert all(p == "empty" for p in pred)

    def test_low_charge_all_nonempty(self, lowch_scn):
        pred = vs.classify_sections(lowch_scn, np.linspace(0.0, 14.9, 20))
        assert all(p == "nonempty-conjectured" for p in pred)


class TestCompareRegions:
    def test_low_charge_reward_kinds_agree(self, lowch_scn):
        # charge relaxing slower than the fee at every date: the two reward
        # conventions provably share one surrender region
        grid = vs.build_chain(lowch_scn, N=180, M=201, xmax_mult=8.0)
        disc = vs.bermudan_value(grid, lowch_scn, "discontinuous")
        cont = vs.bermudan_value(grid, lowch_scn, "continuous")
        md = vs.extract_regions(disc, lowch_scn, mode="exercise")
        mc = vs.extract_regions(cont, lowch_scn, mode="exercise")
        assert np.array_equal(md.in_surrender, mc.in_surrender)
        assert md.in_surrender.sum() > 0

    def test_matched_rates_documented_disagreement(self, kc_scn):
        # stopped-set of the continuous formulation is everything when the
        # value everywhere equals the hold-to-maturity value, while the
        # surrender set proper is empty: they differ by construction
        grid = vs.build_chain(kc_scn, N=90, M=151, xmax_mult=8.0)
        disc = vs.bermudan_value(grid, kc_scn, "discontinuous")
        cont = vs.bermudan_value(grid, kc_scn, "continuous")
        m_disc = vs.extract_regions(disc, kc_scn, mode="exercise")
        m_cont = vs.extract_regions(cont, kc_scn, mode="value-gap")
        assert int(m_disc.in_surrender.sum()) == 0
        assert bool(m_cont.in_surrender.all())
        assert not np.array_equal(m_disc.in_surrender, m_cont.in_surrender)
        only_in_cont = m_cont.in_surrender & ~m_disc.in_surrender
        assert int(only_in_cont.sum()) == m_cont.in_surrender.size

    def test_benchmark_reward_kinds_agree(self, c1_lattice):
        assert np.array_equal(c1_lattice["mask_ex"].in_surrender,
                              c1_lattice["mask_cont_ex"].in_surrender)

    def test_lattice_and_pde_masks_agree_near_boundary(self, c1_scn, c1_lattice, c1_pde):
        # The two routes carry opposite-signed O(dt) boundary biases (exercise
        # only at grid dates vs projected Crank-Nicolson), worth about one cell
        # each at N=360, M=401 and shrinking under time refinement; slices at a
        # fee breakpoint may disagree on emptiness (holding through the cheap
        # window wins there by a one-step margin).
        ml, mp = c1_lattice["mask"], c1_pde["mask"]
        bl = c1_lattice["boundary"]
        bp = c1_pde["boundary"]
        dt = float(bl.tnodes[1] - bl.tnodes[0])
        breakpoints = c1_scn.fee.breakpoints
        for n in range(len(bl.values)):
            t = float(bl.tnodes[n])
            near_break = any(abs(t - b) <= dt + 1e-12 for b in breakpoints)
            el, ep = np.isfinite(bl.values[n]), np.isfinite(bp.values[n])
            if el != ep:
                assert near_break, f"emptiness mismatch away from a breakpoint at t={t}"
                continue
            if el:
                il = int(np.searchsorted(ml.xnodes, bl.values[n] * (1 - 1e-12)))
                ip = int(np.searchsorted(mp.xnodes, bp.values[n] * (1 - 1e-12)))
                assert abs(il - ip) <= 3


@st.composite
def _never_surrender_scenarios(draw):
    """An exponential charge kappa over a constant or piecewise fee whose every
    rate is at most kappa: L(t) = g(t) (kappa - c(t)) >= 0 at every date."""
    T = draw(st.sampled_from([1.0, 5.0, 15.0, 30.0]))
    kappa = draw(st.floats(0.0, 0.1))
    shares = st.floats(0.0, 1.0)
    if draw(st.booleans()):
        fee = vs.FeeSpec("constant", rate=kappa * draw(shares))
    else:  # breakpoints on dates of the N = 24 grid
        fee = vs.FeeSpec("piecewise", breakpoints=(T / 4, T / 2),
                         rates=tuple(kappa * draw(shares) for _ in range(3)))
    return vs.Scenario(
        market=vs.MarketParams(r=draw(st.floats(-0.05, 0.1)), sigma=draw(st.floats(0.02, 1.0))),
        contract=vs.ContractParams(G=100.0, T=T, F0=100.0 * float(np.exp(draw(st.floats(-1.0, 1.0))))),
        fee=fee,
        charge=vs.ChargeSpec("exponential", T=T, kappa=kappa),
    )


class TestNeverSurrenderOracle:
    @given(scn=_never_surrender_scenarios())
    @settings(max_examples=100, deadline=None)
    def test_charge_at_least_every_fee_rate_never_surrenders(self, scn):
        # the source paper's theorem: L >= 0 at every date makes waiting to maturity
        # optimal, whatever r, sigma, T and F0 are
        N, M = 24, 41
        assert vs.never_surrender_check(scn, time_nodes(scn, N)[:-1]).holds
        chain = vs.build_chain(scn, N, M)
        disc = vs.bermudan_value(chain, scn, "discontinuous")
        cont = vs.bermudan_value(chain, scn, "continuous")
        # the continuous kind's reward is max(g x, h) with h the chain's own
        # hold-to-maturity value (the closed form is off a 41-node grid by its
        # discretization error): the value is h at every node, up to the solver tolerance
        assert np.max(np.abs(disc.values - cont.obstacle)) <= disc.metadata["solver_tol"]


@st.composite
def _piecewise_scenarios(draw, N=24):
    """A piecewise fee with 1 to 4 breakpoints on dates of the N-step grid and every
    rate in [0, 2 kappa + 0.01], against an exponential charge kappa: L(t) = g(t)
    (kappa - c(t)) takes both signs across the fee's intervals."""
    T = draw(st.sampled_from([5.0, 15.0, 30.0]))
    kappa = draw(st.floats(0.0, 0.05))
    steps = sorted(draw(st.lists(st.integers(1, N - 1), min_size=1, max_size=4, unique=True)))
    rates = draw(st.lists(st.floats(0.0, 2 * kappa + 0.01), min_size=len(steps) + 1,
                          max_size=len(steps) + 1))
    dates = np.linspace(0.0, T, N + 1)  # the grid's dates, as time_nodes builds them
    return vs.Scenario(
        market=vs.MarketParams(r=draw(st.floats(-0.05, 0.1)), sigma=draw(st.floats(0.05, 0.6))),
        contract=vs.ContractParams(G=100.0, T=T, F0=100.0),
        fee=vs.FeeSpec("piecewise", breakpoints=tuple(float(dates[k]) for k in steps),
                       rates=tuple(rates)),
        charge=vs.ChargeSpec("exponential", T=T, kappa=kappa),
    )


class TestSliceOracle:
    @given(scn=_piecewise_scenarios())
    @settings(max_examples=100, deadline=None)
    def test_no_surrender_node_where_L_is_positive(self, scn):
        # the source paper's theorem slice by slice: L(t_n) > 0 empties the surrender
        # slice at t_n. The chain matches the drift exactly, so holding one step is
        # worth at least the payout times e^{(kappa - c_n) dt} = e^{L/g dt}, even next
        # to a fee breakpoint. Both modes mark a node whose value is within
        # tol_abs + tol_rel * payout of the payout, so the lattice must mark no node
        # whose one-step premium exceeds twice that (the factor 2 keeps rounding out)
        N, M = 24, 41
        surf = vs.bermudan_value(vs.build_chain(scn, N, M), scn, "discontinuous")
        t = surf.tnodes[:-1]
        lift = np.expm1(vs.L_value(scn, t) / scn.charge(t) * (surf.tnodes[1] - surf.tnodes[0]))
        ob = surf.obstacle[:-1]
        for mode in ("value-gap", "exercise"):
            mask = vs.extract_regions(surf, scn, mode=mode)
            resolved = ob * lift[:, None] > 2 * (mask.tol_abs + mask.tol_rel * ob)
            assert not np.any(mask.in_surrender & resolved), mode
