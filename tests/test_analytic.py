"""Closed forms against Monte Carlo oracles and structural identities."""

from __future__ import annotations

import math

import numpy as np
import pytest

import vastop as vs
from vastop.model import DomainError, UnsupportedScenarioError


def _terminal_draws(scn, npaths, seed):
    """Exact lognormal terminal account values in one step."""
    rng = np.random.default_rng(seed)
    T = scn.contract.T
    r, sig = scn.market.r, scn.market.sigma
    drift = r * T - scn.fee.integral(0.0, T) - 0.5 * sig * sig * T
    return scn.contract.F0 * np.exp(drift + sig * math.sqrt(T) * rng.standard_normal(npaths))


class TestMaturityBenefitValue:
    def test_terminal_branch(self, kc_scn):
        assert vs.maturity_benefit_value(kc_scn, 15.0, 130.0) == 130.0
        assert vs.maturity_benefit_value(kc_scn, 15.0, 80.0) == 100.0

    def test_small_state_limit_is_guarantee_floor(self, kc_scn):
        floor = 100.0 * math.exp(-0.03 * 15.0)
        assert vs.maturity_benefit_value(kc_scn, 0.0, 1e-8) == pytest.approx(floor, rel=1e-9)

    def test_zero_fee_value_against_monte_carlo(self):
        scn = vs.matched_exponential_scenario(0.0)
        closed = vs.maturity_benefit_value(scn, 0.0, 100.0)
        draws = np.exp(-0.03 * 15.0) * np.maximum(100.0, _terminal_draws(scn, 10**6, 123))
        se = draws.std() / 1000.0
        assert abs(closed - draws.mean()) <= 3.0 * se
        assert closed == pytest.approx(110.34, abs=5e-3)

    def test_monotone_and_convex_in_state(self, c1_scn):
        x = np.linspace(5.0, 400.0, 200)
        h = np.asarray(vs.maturity_benefit_value(c1_scn, 2.0, x))
        assert np.all(np.diff(h) >= -1e-9 * 100.0)
        slopes = np.diff(h) / np.diff(x)
        assert np.all(np.diff(slopes) >= -1e-9)

    def test_floor_bound(self, c1_scn):
        x = np.geomspace(1.0, 1000.0, 50)
        for t in (0.0, 7.0, 14.0):
            floor = 100.0 * math.exp(-0.03 * (15.0 - t))
            assert np.all(np.asarray(vs.maturity_benefit_value(c1_scn, t, x)) >= floor - 1e-10)

    def test_put_parity(self, c1_scn):
        # max(G, F) = F + (G - F)_+ termwise in the closed forms
        x = np.geomspace(5.0, 800.0, 80)
        for t in (0.0, 6.0, 13.0):
            h = np.asarray(vs.maturity_benefit_value(c1_scn, t, x))
            put = np.asarray(vs.guarantee_put_value(c1_scn, t, x))
            acct = x * math.exp(-c1_scn.fee.integral(t, 15.0))
            assert np.allclose(h, acct + put, rtol=1e-10, atol=1e-10)

    def test_state_fee_unsupported(self):
        from vastop.model import ChargeSpec, ContractParams, FeeSpec, MarketParams, Scenario

        scn = Scenario(
            market=MarketParams(r=0.03, sigma=0.2),
            contract=ContractParams(G=100.0, T=15.0, F0=100.0),
            fee=FeeSpec("state", rate_fn=lambda t, x: 0.01 * x / (x + 100.0)),
            charge=ChargeSpec("exponential", T=15.0, kappa=0.0055),
        )
        with pytest.raises(UnsupportedScenarioError):
            vs.maturity_benefit_value(scn, 0.0, 100.0)


class TestNeverSurrenderCheck:
    def test_matched_rates_hold(self):
        scn = vs.matched_exponential_scenario(0.02)
        tg = np.linspace(0.0, 14.9, 30)
        xg = np.geomspace(10.0, 1000.0, 21)
        report = vs.never_surrender_check(scn, tg, xg)
        assert report.holds and not report.violations

    def test_charge_above_fee_holds(self):
        scn = vs.low_charge_scenario(kappa=0.03, c=0.02)
        report = vs.never_surrender_check(scn, np.linspace(0.0, 14.9, 20), [50.0, 100.0, 200.0])
        assert report.holds

    def test_benchmark_violations_exactly_outside_cheap_window(self, c1_scn):
        tg = np.linspace(0.0, 15.0, 361)[:-1]
        report = vs.never_surrender_check(c1_scn, tg, [100.0])
        assert not report.holds
        viol_t = np.array(sorted({t for t, _ in report.violations}))
        expected = tg[(tg <= 5.0 + 1e-12) | (tg > 10.0 + 1e-12)]
        assert np.allclose(viol_t, expected)

    def test_unit_charge_zero_fee_holds(self):
        scn = vs.matched_exponential_scenario(0.0)  # g == 1, c == 0, L == 0
        report = vs.never_surrender_check(scn, [0.0, 5.0, 14.0], [10.0, 100.0])
        assert report.holds and report.min_L == 0.0

    def test_empty_grid_rejected(self, c1_scn):
        with pytest.raises(DomainError):
            vs.never_surrender_check(c1_scn, [], [100.0])


class TestFeeChargeMatching:
    def test_cubic_bound_values(self):
        assert vs.cubic_charge_fee_bound(15.0, 0.1, 15.0) == 0.0
        assert vs.cubic_charge_fee_bound(15.0, 0.1, 0.0) == pytest.approx(0.02 / 0.9, rel=1e-12)

    def test_cubic_bound_decreasing_probe(self):
        assert vs.cubic_charge_fee_bound(15.0, 0.1, 0.0) > vs.cubic_charge_fee_bound(15.0, 0.1, 7.5)

    def test_cubic_bound_domain(self):
        with pytest.raises(DomainError):
            vs.cubic_charge_fee_bound(15.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            vs.cubic_charge_fee_bound(15.0, 0.1, 16.0)

    def test_saturating_fee_eliminates_surrender_incentive(self):
        from vastop.model import ChargeSpec, ContractParams, FeeSpec, MarketParams, Scenario

        T, k = 15.0, 0.1
        bound_fee = vs.fee_from_cubic_charge_bound(T, k)
        # stay a hair inside the bound so float rounding cannot flip the sign
        fee = FeeSpec(
            "smooth",
            rate_fn=lambda t: (1.0 - 1e-9) * np.asarray(bound_fee.rate_fn(t)),
            integral_fn=lambda a, b: (1.0 - 1e-9) * bound_fee.integral_fn(a, b),
            horizon=T,
        )
        scn = Scenario(
            market=MarketParams(r=0.03, sigma=0.2),
            contract=ContractParams(G=100.0, T=T, F0=100.0),
            fee=fee,
            charge=ChargeSpec("cubic", T=T, k=k),
        )
        report = vs.never_surrender_check(scn, np.linspace(0.0, 14.99, 60), [50.0, 100.0, 300.0])
        assert report.holds
        # the exact saturating fee sits on the boundary of the condition
        exact = Scenario(
            market=MarketParams(r=0.03, sigma=0.2),
            contract=ContractParams(G=100.0, T=T, F0=100.0),
            fee=bound_fee,
            charge=ChargeSpec("cubic", T=T, k=k),
        )
        exact_report = vs.never_surrender_check(exact, np.linspace(0.0, 14.99, 60), [100.0])
        assert exact_report.min_L >= -1e-12

    def test_matching_exponential_rate(self):
        assert vs.matching_exponential_rate(0.02) == 0.02
        assert vs.matching_exponential_rate(0.0) == 0.0
        with pytest.raises(DomainError):
            vs.matching_exponential_rate(-0.01)
        scn = vs.matched_exponential_scenario(0.01)  # kappa = matching rate
        report = vs.never_surrender_check(scn, np.linspace(0.0, 14.9, 25), [20.0, 100.0, 500.0])
        assert report.holds

