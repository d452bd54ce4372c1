"""Closed forms against Monte Carlo oracles and structural identities."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import vastop as vs
from vastop.model import DomainError


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


_T = 15.0
_FEES = {
    "constant": vs.FeeSpec("constant", rate=0.01),
    "piecewise": vs.FeeSpec("piecewise", breakpoints=(5.0, 10.0),
                            rates=(0.010908, 0.005454, 0.010908)),
    "smooth": vs.fee_from_cubic_charge_bound(_T, 0.3),
}
_CHARGES = {
    "exponential": vs.ChargeSpec("exponential", T=_T, kappa=0.0055),
    "cubic": vs.ChargeSpec("cubic", T=_T, k=0.3),
}


@pytest.mark.parametrize("sigma", [0.2, 5e-324], ids=["sigma", "subnormal-sigma"])
@pytest.mark.parametrize("charge", sorted(_CHARGES))
@pytest.mark.parametrize("fee", sorted(_FEES))
@pytest.mark.parametrize("name", ["maturity_benefit_value", "guarantee_put_value"])
def test_a_scalar_date_has_the_bits_of_its_row_in_any_vector(name, fee, charge, sigma):
    # the layers evaluate a closed form once per date vector, one row per date, and
    # a scalar call at one of those dates must give the same floats to the last bit.
    # The dates include T (the maturity branch), and near T a subnormal sigma takes
    # sigma sqrt(tau) to 0 (F_T is then deterministic)
    scn = vs.Scenario(vs.MarketParams(0.03, sigma), vs.ContractParams(100.0, _T, 100.0),
                      _FEES[fee], _CHARGES[charge])
    evaluate = getattr(vs, name)
    dates = np.concatenate([np.linspace(0.0, _T, 25), [2.0 / 3.0, _T - 0.1, _T - 1e-9]])
    assert sigma > 1e-300 or sigma * math.sqrt(_T - dates[-1]) == 0.0
    x = np.geomspace(1.0, 800.0, 41)
    rows = evaluate(scn, dates, x)
    assert rows.shape == (dates.size, x.size)
    for t, row in zip(dates, rows):
        assert evaluate(scn, float(t), x).tobytes() == row.tobytes()
        scalars = [evaluate(scn, float(t), float(xi)) for xi in x[::8]]
        assert all(type(v) is float for v in scalars)
        assert np.asarray(scalars).tobytes() == row[::8].tobytes()
    assert evaluate(scn, dates, float(x[20])).tobytes() == rows[:, 20].tobytes()


class TestNeverSurrenderCheck:
    def test_matched_rates_hold(self):
        scn = vs.matched_exponential_scenario(0.02)
        report = vs.never_surrender_check(scn, np.linspace(0.0, 14.9, 30))
        assert report.holds and not report.violations

    def test_charge_above_fee_holds(self):
        live = vs.low_charge_scenario()  # fee 0.02
        scn = dataclasses.replace(live, charge=dataclasses.replace(live.charge, kappa=0.03))
        report = vs.never_surrender_check(scn, np.linspace(0.0, 14.9, 20))
        assert report.holds

    def test_benchmark_violations_exactly_outside_cheap_window(self, c1_scn):
        tg = np.linspace(0.0, 15.0, 361)[:-1]
        report = vs.never_surrender_check(c1_scn, tg)
        assert not report.holds
        expected = tg[(tg <= 5.0 + 1e-12) | (tg > 10.0 + 1e-12)]
        assert np.array_equal(report.violations, expected)

    def test_unit_charge_zero_fee_holds(self):
        scn = vs.matched_exponential_scenario(0.0)  # g == 1, c == 0, L == 0
        report = vs.never_surrender_check(scn, [0.0, 5.0, 14.0])
        assert report.holds and report.min_L == 0.0

    def test_empty_grid_rejected(self, c1_scn):
        with pytest.raises(DomainError):
            vs.never_surrender_check(c1_scn, [])

    @pytest.mark.parametrize("dates", [[0.0, 15.0], [-1.0, 7.0]])
    def test_dates_outside_contract_rejected(self, c1_scn, dates):
        with pytest.raises(DomainError):
            vs.never_surrender_check(c1_scn, dates)


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
        )
        scn = Scenario(
            market=MarketParams(r=0.03, sigma=0.2),
            contract=ContractParams(G=100.0, T=T, F0=100.0),
            fee=fee,
            charge=ChargeSpec("cubic", T=T, k=k),
        )
        report = vs.never_surrender_check(scn, np.linspace(0.0, 14.99, 60))
        assert report.holds
        # the exact saturating fee sits on the boundary of the condition
        exact = Scenario(
            market=MarketParams(r=0.03, sigma=0.2),
            contract=ContractParams(G=100.0, T=T, F0=100.0),
            fee=bound_fee,
            charge=ChargeSpec("cubic", T=T, k=k),
        )
        exact_report = vs.never_surrender_check(exact, np.linspace(0.0, 14.99, 60))
        assert exact_report.min_L >= -1e-12

    def test_matched_exponential_scenario_never_surrenders(self):
        scn = vs.matched_exponential_scenario(0.01)  # kappa = c, the least rate that holds
        report = vs.never_surrender_check(scn, np.linspace(0.0, 14.9, 25))
        assert report.holds

