"""Fee/charge evaluators, reward, L, and scenario serialization."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

import vastop as vs
from vastop.model import (
    _SCENARIO_RULES, ChargeSpec, ConfigError, ContractParams, DomainError, FeeSpec, MarketParams,
    is_finite_number,
)
from vastop.surfaces import time_nodes


def test_market_contract_validation():
    with pytest.raises(ConfigError):
        MarketParams(r=0.03, sigma=0.0)
    with pytest.raises(ConfigError):
        MarketParams(r=float("nan"), sigma=0.2)
    with pytest.raises(ConfigError):
        ContractParams(G=-1.0, T=15.0, F0=100.0)
    with pytest.raises(ConfigError):
        ContractParams(G=100.0, T=0.0, F0=100.0)


class TestFeeSpec:
    def test_constant(self):
        fee = FeeSpec("constant", rate=0.02)
        assert fee(3.0) == 0.02
        assert fee.integral(1.0, 4.0) == pytest.approx(0.06, abs=1e-15)

    def test_constant_out_of_bounds(self):
        with pytest.raises(ConfigError):
            FeeSpec("constant", rate=1.5)

    def test_piecewise_breakpoint_convention(self, c1_scn):
        # a breakpoint belongs to the interval it ends: 1_{a < t <= b}
        fee = c1_scn.fee
        assert fee(0.0) == 0.010908
        assert fee(5.0) == 0.010908
        assert fee(7.0) == 0.005454
        assert fee(10.0) == 0.005454
        assert fee(10.25) == 0.010908
        assert fee.rate_right(5.0) == 0.005454
        assert fee.rate_right(10.0) == 0.010908

    def test_piecewise_integral_exact(self, c1_scn):
        fee = c1_scn.fee
        assert fee.integral(0.0, 15.0) == pytest.approx(
            0.010908 * 5 + 0.005454 * 5 + 0.010908 * 5, abs=1e-15
        )
        assert fee.integral(4.0, 6.0) == pytest.approx(0.010908 + 0.005454, abs=1e-15)

    def test_piecewise_validation(self):
        with pytest.raises(ConfigError):
            FeeSpec("piecewise", breakpoints=(5.0, 5.0), rates=(0.1, 0.1, 0.1))
        with pytest.raises(ConfigError):
            FeeSpec("piecewise", breakpoints=(5.0,), rates=(0.1,))
        with pytest.raises(ConfigError):
            FeeSpec("piecewise", breakpoints=(5.0,), rates=(0.1, 1.2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_piecewise_breakpoints_must_be_finite(self, bad):
        with pytest.raises(ConfigError, match="fee.breakpoints"):
            FeeSpec("piecewise", breakpoints=(bad,), rates=(0.01, 0.01))
        with pytest.raises(ConfigError, match="fee.breakpoints"):
            FeeSpec("piecewise", breakpoints=(5.0, bad), rates=(0.01, 0.01, 0.01))

    def test_smooth_fee_integral_matches_quadrature(self):
        fee = vs.fee_from_cubic_charge_bound(15.0, 0.1)
        for (a, b) in [(0.0, 15.0), (2.0, 7.5), (14.0, 15.0)]:
            quad, _ = integrate.quad(fee.rate_fn, a, b, epsabs=1e-13, epsrel=1e-13)
            assert fee.integral(a, b) == pytest.approx(quad, abs=1e-10)

    def test_smooth_fee_needs_its_integral(self):
        with pytest.raises(ConfigError, match="integral_fn"):
            FeeSpec("smooth", rate_fn=lambda t: 0.01 + 0.0 * t)

    @given(
        t=st.floats(0.0, 15.0),
        s=st.floats(0.0, 15.0),
        u=st.floats(0.0, 15.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_piecewise_integral_additivity(self, t, s, u):
        a, b, c = sorted((t, s, u))
        fee = vs.benchmark_scenario("c1").fee
        assert fee.integral(a, c) == pytest.approx(
            fee.integral(a, b) + fee.integral(b, c), abs=1e-12
        )


class TestChargeSpec:
    def test_exponential_values(self):
        charge = ChargeSpec("exponential", T=15.0, kappa=0.0055)
        assert charge(15.0) == 1.0
        assert charge(0.0) == pytest.approx(math.exp(-0.0825), rel=1e-12)

    def test_cubic_values(self):
        charge = ChargeSpec("cubic", T=15.0, k=0.1)
        assert charge(0.0) == pytest.approx(0.9, abs=1e-15)
        assert charge(15.0) == 1.0

    def test_cubic_k_range(self):
        with pytest.raises(ConfigError):
            ChargeSpec("cubic", T=15.0, k=1.0)

    @pytest.mark.parametrize("field", [{"kappa": math.nan}, {"kappa": math.inf},
                                       {"kappa": -math.inf}, {"T": math.nan}, {"T": math.inf}])
    def test_exponential_parameters_must_be_finite(self, field):
        kwargs = {"T": 15.0, "kappa": 0.0055, **field}
        with pytest.raises(ConfigError, match=f"charge.{next(iter(field))}"):
            ChargeSpec("exponential", **kwargs)

    @pytest.mark.parametrize("kind,kwargs", [
        ("exponential", {"kappa": 0.0055}),
        ("cubic", {"k": 0.1}),
    ])
    def test_analytic_time_derivative_matches_central_differences(self, kind, kwargs):
        charge = ChargeSpec(kind, T=15.0, **kwargs)
        rng = np.random.default_rng(42)
        t = rng.uniform(0.05, 14.95, size=100)
        h = 1e-5
        fd = (charge(t + h) - charge(t - h)) / (2 * h)
        assert np.allclose(charge.dt(t), fd, rtol=1e-6)

    # the intervals of the run document's rules, ends included
    @given(T=st.floats(2.0**-1022, 100.0), kappa=st.floats(0.0, 1.0),
           k=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(T=2.0**-1022, kappa=0.0, k=5e-324)
    @example(T=100.0, kappa=1.0, k=1.0 - 2.0**-53)
    @settings(max_examples=200, deadline=None)
    def test_named_charges_are_exactly_one_at_maturity(self, T, kappa, k):
        assert _SCENARIO_RULES["contract"]["T"][2] == "[2**-1022, 100]"
        assert _SCENARIO_RULES["charge"]["kind"]["exponential"]["kappa"][2] == "[0, 1]"
        assert _SCENARIO_RULES["charge"]["kind"]["cubic"]["k"][2] == "(0, 1)"
        assert ChargeSpec("exponential", T, kappa)(T) == 1.0
        assert ChargeSpec("cubic", T, k=k)(T) == 1.0

    @given(t=st.floats(0.0, 15.0))
    @settings(max_examples=100, deadline=None)
    def test_factor_in_unit_interval(self, t):
        charge = ChargeSpec("exponential", T=15.0, kappa=0.0055)
        g = charge(t)
        assert 0.0 < g <= 1.0


# each kind of fee and charge, from T, a number u in (0, 1) and breakpoints
_SPECS = {
    "constant": lambda T, u, bps: FeeSpec("constant", rate=u),
    "piecewise": lambda T, u, bps: FeeSpec("piecewise", breakpoints=bps,
                                           rates=tuple(u / (1 + j) for j in range(len(bps) + 1))),
    "smooth": lambda T, u, bps: vs.fee_from_cubic_charge_bound(T, u),
    "exponential": lambda T, u, bps: ChargeSpec("exponential", T=T, kappa=u),
    "cubic": lambda T, u, bps: ChargeSpec("cubic", T=T, k=u),
}


@pytest.mark.parametrize("kind", sorted(_SPECS))
@given(T=st.floats(1e-3, 100.0), u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       N=st.integers(1, 400), steps=st.sets(st.integers(1, 400), min_size=1, max_size=3),
       drawn=st.lists(st.floats(0.0, 1.0), max_size=20))
@settings(max_examples=40, deadline=None)
def test_a_scalar_call_has_the_bits_of_its_date_in_any_vector(kind, T, u, N, steps, drawn):
    # the layers evaluate a fee or charge once per date vector, and a scalar call at
    # one of those dates must give the same float to the last bit
    tn = np.linspace(0.0, T, N + 1)
    spec = _SPECS[kind](T, u, tuple(sorted({float(tn[min(j, N)]) for j in steps})))
    dates = np.concatenate([tn, 0.5 * (tn[:-1] + tn[1:]), T * np.asarray(drawn)])
    names = ("__call__", "dt") if isinstance(spec, ChargeSpec) else ("__call__", "rate_right")
    for name in names:
        evaluate = getattr(spec, name)
        scalars = [evaluate(float(t)) for t in dates]
        assert all(type(s) is float for s in scalars), name
        assert np.asarray(scalars).tobytes() == evaluate(dates).tobytes(), name
    if isinstance(spec, FeeSpec):
        # the layers' pairs (steps, 0 -> t_n, t_n -> mid, t_n -> T), s == t, and
        # pairs of drawn dates, which span the breakpoints between them
        mids = 0.5 * (tn[:-1] + tn[1:])
        lo, hi = np.minimum(dates, dates[::-1]), np.maximum(dates, dates[::-1])
        a = np.concatenate([tn[:-1], np.zeros(N + 1), tn[:-1], tn, dates, lo])
        b = np.concatenate([tn[1:], tn, mids, np.full(N + 1, T), dates, hi])
        scalars = [spec.integral(float(p), float(q)) for p, q in zip(a, b)]
        assert all(type(s) is float for s in scalars)
        assert np.asarray(scalars).tobytes() == spec.integral(a, b).tobytes()
        assert spec.integral(0.0, tn).tobytes() == spec.integral(np.zeros(N + 1), tn).tobytes()


class TestReward:
    def test_maturity_branch(self, c1_scn):
        assert vs.reward(c1_scn, 15.0, 80.0) == 100.0
        assert vs.reward(c1_scn, 15.0, 130.0) == 130.0

    def test_pre_maturity_branch(self, c1_scn):
        expected = 100.0 * math.exp(-0.0055 * 15.0)
        assert vs.reward(c1_scn, 0.0, 100.0) == pytest.approx(expected, rel=1e-12)

    def test_discontinuity_at_maturity_below_guarantee(self, c1_scn):
        # left limit in t is x < G while the maturity value is G
        x = 80.0
        near = vs.reward(c1_scn, 15.0 - 1e-9, x)
        assert near == pytest.approx(x, rel=1e-8)
        assert vs.reward(c1_scn, 15.0, x) == 100.0

    @given(
        x=st.floats(1.0, 1e4),
        y=st.floats(1.0, 1e4),
        t=st.floats(0.0, 14.999),
    )
    @settings(max_examples=100, deadline=None)
    def test_lipschitz_in_state(self, x, y, t):
        scn = vs.benchmark_scenario("c1")
        assert abs(vs.reward(scn, t, x) - vs.reward(scn, t, y)) <= abs(x - y) * (1 + 1e-12)


def _smooth_cubic_scenario():
    """Demo 03's pair: the fee saturating the cubic charge's never-surrender bound."""
    return vs.Scenario(market=MarketParams(r=0.03, sigma=0.2),
                       contract=ContractParams(G=100.0, T=15.0, F0=100.0),
                       fee=vs.fee_from_cubic_charge_bound(15.0, 0.1),
                       charge=ChargeSpec("cubic", T=15.0, k=0.1))


class TestLValue:
    def test_time_only_formula(self, lowch_scn):
        # exponential charge, constant fee: L = (kappa - c) g(t)
        t = 3.0
        expected = (0.0055 - 0.02) * math.exp(-0.0055 * 12.0)
        assert vs.L_value(lowch_scn, t) == pytest.approx(expected, rel=1e-12)

    def test_sign_tracks_fee_gap(self, c1_scn):
        for t, sign in [(2.0, -1), (7.0, 1), (10.0, 1), (12.0, -1)]:
            assert np.sign(vs.L_value(c1_scn, t)) == sign

    def test_matched_rates_give_zero(self, kc_scn):
        for t in (0.0, 3.0, 14.9):
            assert vs.L_value(kc_scn, t) == 0.0

    def test_independent_of_state_for_time_only_inputs(self, c1_scn):
        # L takes no account value, and neither the guarantee nor F0 moves it
        other = dataclasses.replace(c1_scn, contract=ContractParams(G=1.0, T=15.0, F0=1000.0))
        ts = np.linspace(0.0, 14.9, 50)
        assert np.array_equal(vs.L_value(other, ts), vs.L_value(c1_scn, ts))

    def test_domain_excludes_maturity(self, c1_scn):
        with pytest.raises(DomainError):
            vs.L_value(c1_scn, 15.0)
        with pytest.raises(DomainError):
            vs.L_value(c1_scn, np.array([0.0, 7.0, 15.0]))
        with pytest.raises(DomainError):
            vs.L_value(c1_scn, np.array([-1e-9, 7.0]))

    @pytest.mark.parametrize("build", [
        vs.low_charge_scenario, vs.matched_exponential_scenario,
        lambda: vs.benchmark_scenario("c1"), lambda: vs.benchmark_scenario("c2"),
        _smooth_cubic_scenario,
    ], ids=["constant", "matched", "piecewise-c1", "piecewise-c2", "smooth-cubic"])
    @pytest.mark.parametrize("N", [12, 360, 1440])
    def test_date_vector_matches_per_date_values_bitwise(self, build, N):
        scn = build()
        # the breakpoints themselves, where the piecewise fee switches
        dates = np.concatenate([time_nodes(scn, N)[:-1], [5.0, 10.0]])
        vector = np.asarray(vs.L_value(scn, dates))
        per_date = np.array([vs.L_value(scn, float(t)) for t in dates])
        assert vector.shape == dates.shape
        assert np.array_equal(vector.view(np.int64), per_date.view(np.int64))


class TestScenarioSerialization:
    def test_round_trip(self, c1_scn):
        doc = vs.scenario_to_dict(c1_scn)
        back = vs.scenario_from_dict(doc)
        assert vs.scenario_to_dict(back) == doc

    def test_missing_field_path_in_message(self):
        doc = vs.scenario_to_dict(vs.benchmark_scenario("c1"))
        del doc["market"]["sigma"]
        with pytest.raises(ConfigError, match="market.sigma"):
            vs.scenario_from_dict(doc)

    @pytest.mark.parametrize("mutate,path", [
        (lambda d: d.update(extra=1), "extra"),
        (lambda d: d["market"].update(mu=0.1), "market.mu"),
        (lambda d: d["fee"].update(slope=0.1), "fee.slope"),
        (lambda d: d["charge"].update(beta=0.1), "charge.beta"),
    ])
    def test_unknown_keys_rejected(self, mutate, path):
        doc = vs.scenario_to_dict(vs.benchmark_scenario("c1"))
        mutate(doc)
        with pytest.raises(ConfigError, match=path.split(".")[-1]):
            vs.scenario_from_dict(doc)

    def test_non_serializable_kind_rejected(self):
        doc = vs.scenario_to_dict(vs.benchmark_scenario("c1"))
        doc["fee"] = {"kind": "smooth"}
        with pytest.raises(ConfigError, match="fee.kind"):
            vs.scenario_from_dict(doc)

    @pytest.mark.parametrize("path, value", [
        ("market.r", math.nan),
        ("market.sigma", math.inf),
        ("contract.G", -math.inf),
        ("contract.F0", "100"),
        ("charge.kappa", math.nan),
        ("charge.kappa", math.inf),
        ("charge.kappa", True),
        ("fee.breakpoints", [math.nan, 10.0]),
        ("fee.breakpoints", ["5", 10.0]),
        ("fee.rates", [0.01, math.inf, 0.01]),
        ("fee.rates", [0.01, None, 0.01]),
        # the document's domain rules: |r| <= 1, G and F0 in [1e-100, 1e100], T a
        # normal float (more G and F0 cases at the end)
        ("market.r", -1e300),
        ("market.r", 1.0000001),
        ("contract.G", 5e-324),
        ("contract.T", 1e-310),
        ("contract.F0", 5e-324),
        ("contract.T", 1000.0),  # T <= 100
        ("charge.kappa", 1.0000001),  # kappa <= 1
        ("charge.kappa", 1e300),
        ("fee.kind", [1]),  # an unhashable kind
        ("charge.kind", [1]),
        ("contract.G", 1e200),  # G, F0 in [1e-100, 1e100]
        ("contract.F0", 1e-300),
        ("market.sigma", 10.0000001),  # sigma <= 10
    ])
    def test_non_finite_and_non_numbers_rejected(self, path, value):
        doc = vs.scenario_to_dict(vs.benchmark_scenario("c1"))
        section, key = path.split(".")
        doc[section][key] = value
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}"):
            vs.scenario_from_dict(doc)

    @pytest.mark.parametrize("path, value", [
        ("market.r", -1.0), ("market.r", 1.0), ("contract.F0", 1e-100), ("contract.F0", 1e100),
        ("contract.G", 1e-100), ("contract.G", 1e100),
        ("charge.kappa", 0.0), ("charge.kappa", 1.0), ("market.sigma", 10.0),
    ])
    def test_document_domain_edges_accepted(self, path, value):
        doc = vs.scenario_to_dict(vs.benchmark_scenario("c1"))
        section, key = path.split(".")
        doc[section][key] = value
        assert getattr(getattr(vs.scenario_from_dict(doc), section), key) == value


# the ends of the interval of every scenario number of the rules
_ENDS = {
    "market.r": (-1.0, 1.0), "market.sigma": (0.0, 10.0),
    "contract.G": (1e-100, 1e100), "contract.T": (2.0**-1022, 100.0), "contract.F0": (1e-100, 1e100),
    "fee.rate": (0.0, 1.0), "fee.breakpoints": (0.0, math.inf), "fee.rates": (0.0, 1.0),
    "charge.kappa": (0.0, 1.0), "charge.k": (0.0, 1.0),
}


def _scenario_doc(path: str, value) -> dict:
    """A valid scenario document (constant fee, exponential charge) with value at path:
    a list key holds it as one element, and a key of a kind comes with that kind."""
    doc = {"market": {"r": 0.03, "sigma": 0.2}, "contract": {"G": 100.0, "T": 15.0, "F0": 100.0},
           "fee": {"kind": "constant", "rate": 0.01},
           "charge": {"kind": "exponential", "kappa": 0.01}}
    section, key = path.split(".")
    doc[section] = {
        "fee.breakpoints": {"kind": "piecewise", "breakpoints": [value], "rates": [0.01, 0.01]},
        "fee.rates": {"kind": "piecewise", "breakpoints": [5.0], "rates": [0.01, value]},
        "charge.k": {"kind": "cubic", "k": value},
    }.get(path, {**doc[section], key: value})
    return doc


def _built(doc: dict) -> vs.Scenario:
    """The scenario of doc built from the dataclasses, as a library caller builds one."""
    contract = doc["contract"]
    return vs.Scenario(market=MarketParams(**doc["market"]), contract=ContractParams(**contract),
                       fee=FeeSpec(**doc["fee"]), charge=ChargeSpec(**doc["charge"], T=contract["T"]))


def _outcome(build, doc: dict):
    """The scenario build makes of doc, or the message of the ConfigError it raises."""
    try:
        return build(doc)
    except ConfigError as exc:
        return str(exc)


def test_every_scenario_number_has_its_ends_listed():
    numbers = set()
    for section, rules in _SCENARIO_RULES.items():
        kinds = rules.get("kind")
        numbers |= {f"{section}.{key}" for key in
                    (set().union(*kinds.values()) if isinstance(kinds, dict) else rules)}
    assert numbers == set(_ENDS)


@pytest.mark.parametrize("path", sorted(_ENDS))
def test_library_and_document_agree_at_every_rule_end(path):
    # each end itself and the floats on either side of it: the dataclasses accept what
    # a document may give and refuse the rest with the same message
    refused = set()
    for end in _ENDS[path]:
        for value in {math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf)}:
            doc = _scenario_doc(path, value)
            built = _outcome(_built, doc)
            assert built == _outcome(vs.scenario_from_dict, doc), value
            refused.add(isinstance(built, str))
            if isinstance(built, str):
                assert built.startswith(path), built
            else:
                assert vs.scenario_from_dict(vs.scenario_to_dict(built)) == built
    assert refused == {True, False}


def test_charge_maturity_follows_the_contract_rule():
    with pytest.raises(ConfigError, match=r"^charge\.T must be a number in \[2\*\*-1022, 100\]"):
        ChargeSpec("exponential", T=math.nextafter(100.0, math.inf), kappa=0.01)


@pytest.mark.parametrize("value, ok", [
    (0, True), (-3, True), (1.5, True), (True, False), (False, False),
    (math.nan, False), (math.inf, False), (-math.inf, False),
    pytest.param(2**1000, True, id="int-2**1000"), pytest.param(2**1100, False, id="int-2**1100"),
    ("1", False), (None, False), ([1.0], False),
])
def test_is_finite_number(value, ok):
    assert is_finite_number(value) is ok
