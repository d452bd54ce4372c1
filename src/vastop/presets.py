"""Ready-made scenarios used across tests, demos and the CLI benchmark task."""

from __future__ import annotations

from .model import ChargeSpec, ContractParams, FeeSpec, MarketParams, Scenario

__all__ = [
    "BENCHMARK_FEES",
    "benchmark_scenario",
    "matched_exponential_scenario",
    "low_charge_scenario",
]

# Two-tier fee schedules over a 15-year term against an exponential charge
# with kappa = 0.0055. "c1" drops the fee below kappa on (5, 10] only, which
# produces a disconnected surrender region; "c2" drops it on (10, 15], which
# empties the region near maturity.
BENCHMARK_FEES = {
    "c1": {"breakpoints": (5.0, 10.0), "rates": (0.010908, 0.005454, 0.010908)},
    "c2": {"breakpoints": (10.0,), "rates": (0.010908, 0.005454)},
}


def benchmark_scenario(fee_label: str = "c1") -> Scenario:
    """r=0.03, sigma=0.2, G=F0=100, T=15, exponential charge, two-tier fee."""
    if fee_label not in BENCHMARK_FEES:
        raise ValueError(f"fee_label must be one of {sorted(BENCHMARK_FEES)}")
    fee = BENCHMARK_FEES[fee_label]
    T = 15.0
    return Scenario(
        market=MarketParams(r=0.03, sigma=0.2),
        contract=ContractParams(G=100.0, T=T, F0=100.0),
        fee=FeeSpec("piecewise", breakpoints=fee["breakpoints"], rates=fee["rates"]),
        charge=ChargeSpec("exponential", T=T, kappa=0.0055),
    )


def matched_exponential_scenario(c: float = 0.01, *, r: float = 0.03, sigma: float = 0.2,
                                 G: float = 100.0, T: float = 15.0, F0: float = 100.0) -> Scenario:
    """Constant fee c with exponential charge rate kappa = c: holding to maturity
    is optimal and the value collapses to the maturity-benefit closed form."""
    return Scenario(
        market=MarketParams(r=r, sigma=sigma),
        contract=ContractParams(G=G, T=T, F0=F0),
        fee=FeeSpec("constant", rate=c),
        charge=ChargeSpec("exponential", T=T, kappa=c),
    )


def low_charge_scenario(*, kappa: float = 0.0055, c: float = 0.02) -> Scenario:
    """Charge relaxes slower than the fee accrues (kappa < c), so the surrender
    incentive is live at every date: threshold-type region at all times."""
    T = 15.0
    return Scenario(
        market=MarketParams(r=0.03, sigma=0.2),
        contract=ContractParams(G=100.0, T=T, F0=100.0),
        fee=FeeSpec("constant", rate=c),
        charge=ChargeSpec("exponential", T=T, kappa=kappa),
    )
