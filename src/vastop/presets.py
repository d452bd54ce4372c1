"""Ready-made scenarios used across tests, demos and the CLI benchmark task.

All share one market and contract; only the fee label of `benchmark_scenario` and
the fee rate of `matched_exponential_scenario` are settable. A test that needs
another scenario derives it with `dataclasses.replace`.
"""

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


def _scenario(fee: FeeSpec, kappa: float) -> Scenario:
    """r=0.03, sigma=0.2, G=F0=100, T=15, the fee, and an exponential charge at rate kappa."""
    return Scenario(
        market=MarketParams(r=0.03, sigma=0.2),
        contract=ContractParams(G=100.0, T=15.0, F0=100.0),
        fee=fee,
        charge=ChargeSpec("exponential", T=15.0, kappa=kappa),
    )


def benchmark_scenario(fee_label: str = "c1") -> Scenario:
    """Two-tier fee `BENCHMARK_FEES[fee_label]` against the charge rate 0.0055."""
    if fee_label not in BENCHMARK_FEES:
        raise ValueError(f"fee_label must be one of {sorted(BENCHMARK_FEES)}")
    fee = BENCHMARK_FEES[fee_label]
    return _scenario(FeeSpec("piecewise", breakpoints=fee["breakpoints"], rates=fee["rates"]),
                     0.0055)


def matched_exponential_scenario(c: float = 0.01) -> Scenario:
    """Constant fee c with exponential charge rate kappa = c: holding to maturity
    is optimal and the value collapses to the maturity-benefit closed form."""
    return _scenario(FeeSpec("constant", rate=c), c)


def low_charge_scenario() -> Scenario:
    """Constant fee 0.02 with the charge rate 0.0055: the charge relaxes slower than
    the fee accrues (kappa < c), so the surrender incentive is live at every date:
    threshold-type region at all times."""
    return _scenario(FeeSpec("constant", rate=0.02), 0.0055)
