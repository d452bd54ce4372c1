"""Closed forms available when fee and charge depend only on time.

Maturity-benefit value, guarantee put, the never-surrender condition checker,
and the two standard fee/charge matching constructions. These serve as oracles
for the numerical solvers, so everything here is evaluated to near machine
precision: the normal CDF comes from scipy.special.ndtr and fee integrals are
exact interval-by-interval (piecewise kinds) or adaptive Simpson at 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .model import (
    DomainError,
    FeeSpec,
    Scenario,
    UnsupportedScenarioError,
    L_value,
)

__all__ = [
    "NeverSurrenderReport",
    "maturity_benefit_value",
    "guarantee_put_value",
    "never_surrender_check",
    "cubic_charge_fee_bound",
    "fee_from_cubic_charge_bound",
    "matching_exponential_rate",
]


def _require_time_only(scn: Scenario) -> None:
    if not scn.is_time_only:
        raise UnsupportedScenarioError(
            "closed forms need time-only fee and charge; use the mc or pde modules"
        )


def _d1(x, K, drift: float, sig_sqrt_tau: float):
    return (np.log(x / K) + drift + 0.5 * sig_sqrt_tau**2) / sig_sqrt_tau


def maturity_benefit_value(scn: Scenario, t: float, x):
    """Discounted value of the maturity payout max(G, F_T) started at (t, x).

    Equals x e^{-int c} Phi(d1) + G e^{-r tau} Phi(-d2); handled by an explicit
    branch at t = T (returns max(G, x)) rather than a d1 limit.
    """
    _require_time_only(scn)
    scn.check_domain(t, x)
    G, T = scn.contract.G, scn.contract.T
    x = np.asarray(x, dtype=float)
    tau = T - t
    if tau <= 1e-12 * max(1.0, T):
        out = np.maximum(G, x)
        return out if out.ndim else float(out)
    r, sig = scn.market.r, scn.market.sigma
    fee_int = scn.fee.integral(t, T)
    sst = sig * math.sqrt(tau)
    d1 = _d1(x, G, r * tau - fee_int, sst)
    d2 = d1 - sst
    out = x * math.exp(-fee_int) * ndtr(d1) + G * math.exp(-r * tau) * ndtr(-d2)
    return out if out.ndim else float(out)


def guarantee_put_value(scn: Scenario, t: float, x):
    """Discounted value of (G - F_T)_+ started at (t, x); the financial guarantee."""
    _require_time_only(scn)
    scn.check_domain(t, x)
    G, T = scn.contract.G, scn.contract.T
    x = np.asarray(x, dtype=float)
    tau = T - t
    if tau <= 1e-12 * max(1.0, T):
        out = np.maximum(G - x, 0.0)
        return out if out.ndim else float(out)
    r, sig = scn.market.r, scn.market.sigma
    fee_int = scn.fee.integral(t, T)
    sst = sig * math.sqrt(tau)
    d1 = _d1(x, G, r * tau - fee_int, sst)
    d2 = d1 - sst
    out = G * math.exp(-r * tau) * ndtr(-d2) - x * math.exp(-fee_int) * ndtr(-d1)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class NeverSurrenderReport:
    """Outcome of the never-surrender condition check on a grid."""

    holds: bool
    violations: tuple[tuple[float, float], ...]
    min_L: float


def never_surrender_check(scn: Scenario, tgrid, xgrid) -> NeverSurrenderReport:
    """Check L(t, x) >= 0 at every grid node; if it holds everywhere, waiting
    until maturity is optimal and the surrender region is empty."""
    tgrid = np.asarray(tgrid, dtype=float)
    xgrid = np.asarray(xgrid, dtype=float)
    if tgrid.size == 0 or xgrid.size == 0:
        raise DomainError("grids must be non-empty")
    if np.any(tgrid < 0.0) or np.any(tgrid >= scn.contract.T):
        raise DomainError("tgrid must lie in [0, T)")
    if np.any(xgrid <= 0.0):
        raise DomainError("xgrid must be positive")
    violations: list[tuple[float, float]] = []
    min_L = math.inf
    for t in tgrid:
        L = np.asarray(L_value(scn, float(t), xgrid))
        min_L = min(min_L, float(np.min(L)))
        bad = np.where(L < 0.0)[0]
        violations.extend((float(t), float(xgrid[i])) for i in bad)
    return NeverSurrenderReport(holds=not violations, violations=tuple(violations), min_L=min_L)


def cubic_charge_fee_bound(T: float, k: float, t) -> float | np.ndarray:
    """Largest fee rate at time t compatible with never-surrender under the
    cubic charge 1 - k (1 - t/T)^3: (3k/T)(1 - t/T)^2 / (1 - k (1 - t/T)^3).

    Vanishes at maturity, so no constant positive fee can satisfy it.
    """
    if not 0.0 < k < 1.0:
        raise DomainError("cubic charge coefficient k must lie in (0, 1)")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > T):
        raise DomainError("t must lie in [0, T]")
    u = 1.0 - t / T
    out = (3.0 * k / T) * u**2 / (1.0 - k * u**3)
    return out if out.ndim else float(out)


def fee_from_cubic_charge_bound(T: float, k: float) -> FeeSpec:
    """FeeSpec saturating the cubic-charge bound, with its exact integral
    int_t^s c = ln[(1 - k (1 - s/T)^3) / (1 - k (1 - t/T)^3)]."""
    if not 0.0 < k < 1.0:
        raise DomainError("cubic charge coefficient k must lie in (0, 1)")

    def rate(t):
        return cubic_charge_fee_bound(T, k, t)

    def integral(t, s):
        gt = 1.0 - k * (1.0 - t / T) ** 3
        gs = 1.0 - k * (1.0 - s / T) ** 3
        return math.log(gs / gt)

    return FeeSpec("smooth", rate_fn=rate, integral_fn=integral, horizon=T)


def matching_exponential_rate(c: float) -> float:
    """Minimal exponential charge rate removing the surrender incentive for a
    constant fee c: kappa = c."""
    if c < 0.0:
        raise DomainError("fee rate must be nonnegative")
    return float(c)

