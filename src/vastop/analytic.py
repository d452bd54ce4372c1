"""Closed forms of the time-dependent fee and charge model.

Maturity-benefit value, guarantee put, the never-surrender condition checker,
and the fee bound of a cubic charge with the fee that saturates it. These serve
as oracles for the numerical solvers, so everything here is evaluated to near
machine precision: the normal CDF comes from scipy.special.ndtr and fee
integrals are exact, interval by interval for the piecewise kind.
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
    L_value,
)

__all__ = [
    "NeverSurrenderReport",
    "maturity_benefit_value",
    "guarantee_put_value",
    "never_surrender_check",
    "cubic_charge_fee_bound",
    "fee_from_cubic_charge_bound",
]


def _terms(scn: Scenario, t: float, x):
    """x as a float array, and the terms both closed forms combine at (t, x):
    (x e^{-int_t^T c}, G e^{-r tau}, d1, d2) before maturity, None at t = T."""
    scn.check_domain(t, x)
    G, T = scn.contract.G, scn.contract.T
    x = np.asarray(x, dtype=float)
    tau = T - t
    if tau <= 1e-12 * max(1.0, T):
        return x, None
    r, sig = scn.market.r, scn.market.sigma
    fee_int = scn.fee.integral(t, T)
    sst = sig * math.sqrt(tau)
    num = np.log(x / G) + (r * tau - fee_int) + 0.5 * sst**2
    if sst > 0.0:
        with np.errstate(over="ignore"):  # a tiny sigma sqrt(tau) takes d1 to its limit +-inf
            d1 = num / sst
    else:  # sigma sqrt(tau) underflows (a subnormal sigma): F_T is deterministic
        d1 = np.where(num == 0.0, 0.0, np.copysign(np.inf, num))
    return x, (x * math.exp(-fee_int), G * math.exp(-r * tau), d1, d1 - sst)


def maturity_benefit_value(scn: Scenario, t: float, x):
    """Discounted value of the maturity payout max(G, F_T) started at (t, x).

    Equals x e^{-int c} Phi(d1) + G e^{-r tau} Phi(-d2); handled by an explicit
    branch at t = T (returns max(G, x)) rather than a d1 limit.
    """
    x, terms = _terms(scn, t, x)
    if terms is None:
        out = np.maximum(scn.contract.G, x)
    else:
        x_fee, g_disc, d1, d2 = terms
        out = x_fee * ndtr(d1) + g_disc * ndtr(-d2)
    return out if out.ndim else float(out)


def guarantee_put_value(scn: Scenario, t: float, x):
    """Discounted value of (G - F_T)_+ started at (t, x); the financial guarantee."""
    x, terms = _terms(scn, t, x)
    if terms is None:
        out = np.maximum(scn.contract.G - x, 0.0)
    else:
        x_fee, g_disc, d1, d2 = terms
        out = g_disc * ndtr(-d2) - x_fee * ndtr(-d1)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class NeverSurrenderReport:
    """Outcome of the never-surrender condition check on a set of dates."""

    holds: bool
    violations: tuple[float, ...]  # the dates where L < 0
    min_L: float


def never_surrender_check(scn: Scenario, tgrid) -> NeverSurrenderReport:
    """Check L(t) >= 0 at every date of tgrid, which must lie in [0, T); if it
    holds everywhere, waiting until maturity is optimal and the surrender region
    is empty. L does not depend on the account value, so no state grid is needed."""
    tgrid = np.asarray(tgrid, dtype=float)
    if tgrid.size == 0:
        raise DomainError("tgrid must be non-empty")
    L = L_value(scn, tgrid)
    violations = tuple(float(t) for t in tgrid[L < 0.0])
    return NeverSurrenderReport(holds=not violations, violations=violations, min_L=float(np.min(L)))


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

    return FeeSpec("smooth", rate_fn=rate, integral_fn=integral)
