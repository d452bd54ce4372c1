"""Closed forms of the time-dependent fee and charge model.

Maturity-benefit value, guarantee put, the never-surrender condition checker,
and the fee bound of a cubic charge with the fee that saturates it. These serve
as oracles for the numerical solvers, so everything here is evaluated to near
machine precision: the normal CDF comes from scipy.special.ndtr and fee
integrals are exact, interval by interval for the piecewise kind. Both closed
forms take a vector of dates and give one row per date, with the bits each
date has alone.
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


def _closed_form(scn: Scenario, t, x, at_maturity, before_maturity):
    """A closed form at the dates t and the states x, one row per date, a float for
    a scalar t and x: at_maturity(x) at T (and past it, within the domain's tolerance),
    before_maturity(x e^{-int_t^T c}, G e^{-r tau}, d1, d2) before T. Each date's
    constants are Python floats, so a date has the same bits alone as in any vector."""
    scn.check_domain(t, x)
    G, T = scn.contract.G, scn.contract.T
    r, sig = scn.market.r, scn.market.sigma
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.empty(t.shape + x.shape)
    rows = out.reshape(t.size, *x.shape)
    log_xG = np.log(x / G)
    fee_ints = np.ravel(scn.fee.integral(np.minimum(t, T), T)).tolist()
    for n, (date, fee_int) in enumerate(zip(t.ravel().tolist(), fee_ints)):
        tau = T - date
        if tau <= 1e-12 * max(1.0, T):
            rows[n] = at_maturity(x)
            continue
        sst = sig * math.sqrt(tau)
        num = log_xG + (r * tau - fee_int) + 0.5 * sst**2
        if sst > 0.0:
            with np.errstate(over="ignore"):  # a tiny sigma sqrt(tau) takes d1 to its limit +-inf
                d1 = num / sst
        else:  # sigma sqrt(tau) underflows (a subnormal sigma): F_T is deterministic
            d1 = np.where(num == 0.0, 0.0, np.copysign(np.inf, num))
        rows[n] = before_maturity(x * math.exp(-fee_int), G * math.exp(-r * tau), d1, d1 - sst)
    return out if out.ndim else float(out)


def maturity_benefit_value(scn: Scenario, t, x):
    """Discounted value of the maturity payout max(G, F_T) started at (t, x), one
    row per date of t.

    Equals x e^{-int c} Phi(d1) + G e^{-r tau} Phi(-d2); handled by an explicit
    branch at t = T (returns max(G, x)) rather than a d1 limit.
    """
    return _closed_form(scn, t, x, lambda x: np.maximum(scn.contract.G, x),
                        lambda x_fee, g_disc, d1, d2: x_fee * ndtr(d1) + g_disc * ndtr(-d2))


def guarantee_put_value(scn: Scenario, t, x):
    """Discounted value of (G - F_T)_+ started at (t, x), one row per date of t;
    the financial guarantee."""
    return _closed_form(scn, t, x, lambda x: np.maximum(scn.contract.G - x, 0.0),
                        lambda x_fee, g_disc, d1, d2: g_disc * ndtr(-d2) - x_fee * ndtr(-d1))


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
