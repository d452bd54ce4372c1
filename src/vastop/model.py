"""Contract, market, fee and surrender-charge definitions plus the pointwise evaluators.

Everything here is pure and immutable after construction: evaluators can be
shared freely across threads. Rates are per year and time is measured in years
throughout the package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DomainError",
    "ConfigError",
    "UnsupportedScenarioError",
    "MarketParams",
    "ContractParams",
    "FeeSpec",
    "ChargeSpec",
    "Scenario",
    "fee_rate",
    "charge_factor",
    "reward",
    "L_value",
    "is_finite_number",
    "scenario_from_dict",
    "scenario_to_dict",
]


class DomainError(ValueError):
    """A (t, x) query fell outside the contract domain [0, T] x (0, inf)."""


class ConfigError(ValueError):
    """Invalid construction parameters or an invalid scenario document."""


class UnsupportedScenarioError(ValueError):
    """The requested operation does not support this fee/charge combination."""


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


# ---------------------------------------------------------------------------
# Market and contract parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarketParams:
    """Risk-free rate and volatility of the lognormal market."""

    r: float
    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.r):
            raise ConfigError("market.r must be finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ConfigError("market.sigma must be a positive real")


@dataclass(frozen=True)
class ContractParams:
    """Guarantee level, maturity and initial sub-account value."""

    G: float
    T: float
    F0: float

    def __post_init__(self) -> None:
        for name in ("G", "T", "F0"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ConfigError(f"contract.{name} must be a positive real")


# ---------------------------------------------------------------------------
# Fee specification
# ---------------------------------------------------------------------------

_FEE_KINDS = ("constant", "piecewise", "smooth", "state")


@dataclass(frozen=True)
class FeeSpec:
    """Fee rate function C(t, x) deducted continuously from the sub-account.

    Kinds
    -----
    constant
        ``rate`` applies everywhere.
    piecewise
        Piecewise constant in time. ``rates[j]`` applies on the interval
        ``(breakpoints[j-1], breakpoints[j]]`` (first interval starts at 0,
        last one ends at the horizon), so a breakpoint belongs to the interval
        it ends, matching indicator conventions like 1_{a < t <= b}.
    smooth
        Time-only rate given by a callable ``rate_fn``; ``integral_fn(t, s)``
        may supply the exact integral of the rate, otherwise adaptive Simpson
        quadrature (abs tol 1e-12) is used.
    state
        Rate ``rate_fn(t, x)`` depending on the account value; ``lipschitz``
        bounds the x-Lipschitz constant of the drift (r - C(t, x)) x.

    The horizon T is carried when known so that domain checks and integrals
    can be validated against the contract.
    """

    kind: str
    rate: float = 0.0
    breakpoints: tuple[float, ...] = ()
    rates: tuple[float, ...] = ()
    rate_fn: Callable | None = None
    integral_fn: Callable[[float, float], float] | None = None
    lipschitz: float | None = None
    horizon: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _FEE_KINDS:
            raise ConfigError(f"fee.kind must be one of {_FEE_KINDS}, got {self.kind!r}")
        if self.kind == "constant":
            if not 0.0 <= self.rate <= 1.0:
                raise ConfigError("fee.rate must lie in [0, 1]")
        elif self.kind == "piecewise":
            bps = self.breakpoints
            if len(self.rates) != len(bps) + 1:
                raise ConfigError("fee.rates must have exactly len(breakpoints) + 1 entries")
            if not all(math.isfinite(b) for b in bps):
                raise ConfigError("fee.breakpoints must be finite")
            if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
                raise ConfigError("fee.breakpoints must be strictly increasing")
            if bps and bps[0] <= 0.0:
                raise ConfigError("fee.breakpoints must be strictly positive")
            if self.horizon is not None and bps and bps[-1] >= self.horizon:
                raise ConfigError("fee.breakpoints must lie strictly inside (0, T)")
            if any(not 0.0 <= r <= 1.0 for r in self.rates):
                raise ConfigError("fee.rates must lie in [0, 1]")
        elif self.rate_fn is None:
            raise ConfigError(f"fee.kind={self.kind!r} requires rate_fn")

    @property
    def is_time_only(self) -> bool:
        return self.kind != "state"

    def __call__(self, t, x=None):
        """Vectorized fee rate; `x` is required only for the state kind."""
        t = _as_float_array(t)
        if self.kind == "constant":
            return np.broadcast_to(np.float64(self.rate), t.shape).copy() if t.ndim else float(self.rate)
        if self.kind == "piecewise":
            idx = np.searchsorted(np.asarray(self.breakpoints), t, side="left")
            out = np.asarray(self.rates, dtype=float)[idx]
            return out if t.ndim else float(out)
        if self.kind == "smooth":
            out = _as_float_array(self.rate_fn(t))
            return out if t.ndim else float(out)
        if x is None:
            raise UnsupportedScenarioError("state-dependent fee needs the account value x")
        out = _as_float_array(self.rate_fn(t, _as_float_array(x)))
        return out if out.ndim else float(out)

    def rate_right(self, t):
        """Right limit C(t+), differing from C(t) only at piecewise breakpoints."""
        if self.kind != "piecewise":
            return self(t)
        t = _as_float_array(t)
        idx = np.searchsorted(np.asarray(self.breakpoints), t, side="right")
        out = np.asarray(self.rates, dtype=float)[idx]
        return out if t.ndim else float(out)

    def integral(self, t: float, s: float) -> float:
        """Exact integral of the fee rate over [t, s] (time-only kinds)."""
        if not self.is_time_only:
            raise UnsupportedScenarioError("fee integral undefined for state-dependent fees")
        if s < t:
            raise DomainError("fee integral needs t <= s")
        if s == t:
            return 0.0
        if self.kind == "constant":
            return self.rate * (s - t)
        if self.kind == "piecewise":
            edges = (t, *[b for b in self.breakpoints if t < b < s], s)
            total = 0.0
            for a, b in zip(edges, edges[1:]):
                total += self.rate_right(a) * (b - a)
            return total
        if self.integral_fn is not None:
            return float(self.integral_fn(t, s))
        return _adaptive_simpson(self.rate_fn, t, s, 1e-12)

    def min_rate(self, t: float, s: float) -> float | None:
        """Lower bound of the rate on [t, s]; None when no bound is available."""
        if self.kind == "constant":
            return self.rate
        if self.kind == "piecewise":
            edges = [t, *[b for b in self.breakpoints if t < b < s], s]
            return min(self.rate_right(a) for a in edges[:-1])
        if self.kind == "smooth":
            return float(np.min(self(np.linspace(t, s, 513))))
        return None


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm = float(f(lmid))
        frm = float(f(rmid))
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, flm, fmid, left, eps / 2.0, depth - 1) + recurse(
            mid, hi, fmid, frm, fhi, right, eps / 2.0, depth - 1
        )

    fa, fm, fb = float(f(a)), float(f(0.5 * (a + b))), float(f(b))
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 48)


# ---------------------------------------------------------------------------
# Surrender-charge specification
# ---------------------------------------------------------------------------

_CHARGE_KINDS = ("exponential", "cubic", "general_time", "general_state")


@dataclass(frozen=True)
class ChargeSpec:
    """Surrender-charge factor g(t, x): fraction of the account paid on surrender.

    Kinds
    -----
    exponential
        g(t) = exp(-kappa (T - t)).
    cubic
        g(t) = 1 - k (1 - t/T)^3 with 0 < k < 1.
    general_time
        Callable ``fn(t)``; optional analytic ``dt_fn``.
    general_state
        Callable ``fn(t, x)``; optional analytic ``dt_fn``, ``dx_fn``, ``dxx_fn``.

    Missing derivatives of the general kinds are supplied by central finite
    differences with step max(1e-6, 1e-6 |t|) (accuracy documented as such);
    the named kinds use exact formulas.
    """

    kind: str
    T: float
    kappa: float = 0.0
    k: float = 0.0
    fn: Callable | None = None
    dt_fn: Callable | None = None
    dx_fn: Callable | None = None
    dxx_fn: Callable | None = None

    def __post_init__(self) -> None:
        if self.kind not in _CHARGE_KINDS:
            raise ConfigError(f"charge.kind must be one of {_CHARGE_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ConfigError("charge.T must be a positive real")
        if self.kind == "exponential" and not (math.isfinite(self.kappa) and self.kappa >= 0.0):
            raise ConfigError("charge.kappa must be a finite nonnegative real")
        if self.kind == "cubic" and not 0.0 < self.k < 1.0:
            raise ConfigError("charge.k must lie in (0, 1) so that g stays in (0, 1]")
        if self.kind in ("general_time", "general_state") and self.fn is None:
            raise ConfigError(f"charge.kind={self.kind!r} requires fn")

    @property
    def is_time_only(self) -> bool:
        return self.kind != "general_state"

    def __call__(self, t, x=None):
        t = _as_float_array(t)
        if self.kind == "exponential":
            out = np.exp(-self.kappa * (self.T - t))
        elif self.kind == "cubic":
            out = 1.0 - self.k * (1.0 - t / self.T) ** 3
        elif self.kind == "general_time":
            out = _as_float_array(self.fn(t))
        else:
            if x is None:
                raise UnsupportedScenarioError("state-dependent charge needs the account value x")
            out = _as_float_array(self.fn(t, _as_float_array(x)))
        return out if out.ndim else float(out)

    def dt(self, t, x=None):
        t = _as_float_array(t)
        if self.kind == "exponential":
            out = self.kappa * np.exp(-self.kappa * (self.T - t))
        elif self.kind == "cubic":
            out = (3.0 * self.k / self.T) * (1.0 - t / self.T) ** 2
        elif self.dt_fn is not None:
            out = _as_float_array(self.dt_fn(t) if self.kind == "general_time" else self.dt_fn(t, x))
        else:
            h = np.maximum(1e-6, 1e-6 * np.abs(t))
            # shrink the step near the ends so both stencil points stay in [0, T]
            h = np.minimum(h, np.maximum(np.minimum(t, self.T - t) * 0.5, 1e-12))
            up = self(t + h) if self.kind == "general_time" else self(t + h, x)
            dn = self(t - h) if self.kind == "general_time" else self(t - h, x)
            out = (up - dn) / (2.0 * h)
        return out if out.ndim else float(out)

    def dx(self, t, x):
        if self.is_time_only:
            t = _as_float_array(t)
            x = _as_float_array(x)
            out = np.zeros(np.broadcast(t, x).shape)
            return out if out.ndim else 0.0
        if self.dx_fn is not None:
            out = _as_float_array(self.dx_fn(t, x))
            return out if out.ndim else float(out)
        x = _as_float_array(x)
        h = np.maximum(1e-6, 1e-6 * np.abs(x))
        out = (self(t, x + h) - self(t, x - h)) / (2.0 * h)
        return out if np.ndim(out) else float(out)

    def dxx(self, t, x):
        if self.is_time_only:
            t = _as_float_array(t)
            x = _as_float_array(x)
            out = np.zeros(np.broadcast(t, x).shape)
            return out if out.ndim else 0.0
        if self.dxx_fn is not None:
            out = _as_float_array(self.dxx_fn(t, x))
            return out if out.ndim else float(out)
        x = _as_float_array(x)
        h = np.maximum(1e-5, 1e-5 * np.abs(x))
        out = (self(t, x + h) - 2.0 * self(t, x) + self(t, x - h)) / (h * h)
        return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# Scenario bundle and pointwise evaluators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Bundle of market, contract, fee and surrender-charge inputs."""

    market: MarketParams
    contract: ContractParams
    fee: FeeSpec
    charge: ChargeSpec

    def __post_init__(self) -> None:
        if abs(self.charge.T - self.contract.T) > 1e-12 * max(1.0, self.contract.T):
            raise ConfigError("charge.T must equal contract.T")
        if self.fee.horizon is not None and abs(self.fee.horizon - self.contract.T) > 1e-12:
            raise ConfigError("fee.horizon must equal contract.T when set")
        if self.fee.kind == "piecewise" and self.fee.breakpoints:
            if self.fee.breakpoints[-1] >= self.contract.T:
                raise ConfigError("fee.breakpoints must lie strictly inside (0, T)")
        gT = self.charge(self.contract.T) if self.charge.is_time_only else self.charge(
            self.contract.T, self.contract.F0
        )
        if not float(np.max(np.abs(_as_float_array(gT) - 1.0))) <= 1e-9:  # NaN fails too
            raise ConfigError("charge factor must equal 1 at maturity")

    @property
    def is_time_only(self) -> bool:
        return self.fee.is_time_only and self.charge.is_time_only

    def check_domain(self, t, x, *, allow_T: bool = True) -> None:
        t = _as_float_array(t)
        x = _as_float_array(x)
        hi = self.contract.T * (1.0 + 1e-12)
        if np.any(t < 0.0) or np.any(t > hi) or (not allow_T and np.any(t >= self.contract.T)):
            raise DomainError("time outside contract domain")
        if np.any(x <= 0.0):
            raise DomainError("account value must be positive")


def fee_rate(fee: FeeSpec, t, x=None):
    """Fee rate C(t, x); domain-checked against the fee horizon if known."""
    tt = _as_float_array(t)
    if np.any(tt < 0.0) or (fee.horizon is not None and np.any(tt > fee.horizon * (1 + 1e-12))):
        raise DomainError("time outside fee domain")
    if x is not None and np.any(_as_float_array(x) <= 0.0):
        raise DomainError("account value must be positive")
    return fee(t, x)


def charge_factor(charge: ChargeSpec, t, x=None):
    """Charge factor g(t, x) in (0, 1], exactly 1 at maturity."""
    tt = _as_float_array(t)
    if np.any(tt < 0.0) or np.any(tt > charge.T * (1 + 1e-12)):
        raise DomainError("time outside charge domain")
    if x is not None and np.any(_as_float_array(x) <= 0.0):
        raise DomainError("account value must be positive")
    return charge(t, x)


def reward(scn: Scenario, t: float, x):
    """Surrender payout: g(t, x) x before maturity, max(G, x) at maturity."""
    scn.check_domain(t, x)
    x = _as_float_array(x)
    if abs(t - scn.contract.T) <= 1e-12 * max(1.0, scn.contract.T):
        out = np.maximum(scn.contract.G, x)
    else:
        out = _as_float_array(scn.charge(t, x)) * x
    return out if out.ndim else float(out)


def L_value(scn: Scenario, t: float, x):
    """Drift rate of the discounted surrender value per unit account.

    L(t, x) = g_t + (r - C + sigma^2) x g_x + (sigma^2 x^2 / 2) g_xx - C g.
    Nonnegative everywhere means surrender never beats holding; for time-only
    fee and charge it reduces to g'(t) - c(t) g(t) and is independent of x.
    """
    scn.check_domain(t, x, allow_T=False)
    x = _as_float_array(x)
    r, sig = scn.market.r, scn.market.sigma
    c = _as_float_array(scn.fee(t, x))
    g = _as_float_array(scn.charge(t, x))
    gt = _as_float_array(scn.charge.dt(t, x))
    if scn.charge.is_time_only:
        out = gt - c * g
        out = np.broadcast_to(out, x.shape).copy() if x.ndim else out
    else:
        gx = _as_float_array(scn.charge.dx(t, x))
        gxx = _as_float_array(scn.charge.dxx(t, x))
        out = gt + (r - c + sig * sig) * x * gx + 0.5 * sig * sig * x * x * gxx - c * g
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# Scenario (de)serialization: flat JSON document, unknown keys rejected
# ---------------------------------------------------------------------------

_SCHEMA = {
    "market": {"r", "sigma"},
    "contract": {"G", "T", "F0"},
}

_FEE_FIELDS = {
    "constant": {"kind", "rate"},
    "piecewise": {"kind", "breakpoints", "rates"},
}

_CHARGE_FIELDS = {
    "exponential": {"kind", "kappa"},
    "cubic": {"kind", "k"},
}


def is_finite_number(value) -> bool:
    """Whether value is a JSON number other than a bool with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _number(value, path: str) -> float:
    if not is_finite_number(value):
        raise ConfigError(f"{path} must be a finite number")
    return float(value)


def _require_number(doc: dict, section: str, key: str) -> float:
    if key not in doc:
        raise ConfigError(f"missing field {section}.{key}")
    return _number(doc[key], f"{section}.{key}")


_MAX_RATE = 1.0  # |market.r| of a scenario document: a continuously compounded 100% a year


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a validated Scenario from its document form.

    Only the serializable fee kinds (constant, piecewise) and charge kinds
    (exponential, cubic) are accepted; unknown keys anywhere are rejected with
    the offending field path in the message. A document is held to tighter
    domain rules than the dataclasses: |market.r| <= 1, and contract.G, T and
    F0 must be normal floats.
    """
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be an object")
    unknown = set(doc) - {"market", "contract", "fee", "charge"}
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in scenario document")
    for section, keys in _SCHEMA.items():
        if section not in doc:
            raise ConfigError(f"missing section {section!r}")
        if not isinstance(doc[section], dict):
            raise ConfigError(f"{section} must be an object")
        bad = set(doc[section]) - keys
        if bad:
            raise ConfigError(f"unknown key {section}.{sorted(bad)[0]}")
    market = MarketParams(
        r=_require_number(doc["market"], "market", "r"),
        sigma=_require_number(doc["market"], "market", "sigma"),
    )
    if abs(market.r) > _MAX_RATE:
        raise ConfigError(f"market.r must be a real in [-{_MAX_RATE:g}, {_MAX_RATE:g}]")
    contract = ContractParams(
        G=_require_number(doc["contract"], "contract", "G"),
        T=_require_number(doc["contract"], "contract", "T"),
        F0=_require_number(doc["contract"], "contract", "F0"),
    )
    for key in ("G", "T", "F0"):
        # a subnormal value loses its digits under the solvers' scalings (F0 / 4 == 0)
        if getattr(contract, key) < sys.float_info.min:
            raise ConfigError(f"contract.{key} must be a positive normal float"
                              f" (at least {sys.float_info.min:g})")

    fee_doc = doc.get("fee")
    if not isinstance(fee_doc, dict) or "kind" not in fee_doc:
        raise ConfigError("missing field fee.kind")
    fkind = fee_doc["kind"]
    if fkind not in _FEE_FIELDS:
        raise ConfigError(f"fee.kind {fkind!r} is not serializable (use constant or piecewise)")
    bad = set(fee_doc) - _FEE_FIELDS[fkind]
    if bad:
        raise ConfigError(f"unknown key fee.{sorted(bad)[0]}")
    if fkind == "constant":
        fee = FeeSpec("constant", rate=_require_number(fee_doc, "fee", "rate"), horizon=contract.T)
    else:
        arrays = {}
        for key in ("breakpoints", "rates"):
            if key not in fee_doc or not isinstance(fee_doc[key], (list, tuple)):
                raise ConfigError(f"fee.{key} must be an array")
            arrays[key] = tuple(_number(v, f"fee.{key}[{i}]") for i, v in enumerate(fee_doc[key]))
        fee = FeeSpec("piecewise", **arrays, horizon=contract.T)

    charge_doc = doc.get("charge")
    if not isinstance(charge_doc, dict) or "kind" not in charge_doc:
        raise ConfigError("missing field charge.kind")
    ckind = charge_doc["kind"]
    if ckind not in _CHARGE_FIELDS:
        raise ConfigError(f"charge.kind {ckind!r} is not serializable (use exponential or cubic)")
    bad = set(charge_doc) - _CHARGE_FIELDS[ckind]
    if bad:
        raise ConfigError(f"unknown key charge.{sorted(bad)[0]}")
    if ckind == "exponential":
        charge = ChargeSpec("exponential", T=contract.T, kappa=_require_number(charge_doc, "charge", "kappa"))
    else:
        charge = ChargeSpec("cubic", T=contract.T, k=_require_number(charge_doc, "charge", "k"))

    return Scenario(market=market, contract=contract, fee=fee, charge=charge)


def scenario_to_dict(scn: Scenario) -> dict:
    """Inverse of scenario_from_dict for the serializable kinds."""
    if scn.fee.kind == "constant":
        fee_doc = {"kind": "constant", "rate": scn.fee.rate}
    elif scn.fee.kind == "piecewise":
        fee_doc = {
            "kind": "piecewise",
            "breakpoints": list(scn.fee.breakpoints),
            "rates": list(scn.fee.rates),
        }
    else:
        raise ConfigError(f"fee.kind {scn.fee.kind!r} is not serializable")
    if scn.charge.kind == "exponential":
        charge_doc = {"kind": "exponential", "kappa": scn.charge.kappa}
    elif scn.charge.kind == "cubic":
        charge_doc = {"kind": "cubic", "k": scn.charge.k}
    else:
        raise ConfigError(f"charge.kind {scn.charge.kind!r} is not serializable")
    return {
        "market": {"r": scn.market.r, "sigma": scn.market.sigma},
        "contract": {"G": scn.contract.G, "T": scn.contract.T, "F0": scn.contract.F0},
        "fee": fee_doc,
        "charge": charge_doc,
    }
