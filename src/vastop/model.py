"""Contract, market, fee and surrender-charge definitions plus the pointwise evaluators.

Everything here is pure and immutable after construction: evaluators can be
shared freely across threads. Rates are per year and time is measured in years
throughout the package. The module also holds the one checker of run-document
keys, `checked_section`, and the scenario's rules in that checker's format; the
scenario dataclasses check their fields with the same checker and rules, so a
scenario built in Python obeys the ranges of a document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DomainError",
    "ConfigError",
    "MarketParams",
    "ContractParams",
    "FeeSpec",
    "ChargeSpec",
    "Scenario",
    "reward",
    "L_value",
    "is_finite_number",
    "checked_section",
    "scenario_from_dict",
    "scenario_to_dict",
]


class DomainError(ValueError):
    """A (t, x) query fell outside the contract domain [0, T] x (0, inf)."""


class ConfigError(ValueError):
    """Invalid construction parameters or an invalid run document."""


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _per_date(rule: Callable[[np.ndarray], np.ndarray], t):
    """rule, a function of an array of dates, at t: a float for a scalar t, taken from
    a one-date array, so that it has the bits of the same date inside any vector
    (numpy's scalar arithmetic rounds some powers differently from its array loops)."""
    t = _as_float_array(t)
    out = rule(np.atleast_1d(t))
    return out if t.ndim else float(out[0])


# ---------------------------------------------------------------------------
# Market and contract parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarketParams:
    """Risk-free rate and volatility of the lognormal market."""

    r: float
    sigma: float

    def __post_init__(self) -> None:
        _check_fields(self, "market")


@dataclass(frozen=True)
class ContractParams:
    """Guarantee level, maturity and initial sub-account value."""

    G: float
    T: float
    F0: float

    def __post_init__(self) -> None:
        _check_fields(self, "contract")


# ---------------------------------------------------------------------------
# Fee specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeeSpec:
    """Fee rate function c(t) deducted continuously from the sub-account.

    Kinds
    -----
    constant
        ``rate`` applies everywhere.
    piecewise
        Piecewise constant in time. ``rates[j]`` applies on the interval
        ``(breakpoints[j-1], breakpoints[j]]`` (first interval starts at 0,
        last one ends at maturity), so a breakpoint belongs to the interval
        it ends, matching indicator conventions like 1_{a < t <= b}.
    smooth
        Rate given by a callable ``rate_fn(t)``, with ``integral_fn(t, s)`` its
        exact integral over [t, s] for two floats.

    The rates and the integral take vectors of dates, and give a float for a
    scalar date with the bits of that date inside any vector. The spec knows no
    maturity: `Scenario` checks that the breakpoints lie before it.
    """

    kind: str
    rate: float = 0.0
    breakpoints: tuple[float, ...] = ()
    rates: tuple[float, ...] = ()
    rate_fn: Callable | None = None
    integral_fn: Callable[[float, float], float] | None = None

    def __post_init__(self) -> None:
        if self.kind == "smooth":
            if self.rate_fn is None or self.integral_fn is None:
                raise ConfigError("fee.kind='smooth' requires rate_fn and integral_fn")
            return
        _check_fields(self, "fee")
        if self.kind == "piecewise":
            bps = self.breakpoints
            if len(self.rates) != len(bps) + 1:
                raise ConfigError("fee.rates must have exactly len(breakpoints) + 1 entries")
            if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
                raise ConfigError("fee.breakpoints must be strictly increasing")

    def __call__(self, t):
        """Fee rate c(t), vectorized over t."""
        return _per_date(lambda d: self._rates(d, "left"), t)

    def rate_right(self, t):
        """Right limit c(t+), differing from c(t) only at piecewise breakpoints."""
        return _per_date(lambda d: self._rates(d, "right"), t)

    def _rates(self, d: np.ndarray, side: str) -> np.ndarray:
        """The rates at the dates d, a breakpoint taking the rate of the interval on side."""
        if self.kind == "constant":
            return np.full(d.shape, self.rate)
        if self.kind == "piecewise":
            return np.asarray(self.rates)[np.searchsorted(self.breakpoints, d, side=side)]
        return _as_float_array(self.rate_fn(d))

    def integral(self, t, s):
        """Exact integral of the fee rate over [t, s], vectorized over t and s with
        broadcasting; a float for scalars. A piecewise fee adds, interval by interval
        in order, the rate times the part of [t, s] in the interval."""
        t, s = np.broadcast_arrays(_as_float_array(t), _as_float_array(s))
        if np.any(s < t):
            raise DomainError("fee integral needs t <= s")
        if self.kind == "smooth":
            out = np.reshape([float(self.integral_fn(p, q)) if p < q else 0.0
                              for p, q in zip(t.ravel().tolist(), s.ravel().tolist())], t.shape)
        else:  # a constant fee is one interval, whose piece is s - t
            edges = (-np.inf, *self.breakpoints, np.inf)
            out = np.zeros(t.shape)
            for lo, hi, rate in zip(edges, edges[1:], self.rates or (self.rate,)):
                out += rate * np.maximum(np.minimum(s, hi) - np.maximum(t, lo), 0.0)
        return out if t.ndim else float(out)


# ---------------------------------------------------------------------------
# Surrender-charge specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChargeSpec:
    """Surrender-charge factor g(t): fraction of the account paid on surrender.

    Kinds
    -----
    exponential
        g(t) = exp(-kappa (T - t)).
    cubic
        g(t) = 1 - k (1 - t/T)^3 with 0 < k < 1.

    Both give exactly g(T) = 1, and `dt` is the exact derivative g'(t).
    """

    kind: str
    T: float
    kappa: float = 0.0
    k: float = 0.0

    def __post_init__(self) -> None:
        # T is the contract's maturity, under the contract's rule
        _check_fields(self, "charge", T=_SCENARIO_RULES["contract"]["T"])

    def __call__(self, t):
        """g(t), vectorized over t."""
        if self.kind == "exponential":
            return _per_date(lambda d: np.exp(-self.kappa * (self.T - d)), t)
        return _per_date(lambda d: 1.0 - self.k * (1.0 - d / self.T) ** 3, t)

    def dt(self, t):
        """g'(t), vectorized over t."""
        if self.kind == "exponential":
            return self.kappa * self(t)
        return _per_date(lambda d: (3.0 * self.k / self.T) * (1.0 - d / self.T) ** 2, t)


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
        if self.fee.kind == "piecewise" and self.fee.breakpoints:
            if self.fee.breakpoints[-1] >= self.contract.T:
                raise ConfigError("fee.breakpoints must lie strictly inside (0, T)")

    def check_domain(self, t, x) -> None:
        t = _as_float_array(t)
        x = _as_float_array(x)
        hi = self.contract.T * (1.0 + 1e-12)
        if np.any(t < 0.0) or np.any(t > hi):
            raise DomainError("time outside contract domain")
        if np.any(x <= 0.0):
            raise DomainError("account value must be positive")


def reward(scn: Scenario, t: float, x):
    """Surrender payout: g(t) x before maturity, max(G, x) at maturity."""
    scn.check_domain(t, x)
    x = _as_float_array(x)
    if abs(t - scn.contract.T) <= 1e-12 * max(1.0, scn.contract.T):
        out = np.maximum(scn.contract.G, x)
    else:
        out = scn.charge(t) * x
    return out if out.ndim else float(out)


def L_value(scn: Scenario, t):
    """Drift rate of the discounted surrender value per unit account, vectorized over t.

    L(t) = g'(t) - c(t) g(t) on [0, T): it does not depend on the account value.
    Nonnegative everywhere means surrender never beats holding.
    """
    tt = _as_float_array(t)
    if np.any(tt < 0.0) or np.any(tt >= scn.contract.T):
        raise DomainError("time outside [0, T)")
    return scn.charge.dt(t) - scn.fee(t) * scn.charge(t)


# ---------------------------------------------------------------------------
# Document rules: one checker for every key of a run document
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of a key that a document must give

# section -> key -> (default, type, allowed). An int key takes a JSON integer, a
# float key a finite JSON number (stored as a float), neither a bool, and both
# must lie in the interval `allowed`, "(" or ")" marking an open end. A list key
# takes an array of such float values (stored as a tuple). A str key takes one of
# the `allowed` strings. A key whose default is REQUIRED must be given. The "kind"
# of fee and charge maps each kind to the rules of the other keys of its section.
_SCENARIO_RULES = {
    "market": {"r": (REQUIRED, float, "[-1, 1]"), "sigma": (REQUIRED, float, "(0, 10]")},
    "contract": {
        # the value is homogeneous of degree 1 in (G, F0, x), so bounding G and F0
        # costs nothing: G or F0 = 1e200 overflows the Monte Carlo sums of squares,
        # F0 = 1e-300 the generator coefficients. T is a normal float (a subnormal
        # loses its digits under the solvers' scalings) and T <= 100 keeps
        # exp(|r| T) far from overflow
        "G": (REQUIRED, float, "[1e-100, 1e100]"),
        "T": (REQUIRED, float, "[2**-1022, 100]"),
        "F0": (REQUIRED, float, "[1e-100, 1e100]"),
    },
    "fee": {"kind": {
        "constant": {"rate": (REQUIRED, float, "[0, 1]")},
        "piecewise": {"breakpoints": (REQUIRED, list, "(0, inf)"),
                      "rates": (REQUIRED, list, "[0, 1]")},
    }},
    "charge": {"kind": {
        # a rate per year like the fee's: the Monte Carlo premiums weight g'(T) = kappa
        # by a whole step, which a steeper charge overflows (kappa = 1e300)
        "exponential": {"kappa": (REQUIRED, float, "[0, 1]")},
        "cubic": {"k": (REQUIRED, float, "(0, 1)")},
    }},
}


def is_finite_number(value) -> bool:
    """Whether value is a JSON number other than a bool with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _in_interval(value, interval: str) -> bool:
    """Whether value lies in an interval such as "[1, 100000]", "(0, inf)" or "[0, 2**128)"."""
    lo, hi = (float(base) ** int(power or 1)
              for base, _, power in (end.partition("**") for end in interval[1:-1].split(", ")))
    above = lo < value if interval[0] == "(" else lo <= value
    return above and (value < hi if interval[-1] == ")" else value <= hi)


def _checked(path: str, value, rule: tuple):
    """value if it obeys rule, as a float for a float key and a tuple of floats for
    a list key; else ConfigError naming path."""
    _, kind, allowed = rule
    if value is REQUIRED:
        raise ConfigError(f"missing field {path}")
    if kind is str:
        if value in allowed:
            return value
        raise ConfigError(f"{path} must be one of {', '.join(map(repr, allowed))}")
    if kind is list:
        if isinstance(value, (list, tuple)):
            return tuple(_checked(f"{path}[{i}]", v, (REQUIRED, float, allowed))
                         for i, v in enumerate(value))
        raise ConfigError(f"{path} must be an array of numbers in {allowed}")
    if kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = is_finite_number(value)
    if ok and _in_interval(value, allowed):
        return float(value) if kind is float else value
    noun = "an integer" if kind is int else "a number"
    raise ConfigError(f"{path} must be {noun} in {allowed}")


def _kind_rules(path: str, kind, kinds: dict) -> dict:
    """The rules of a section whose keys depend on its kind: kind, then the keys of that kind."""
    kind = _checked(f"{path}.kind", kind, (REQUIRED, str, tuple(kinds)))
    return {"kind": (REQUIRED, str, (kind,)), **kinds[kind]}


def checked_section(path: str, given, rules: dict) -> dict:
    """Every key of rules checked, defaults filled in; ConfigError naming the key at
    fault when given is not an object or holds an unknown or a bad key."""
    if not isinstance(given, dict):
        raise ConfigError(f"{path} must be an object")
    if isinstance(rules.get("kind"), dict):
        rules = _kind_rules(path, given.get("kind", REQUIRED), rules["kind"])
    unknown = set(given) - set(rules)
    if unknown:
        raise ConfigError(f"unknown key {path}.{sorted(unknown)[0]}")
    return {key: _checked(f"{path}.{key}", given.get(key, rule[0]), rule)
            for key, rule in rules.items()}


def _check_fields(part, section: str, **more) -> None:
    """Check the fields of a scenario dataclass that the rules of its section (of its
    kind, if it has one) and more name, as in a document, and keep the checked values
    (floats and tuples of floats)."""
    rules = _SCENARIO_RULES[section]
    if isinstance(rules.get("kind"), dict):
        rules = _kind_rules(section, part.kind, rules["kind"])
    rules = {**rules, **more}
    given = {key: getattr(part, key) for key in rules}
    for key, value in checked_section(section, given, rules).items():
        object.__setattr__(part, key, value)


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a validated Scenario from its document form.

    `checked_section` checks every key against `_SCENARIO_RULES`, which admit only
    the serializable kinds; the dataclasses check their fields with the same rules,
    and the rules that relate one key to another.
    """
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be an object")
    unknown = set(doc) - set(_SCENARIO_RULES)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in scenario document")
    part = {name: checked_section(name, doc.get(name, {}), rules)
            for name, rules in _SCENARIO_RULES.items()}
    T = part["contract"]["T"]
    return Scenario(market=MarketParams(**part["market"]),
                    contract=ContractParams(**part["contract"]),
                    fee=FeeSpec(**part["fee"]), charge=ChargeSpec(**part["charge"], T=T))


def scenario_to_dict(scn: Scenario) -> dict:
    """Inverse of scenario_from_dict for the serializable kinds."""
    doc = {}
    for name, rules in _SCENARIO_RULES.items():
        part = getattr(scn, name)
        if "kind" in rules:
            rules = _kind_rules(name, part.kind, rules["kind"])
        values = {key: getattr(part, key) for key in rules}
        doc[name] = {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}
    return doc
