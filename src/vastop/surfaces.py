"""Value surfaces on time-state grids, shared by the lattice and pde solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import ConfigError, Scenario

__all__ = ["ValueSurface", "StepTable", "log_space_nodes", "time_nodes", "step_table",
           "center_index", "date_index"]

MAX_STEPS = 100_000  # the largest grid.N of a run config


def log_space_nodes(F0: float, xmax_mult: float, M: int) -> np.ndarray:
    """M log-uniform state levels on [F0/xmax_mult, F0*xmax_mult].

    An odd M puts F0 exactly at the center node, which the value-at-inception
    reports rely on.
    """
    if M < 3:
        raise ConfigError("need at least 3 state nodes")
    if xmax_mult <= 1.0:
        raise ConfigError("xmax_mult must exceed 1")
    return F0 * np.exp(np.linspace(-np.log(xmax_mult), np.log(xmax_mult), M))


def time_nodes(scn: Scenario, N: int) -> np.ndarray:
    """N+1 equally spaced exercise dates on [0, T]; piecewise-fee breakpoints
    must coincide with nodes so the fee never changes inside a step. The refusal
    of an N that misses one names grid.N and the scenario's fee, scenario.fee."""
    if N < 1:
        raise ConfigError("need at least one time step")
    T = scn.contract.T
    tnodes = np.linspace(0.0, T, N + 1)
    if scn.fee.kind == "piecewise":
        dt = T / N
        for b in scn.fee.breakpoints:
            steps = b / dt
            if abs(steps - round(steps)) > 1e-9:
                multiple = _alignment_multiple(T, scn.fee.breakpoints)
                advice = (f"choose grid.N a multiple of {multiple}" if multiple else
                          f"no grid.N up to {MAX_STEPS} puts every breakpoint on a date")
                raise ConfigError(
                    f"grid.N = {N} puts no date on the breakpoint t={b} of scenario.fee; {advice}")
    return tnodes


def _alignment_multiple(T: float, breakpoints: tuple[float, ...]) -> int | None:
    """The least N <= MAX_STEPS that puts every breakpoint on a date, None if none does."""
    n = np.arange(1, MAX_STEPS + 1)
    for b in breakpoints:
        steps = b / (T / n)
        n = n[np.abs(steps - np.rint(steps)) <= 1e-9]
    return int(n[0]) if n.size else None


class StepTable(NamedTuple):
    """Which side of a date every layer takes on the steps [t_n, t_{n+1}) of a grid.

    solver_fee[n] is the fee rate the lattice and the PDE freeze over step n:
    c(t_n), the rate of the interval a breakpoint t_n ends, so that
    L(t_n) = g'(t_n) - solver_fee[n] g(t_n) bit for bit and the solved
    emptiness of slice n follows the sign of L. node_fee[n] is the fee at the
    premium quadratures' left, mid and right nodes of step n (decompose's
    Simpson nodes; Monte Carlo's trapezoid takes the two ends): c(t_n+), c(mid)
    and c(t_{n+1}), one-sided so that a panel integrand stays smooth across a
    breakpoint. node_date[n] is the date whose boundary or region slice each of
    those nodes reads: n at all three, the region frozen at the left node.
    """

    solver_fee: np.ndarray  # (N,)
    node_fee: np.ndarray  # (N, 3)
    node_date: np.ndarray  # (N, 3), indices of the dates


def step_table(scn: Scenario, tnodes: np.ndarray) -> StepTable:
    """The StepTable of scn on the dates tnodes. It holds no fee integral: an
    integral takes no side of a date, and each layer keeps its own sum."""
    left, right = tnodes[:-1], tnodes[1:]
    n = np.arange(left.size)
    return StepTable(solver_fee=scn.fee(left),
                     node_fee=np.stack([scn.fee.rate_right(left), scn.fee(0.5 * (left + right)),
                                        scn.fee(right)], axis=1),
                     node_date=np.stack([n, n, n], axis=1))


def center_index(xnodes: np.ndarray, x: float) -> int:
    """Index of the node closest to x (error if off by more than half a cell)."""
    i = int(np.argmin(np.abs(np.log(xnodes) - np.log(x))))
    dy = np.log(xnodes[1] / xnodes[0])
    if abs(np.log(xnodes[i] / x)) > 0.51 * dy:
        raise ConfigError(f"x={x} is not on the state grid")
    return i


def date_index(tnodes, t: float) -> int:
    """Index of the date of tnodes at t (error if none lies within 1e-9 max(1, T))."""
    tnodes = np.asarray(tnodes, dtype=float)
    n = int(np.argmin(np.abs(tnodes - t)))
    if abs(tnodes[n] - t) > 1e-9 * max(1.0, tnodes[-1]):
        raise ConfigError(f"t={t} is not a date of the time grid")
    return n


@dataclass(frozen=True)
class ValueSurface:
    """Contract values v(t_n, x_i) on a time-state grid.

    values[n, i] is the value at time tnodes[n], state xnodes[i]; obstacle holds
    the exercise value the solver enforced (g x, or g x v h for the continuous
    reward kind). provenance is "lattice" or "pde". Immutable once returned.
    A NaN or infinite value or obstacle raises FloatingPointError, so a
    non-finite surface stops at the solver that made it.
    """

    tnodes: np.ndarray
    xnodes: np.ndarray
    values: np.ndarray
    obstacle: np.ndarray
    provenance: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n, m = self.values.shape
        if n != self.tnodes.size or m != self.xnodes.size:
            raise ConfigError("surface shape does not match its grid")
        if self.obstacle.shape != self.values.shape:
            raise ConfigError("obstacle shape does not match values")
        if not (np.isfinite(self.values).all() and np.isfinite(self.obstacle).all()):
            raise FloatingPointError(f"non-finite {self.provenance} surface")
        self.values.setflags(write=False)
        self.obstacle.setflags(write=False)
