"""Value surfaces on time-state grids, shared by the lattice and pde solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ConfigError, Scenario

__all__ = ["ValueSurface", "log_space_nodes", "time_nodes", "center_index"]


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
    must coincide with nodes so the fee never changes inside a step."""
    if N < 1:
        raise ConfigError("need at least one time step")
    T = scn.contract.T
    tnodes = np.linspace(0.0, T, N + 1)
    if scn.fee.kind == "piecewise":
        dt = T / N
        for b in scn.fee.breakpoints:
            steps = b / dt
            if abs(steps - round(steps)) > 1e-9:
                raise ConfigError(
                    f"fee breakpoint t={b} does not fall on the time grid (N={N}); "
                    f"choose N a multiple of {_alignment_multiple(T, scn.fee.breakpoints)}"
                )
    return tnodes


def _alignment_multiple(T: float, breakpoints: tuple[float, ...]) -> int:
    for n in range(1, 10001):
        if all(abs(b * n / T - round(b * n / T)) < 1e-9 for b in breakpoints):
            return n
    return 1


def center_index(xnodes: np.ndarray, x: float) -> int:
    """Index of the node closest to x (error if off by more than half a cell)."""
    i = int(np.argmin(np.abs(np.log(xnodes) - np.log(x))))
    dy = np.log(xnodes[1] / xnodes[0])
    if abs(np.log(xnodes[i] / x)) > 0.51 * dy:
        raise ConfigError(f"x={x} is not on the state grid")
    return i


@dataclass(frozen=True)
class ValueSurface:
    """Contract values v(t_n, x_i) on a time-state grid.

    values[n, i] is the value at time tnodes[n], state xnodes[i]; obstacle holds
    the exercise value the solver enforced (g x, or g x v h for the continuous
    reward kind). provenance is "lattice" or "pde". Immutable once returned.
    """

    tnodes: np.ndarray
    xnodes: np.ndarray
    values: np.ndarray
    obstacle: np.ndarray
    provenance: str
    reward_kind: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n, m = self.values.shape
        if n != self.tnodes.size or m != self.xnodes.size:
            raise ConfigError("surface shape does not match its grid")
        if self.obstacle.shape != self.values.shape:
            raise ConfigError("obstacle shape does not match values")
        self.values.setflags(write=False)
        self.obstacle.setflags(write=False)
