"""Finite-difference solver for the variational inequality satisfied by the value.

Crank-Nicolson in log-state with a Rannacher start (the terminal payoff has a
kink at x = G). Each time level's obstacle constraint value >= surrender payout
is a tridiagonal complementarity problem, solved directly by active-set policy
iteration (Forsyth & Vetzal 2002). This is the second, independent pricing
route next to the lattice module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .model import ConfigError, L_value, Scenario
from .surfaces import ValueSurface, date_index, log_space_nodes, step_table, time_nodes

__all__ = [
    "SolverError",
    "PdeGrid",
    "SmoothFitReport",
    "build_pde_grid",
    "solve_variational_inequality",
    "smooth_fit_diagnostic",
]


class SolverError(RuntimeError):
    """The active-set solve hit its iteration cap; carries the last update norm."""

    def __init__(self, message: str, last_delta: float):
        super().__init__(message)
        self.last_delta = last_delta


@dataclass(frozen=True)
class PdeGrid:
    """Log-uniform state nodes, uniform time steps and the active-set update tolerance.

    The scheme is fixed: Crank-Nicolson (theta) after `rannacher_intervals` fully
    implicit intervals, each taken in two half steps, with at most `max_iter`
    active-set iterations per level.
    """

    xnodes: np.ndarray
    tnodes: np.ndarray
    tol: float
    theta: ClassVar[float] = 0.5
    max_iter: ClassVar[int] = 10_000
    rannacher_intervals: ClassVar[int] = 2

    def __post_init__(self) -> None:
        if self.xnodes.size < 4:  # the top node is extrapolated from two interior nodes
            raise ConfigError("grid.M must be at least 4 for the PDE solver")


def build_pde_grid(scn: Scenario, N: int, M: int, xmax_mult: float = 8.0) -> PdeGrid:
    """Grid constructor; tol is 1e-10 G, positive for every G of the rules."""
    return PdeGrid(
        xnodes=log_space_nodes(scn.contract.F0, xmax_mult, M),
        tnodes=time_nodes(scn, N),
        tol=1e-10 * scn.contract.G,
    )


def _obstacle_solve(sub, diag, sup, rhs, obstacle, v0, tol, max_iter):
    """Policy iteration (active set) on the tridiagonal LCP min(A v - rhs, v - obstacle) = 0.

    A has diagonals sub, diag, sup with sub[0] = sup[-1] = 0. Each iteration marks
    node i active when (A v - rhs)_i > v_i - obstacle_i. v is returned when that is
    the set it was solved with, or when the last solve moved it by at most tol (nodes
    with both sides zero can flip on rounding alone); otherwise one tridiagonal solve
    (LAPACK dgtsv, the routine ``solve_banded((1, 1), ...)`` calls) with v = obstacle
    on the active rows and A v = rhs on the others gives the next v; a singular
    system raises LinAlgError. Returns (v, A v - rhs, iterations).
    """
    v = np.maximum(v0, obstacle)
    active = None
    for it in range(1, max_iter + 1):
        res = diag * v - rhs
        res[1:] += sub[1:] * v[:-1]
        res[:-1] += sup[:-1] * v[1:]
        now = res > v - obstacle
        if active is not None and (last <= tol or np.array_equal(now, active)):
            return v, res, it
        active = now
        *_, vn, info = dgtsv(np.where(active[1:], 0.0, sub[1:]), np.where(active, 1.0, diag),
                             np.where(active[:-1], 0.0, sup[:-1]), np.where(active, obstacle, rhs))
        if info:  # info > 0: an exactly zero pivot
            raise LinAlgError("singular matrix")
        last = float(np.max(np.abs(vn - v)))
        v = vn
    raise SolverError(
        f"active-set solve did not settle in {max_iter} iterations (last update {last:.3e})", last
    )


def solve_variational_inequality(scn: Scenario, grid: PdeGrid) -> ValueSurface:
    """Backward time-stepping of max{A_t v + v_t - r v, payout - v} = 0.

    Terminal condition max(G, x); obstacle g(t) x enforced by the active-set
    solve at every level. Bottom boundary is the guarantee floor G e^{-r(T-t)},
    or the payout g(t) x where that lies higher; the top node is clamped to the
    payout when the slice is expected to contain surrender states (L(t) < 0)
    and extrapolated linearly in x otherwise. The fee, the solver fee of
    ``surfaces.step_table``, depends on time only, so the coefficients a, bq and cq
    of v_{i-1}, v_i and v_{i+1} are scalars per level.
    """
    x = grid.xnodes
    tn = grid.tnodes
    M = x.size
    N = tn.size - 1
    dt_full = float(tn[1] - tn[0])
    G, r, sig = scn.contract.G, scn.market.r, scn.market.sigma
    dy = float(np.log(x[1] / x[0]))
    rho_x = (x[-1] - x[-2]) / (x[-2] - x[-3])

    values = np.empty((N + 1, M))
    obstacle = np.empty_like(values)
    terminal = np.maximum(G, x)
    values[N] = terminal
    obstacle[N] = terminal

    comp_free_max = 0.0
    comp_active_min = 0.0
    iters_max = 0
    v = terminal.copy()

    s2 = 0.5 * sig * sig
    clamp = L_value(scn, tn[:-1]) < 0.0
    g_left = scn.charge(tn[:-1])
    c_step = step_table(scn, tn).solver_fee
    for n in range(N - 1, -1, -1):
        phi = g_left[n] * x
        adv = r - c_step[n] - s2
        a = s2 / dy**2 - adv / (2.0 * dy)
        bq = -2.0 * s2 / dy**2 - r  # not -(a + cq) - r, which rounds differently
        cq = s2 / dy**2 + adv / (2.0 * dy)

        clamp_top = clamp[n]

        rannacher = (N - 1 - n) < grid.rannacher_intervals
        substeps = 2 if rannacher else 1
        theta = 1.0 if rannacher else grid.theta
        dt = dt_full / substeps

        for k in range(substeps):
            t_level = float(tn[n + 1]) - dt * (k + 1)
            floor = max(G * math.exp(-r * (scn.contract.T - t_level)), phi[0])
            sub = np.full(M - 2, -theta * dt * a)
            diag = np.full(M - 2, 1.0 - theta * dt * bq)
            sup = np.full(M - 2, -theta * dt * cq)
            # explicit part uses the full previous vector
            Lv = a * v[:-2] + bq * v[1:-1] + cq * v[2:]
            rhs = v[1:-1] + (1.0 - theta) * dt * Lv
            rhs[0] -= sub[0] * floor
            if clamp_top:
                rhs[-1] -= sup[-1] * phi[-1]
            else:
                # fold v_top = (1 + rho) v_{M-2} - rho v_{M-3} into the last row
                diag[-1] += sup[-1] * (1.0 + rho_x)
                sub[-1] -= sup[-1] * rho_x
            sup[-1] = 0.0
            sub[0] = 0.0
            v_int, res, iters = _obstacle_solve(
                sub, diag, sup, rhs, phi[1:-1], v[1:-1], grid.tol, grid.max_iter
            )
            iters_max = max(iters_max, iters)
            free = v_int > phi[1:-1] + 10.0 * grid.tol
            if np.any(free):
                comp_free_max = max(comp_free_max, float(np.max(np.abs(res[free]))))
            if np.any(~free):
                comp_active_min = min(comp_active_min, float(np.min(res[~free])))
            top = phi[-1] if clamp_top else (1.0 + rho_x) * v_int[-1] - rho_x * v_int[-2]
            v = np.concatenate(([floor], v_int, [max(top, phi[-1])]))
        values[n] = v
        obstacle[n] = phi
    return ValueSurface(
        tnodes=tn,
        xnodes=x,
        values=values,
        obstacle=obstacle,
        provenance="pde",
        metadata={
            # the most iterations any level took, under the PSOR solver's name
            "psor_max_iterations": iters_max,
            # the update tolerance, also the diagnostics' obstacle slack
            "solver_tol": grid.tol,
            "complementarity_free_max": comp_free_max,
            "complementarity_active_min": comp_active_min,
        },
    )


@dataclass(frozen=True)
class SmoothFitReport:
    """Per-time right slope at the boundary and its jump from the left slope."""

    slope_right: np.ndarray
    jump: np.ndarray
    skipped: tuple[str, ...]


def smooth_fit_diagnostic(surface: ValueSurface, boundary, times) -> SmoothFitReport:
    """Measure the slope discontinuity of the value across the boundary.

    For each requested time with a finite boundary node b, the right slope is
    taken over the first full surrender cell (where the value sits on the
    linear payout, so it equals g(t) exactly) and the left slope over the last
    full continuation cell. Their absolute difference vanishes with the mesh
    when the value is continuously differentiable across the boundary. Empty
    sections are skipped with a marker.
    """
    x = surface.xnodes
    tq = np.asarray(times, dtype=float)
    jumps = np.full(tq.size, np.nan)
    rights = np.full(tq.size, np.nan)
    skipped: list[str] = []
    for j, t in enumerate(tq):
        n = date_index(surface.tnodes, t)
        b = boundary.values[n] if n < len(boundary.values) else np.inf
        if not np.isfinite(b):
            skipped.append(f"t={t}: empty section")
            continue
        i = int(np.searchsorted(x, b * (1.0 - 1e-12)))
        if i < 2 or i + 1 >= x.size:
            skipped.append(f"t={t}: boundary too close to the grid edge")
            continue
        v = surface.values[n]
        left = (v[i - 1] - v[i - 2]) / (x[i - 1] - x[i - 2])
        rights[j] = (v[i + 1] - v[i]) / (x[i + 1] - x[i])
        jumps[j] = abs(rights[j] - left)
    return SmoothFitReport(
        slope_right=rights,
        jump=jumps,
        skipped=tuple(skipped),
    )
