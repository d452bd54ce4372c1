"""Premium representations of the contract value and their residuals.

Two exact identities are evaluated by quadrature against a threshold boundary:

* value = maturity-benefit value + surrender premium, where the premium
  integrates (c g - g') times the discounted account expectation above the
  boundary;
* value = surrender payout + continuation premium, where the premium is the
  guarantee put plus the complementary integral below the boundary.

Subtracting the two gives the solver-free identity
surrender premium - continuation premium = payout - maturity benefit,
used to cross-check the quadratures without any PDE/lattice input.

``decomposition_residuals`` evaluates the time slices on the package's one
thread pool, ``_threads.ordered_map`` (VASTOP_THREADS workers, else one per
available CPU), one item per slice. Each slice is computed alone, so the report
is the same to the last bit for any worker count. scipy's ``ndtr`` releases the
GIL (scipy 1.17.1: a Python thread keeps counting at its idle rate through a
20M-element call), so the slices overlap whole: on the c1 lattice surface at
N=360, M=401 the residuals take 1.65 s on 1 worker and 1.10 s on 2 (2 vCPUs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ._threads import ordered_map
from .analytic import guarantee_put_value, maturity_benefit_value
from .model import ConfigError, Scenario
from .region import Boundary
from .surfaces import ValueSurface

__all__ = [
    "DecompositionReport",
    "surrender_premium",
    "continuation_premium",
    "decomposition_residuals",
]


class _StepQuadrature:
    """Per-step Simpson nodes and integrand factors for the states x, shared by
    the premiums of every date.

    Composite Simpson on the exercise-date grid, one panel per step, with the
    boundary frozen at the step's left node and the fee evaluated one-sidedly
    so panel integrands stay smooth across fee breakpoints and boundary
    empty/nonempty transitions (both live on grid times).
    """

    def __init__(self, scn: Scenario, boundary: Boundary, x: np.ndarray):
        tn = np.asarray(boundary.tnodes, dtype=float)
        self.tnodes = tn
        self.nsteps = tn.size - 1
        dt = np.diff(tn)
        mids = 0.5 * (tn[:-1] + tn[1:])
        # Simpson nodes per step: left endpoint, midpoint, right endpoint
        self.s_nodes = np.stack([tn[:-1], mids, tn[1:]], axis=1).reshape(-1)
        self.weights = np.stack([dt / 6.0, 4.0 * dt / 6.0, dt / 6.0], axis=1).reshape(-1)
        cL = np.asarray([scn.fee.rate_right(float(t)) for t in tn[:-1]])
        cM = np.asarray(scn.fee(mids), dtype=float)
        cR = np.asarray(scn.fee(tn[1:]), dtype=float)
        c = np.stack([cL, cM, cR], axis=1).reshape(-1)
        g = np.asarray(scn.charge(self.s_nodes), dtype=float)
        gt = np.asarray(scn.charge.dt(self.s_nodes), dtype=float)
        self.factor = (c * g - gt) * self.weights  # premium integrand weight per node
        # exact fee integrals from 0 to each Simpson node
        I_grid = np.array([scn.fee.integral(0.0, float(t)) for t in tn])
        I_mid = I_grid[:-1] + np.array(
            [scn.fee.integral(float(a), float(m)) for a, m in zip(tn[:-1], mids)]
        )
        self.fee_int = np.stack([I_grid[:-1], I_mid, I_grid[1:]], axis=1).reshape(-1)
        self.K = np.repeat(np.asarray(boundary.values, dtype=float), 3)
        self.scn = scn
        self.x = x = np.asarray(x, dtype=float)
        # log(x / K) at every Simpson node with a finite boundary, shared by all dates
        finite = np.isfinite(self.K)[:, None]
        self.log_xK = np.zeros((self.K.size, x.size))
        np.divide(x[None, :], self.K[:, None], out=self.log_xK, where=finite)
        np.log(self.log_xK, out=self.log_xK, where=finite)

    def premiums(self, n0: int) -> tuple[np.ndarray, np.ndarray]:
        """Surrender and continuation premiums at (tnodes[n0], x)."""
        scn = self.scn
        t = float(self.tnodes[n0])
        x = self.x
        put = np.asarray(guarantee_put_value(scn, t, x), dtype=float)
        lo = 3 * n0
        if lo >= self.s_nodes.size:
            return np.zeros_like(x), put
        s = self.s_nodes[lo:]
        w = self.factor[lo:]
        K = self.K[lo:]
        tau = s - t
        fee_int = self.fee_int[lo:] - self.fee_int[lo]
        e0 = x[None, :] * np.exp(-fee_int)[:, None]  # E[e^{-r tau} F_s], full
        sig = scn.market.sigma
        r = scn.market.r
        # E[e^{-r tau} F_s 1{F_s >= K}]: e0 Phi(d1) where the boundary is finite
        eK = np.zeros_like(e0)
        finite = np.isfinite(K)
        pos = tau > 0.0
        start = finite & ~pos
        if np.any(start):  # s == t: indicator is deterministic
            eK[start] = np.where(x[None, :] >= K[start, None], x[None, :], 0.0)
        # d1 is built in place in eK, one run of finite-boundary rows with s > t at
        # a time: the same operations in the same order as one d1 expression
        rows = finite & pos
        edges = np.flatnonzero(np.diff(np.concatenate(([0], rows.view(np.int8), [0]))))
        for a, b in zip(edges[::2], edges[1::2]):
            sst = sig * np.sqrt(tau[a:b])
            d1 = eK[a:b]
            np.add(self.log_xK[lo + a:lo + b], (r * tau[a:b] - fee_int[a:b])[:, None], out=d1)
            d1 += 0.5 * (sst**2)[:, None]
            d1 /= sst[:, None]
            ndtr(d1, out=d1)
            d1 *= e0[a:b]
        e = w @ eK
        quad_full = w @ e0
        f = put + e - quad_full
        return e, f


def _boundary_index(boundary: Boundary, t: float) -> int:
    tn = np.asarray(boundary.tnodes, dtype=float)
    n = int(np.argmin(np.abs(tn - t)))
    if abs(tn[n] - t) > 1e-9 * max(1.0, tn[-1]):
        raise ConfigError(f"t={t} is not an exercise date of the boundary grid")
    return n


def surrender_premium(scn: Scenario, boundary: Boundary, t: float, x):
    """Value of the surrender right: integral of (c g - g') against the
    discounted account expectation above the boundary; empty sections
    contribute nothing."""
    quad = _StepQuadrature(scn, boundary, np.atleast_1d(np.asarray(x, dtype=float)))
    e, _ = quad.premiums(_boundary_index(boundary, t))
    return float(e[0]) if np.ndim(x) == 0 else e


def continuation_premium(scn: Scenario, boundary: Boundary, t: float, x):
    """Value of holding on: guarantee put plus the complementary integral of
    (g' - c g) against the expectation below the boundary; empty sections use
    the full expectation. Returns (G - x)_+ at maturity."""
    quad = _StepQuadrature(scn, boundary, np.atleast_1d(np.asarray(x, dtype=float)))
    _, f = quad.premiums(_boundary_index(boundary, t))
    return float(f[0]) if np.ndim(x) == 0 else f


@dataclass(frozen=True)
class DecompositionReport:
    """Residuals of both premium representations across a value surface."""

    tnodes: np.ndarray
    xnodes: np.ndarray
    h: np.ndarray
    e: np.ndarray
    f: np.ndarray
    res_he: np.ndarray
    res_phif: np.ndarray
    max_abs_res_he: float
    mean_abs_res_he: float
    max_abs_res_phif: float
    mean_abs_res_phif: float
    min_e: float
    min_f: float
    flagged: tuple[tuple[int, int], ...]


def decomposition_residuals(surface: ValueSurface, scn: Scenario,
                            boundary: Boundary) -> DecompositionReport:
    """Evaluate both premium representations on the surface grid.

    Residual statistics are taken over the interior nodes (skipping 2 state
    nodes at each edge, where truncation boundary conditions rather than the
    identities dominate), so the surface needs at least 5 state nodes
    (ConfigError otherwise); interior nodes whose residual exceeds 5e-3 G are
    flagged by their (time, state) indices on the surface.
    The time slices run on VASTOP_THREADS workers (see the module docstring);
    an invalid value raises ConfigError.
    """
    if not np.array_equal(surface.tnodes, boundary.tnodes):
        raise ConfigError("surface and boundary live on different time grids")
    tn = surface.tnodes
    x = surface.xnodes
    if x.size < 5:
        raise ConfigError("grid.M must be at least 5 for decompose: its residuals skip"
                          " 2 state nodes at each edge")
    quad = _StepQuadrature(scn, boundary, x)
    Np1 = tn.size
    h = np.empty((Np1, x.size))
    e = np.empty_like(h)
    f = np.empty_like(h)
    phi = np.empty_like(h)

    def fill(n: int) -> None:
        t = float(tn[n])
        h[n] = maturity_benefit_value(scn, t, x)
        e[n], f[n] = quad.premiums(n)
        # payout branch of the representation is the surrender value x g(t)
        # at every date; at maturity g = 1 and v = x + (G - x)_+ exactly
        phi[n] = scn.charge(t) * x

    ordered_map(fill, Np1)
    res_he = surface.values - h - e
    res_phif = surface.values - phi - f
    sl = slice(2, x.size - 2)
    flagged = tuple(
        (int(n), int(i) + 2)
        for n, i in zip(*np.nonzero(np.abs(res_he[:, sl]) > 5e-3 * scn.contract.G))
    )
    return DecompositionReport(
        tnodes=tn,
        xnodes=x,
        h=h,
        e=e,
        f=f,
        res_he=res_he,
        res_phif=res_phif,
        max_abs_res_he=float(np.max(np.abs(res_he[:, sl]))),
        mean_abs_res_he=float(np.mean(np.abs(res_he[:, sl]))),
        max_abs_res_phif=float(np.max(np.abs(res_phif[:, sl]))),
        mean_abs_res_phif=float(np.mean(np.abs(res_phif[:, sl]))),
        min_e=float(np.min(e)),
        min_f=float(np.min(f)),
        flagged=flagged,
    )
