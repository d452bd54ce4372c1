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
thread pool, ``_threads.ordered_map`` (one worker per CPU the process may run
on), one item per slice. Each slice is computed alone, so the report
is the same to the last bit for any worker count. scipy's ``ndtr`` releases the
GIL (scipy 1.17.1: a Python thread keeps counting at its idle rate through a
20M-element call), so the slices overlap whole: on the c1 lattice surface at
N=360, M=401 the residuals take 1.65 s on 1 worker and 0.87 s on 2 (2 vCPUs,
medians of 8 calls).

A slice integrates over the 3 Simpson nodes of each later step and is
evaluated in column blocks of at most ``BLOCK_NODES`` + 3 state nodes, so a
worker holds two 3N x (``BLOCK_NODES`` + 3) float arrays, 2.3 MB at N=360,
whatever M is. Besides the report's five (N+1) x M arrays, the decomposition
keeps one N x M table of log(x / K). Its traced peak at N=360, M=401 on 2
workers is 11.3 MB, against 22.8 MB for full-width slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ._threads import ordered_map
from .analytic import guarantee_put_value, maturity_benefit_value
from .model import ConfigError, Scenario
from .region import Boundary
from .surfaces import ValueSurface, date_index

__all__ = [
    "BLOCK_NODES",
    "DecompositionReport",
    "premiums_at",
    "decomposition_residuals",
]


# State nodes per column block of the premium quadrature, a multiple of 32
# (see the module docstring). 128 runs as fast as full-width slices; 64 traced
# 9.1 MB at N=360, M=401 on 2 workers and ran about 3% slower.
BLOCK_NODES = 128


def _blocks(m: int) -> list[tuple[int, int]]:
    """Column blocks [i0, i1) of m state nodes, BLOCK_NODES wide; a remainder
    narrower than 4 joins the block before it, as OpenBLAS rounds a product of
    fewer than 4 columns differently from the same columns of a wider one."""
    edges = [*range(0, max(m - 3, 1), BLOCK_NODES), m]
    return list(zip(edges[:-1], edges[1:]))


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """The runs [a, b) of True in a boolean vector."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.view(np.int8), [0]))))
    return list(zip(edges[::2], edges[1::2]))


class _StepQuadrature:
    """Per-step Simpson nodes and integrand factors for the states x, shared by
    the premiums of every date.

    Composite Simpson on the exercise-date grid, one panel per step, with the
    boundary frozen at the step's left node and the fee evaluated one-sidedly
    so panel integrands stay smooth across fee breakpoints and boundary
    empty/nonempty transitions (both live on grid times).

    ``premiums`` evaluates the states in the column blocks of ``_blocks``. Every
    element goes through the numpy and ``ndtr`` operations of one full-width
    (3N x M) evaluation, in the same order, and each block's quadrature is one
    ``dgemv`` on its columns, which OpenBLAS rounds as it rounds those columns
    of the full product when the block starts on a multiple of 4 and is at
    least 4 wide; so the premiums keep the full-width bits
    (``tests/test_decompose.py`` keeps that formulation as the reference).
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
        c = np.stack([scn.fee.rate_right(tn[:-1]), scn.fee(mids), scn.fee(tn[1:])],
                     axis=1).reshape(-1)
        # premium integrand weight per node
        self.factor = (c * scn.charge(self.s_nodes) - scn.charge.dt(self.s_nodes)) * self.weights
        # exact fee integrals from 0 to each Simpson node
        I_grid = np.array([scn.fee.integral(0.0, float(t)) for t in tn])
        I_mid = I_grid[:-1] + np.array(
            [scn.fee.integral(float(a), float(m)) for a, m in zip(tn[:-1], mids)]
        )
        self.fee_int = np.stack([I_grid[:-1], I_mid, I_grid[1:]], axis=1).reshape(-1)
        bvals = np.asarray(boundary.values, dtype=float)
        self.K = np.repeat(bvals, 3)
        self.scn = scn
        self.x = x = np.asarray(x, dtype=float)
        # log(x / K) of every step with a finite boundary, shared by all dates and
        # by the step's 3 Simpson nodes: one contiguous table per column block
        finite = np.isfinite(bvals)[:, None]
        self.blocks = _blocks(x.size)
        self.log_xK = []
        for i0, i1 in self.blocks:
            table = np.zeros((bvals.size, i1 - i0))
            np.divide(x[None, i0:i1], bvals[:, None], out=table, where=finite)
            np.log(table, out=table, where=finite)
            self.log_xK.append(table)

    def premiums(self, n0: int) -> tuple[np.ndarray, np.ndarray]:
        """Surrender and continuation premiums at (tnodes[n0], x)."""
        scn = self.scn
        t = float(self.tnodes[n0])
        x = self.x
        put = np.asarray(guarantee_put_value(scn, t, x), dtype=float)
        lo = 3 * n0
        if lo >= self.s_nodes.size:
            return np.zeros_like(x), put
        w = self.factor[lo:]
        K = self.K[lo:]
        tau = self.s_nodes[lo:] - t
        fee_int = self.fee_int[lo:] - self.fee_int[lo]
        disc = np.exp(-fee_int)[:, None]  # E[e^{-r tau} F_s] = x disc
        sig = scn.market.sigma
        r = scn.market.r
        finite = np.isfinite(K)
        # F_s is random where sigma sqrt(tau) > 0, and F_s = x to float precision
        # elsewhere: at s == t, and where sigma sqrt(tau) underflows to 0, as tau
        # or the drift is then too small to move x on a grid the lattice accepts
        pos = sig * np.sqrt(tau) > 0.0
        # E[e^{-r tau} F_s 1{F_s >= K}] = e0 Phi(d1) on each run of finite-boundary
        # rows, which is a run of whole steps; d1's row constants are taken once
        # per slice. Rows with a deterministic F_s take harmless constants here
        # and the indicator below.
        runs = []
        for a, b in _runs(finite):
            sst = sig * np.sqrt(tau[a:b])
            half = 0.5 * (sst**2)
            sst[~pos[a:b]] = 1.0
            runs.append((a, b, (r * tau[a:b] - fee_int[a:b]).reshape(-1, 3, 1),
                         half[:, None], sst[:, None]))
        zero = _runs(~finite)
        start = [(a, b, np.where(x[None, :] >= K[a:b, None], x[None, :], 0.0))
                 for a, b in _runs(finite & ~pos)]
        e = np.empty_like(x)
        quad_full = np.empty_like(x)
        R = w.size
        bufs = np.empty((2, R * max(i1 - i0 for i0, i1 in self.blocks)))
        for (i0, i1), log_xK in zip(self.blocks, self.log_xK):
            m = i1 - i0
            e0 = np.multiply(x[None, i0:i1], disc, out=bufs[0, :R * m].reshape(R, m))
            eK = bufs[1, :R * m].reshape(R, m)
            for a, b in zero:
                eK[a:b] = 0.0
            for a, b, drift, half, sst in runs:
                # d1 is built in place in eK: the same operations in the same
                # order as one d1 expression
                d1 = eK[a:b]
                np.add(log_xK[(lo + a) // 3:(lo + b) // 3, None, :], drift,
                       out=d1.reshape(-1, 3, m))
                d1 += half
                with np.errstate(over="ignore"):  # d1 = +-inf is the limit of a tiny sst
                    d1 /= sst
                # no ndtr(..., where=) to skip rows: scipy 1.17.1 then leaves
                # cells unwritten and corrupts the heap
                ndtr(d1, out=d1)
                d1 *= e0[a:b]
            for a, b, indicator in start:
                eK[a:b] = indicator[:, i0:i1]
            np.matmul(w, eK, out=e[i0:i1])
            np.matmul(w, e0, out=quad_full[i0:i1])
        f = put + e - quad_full
        return e, f


def premiums_at(scn: Scenario, boundary: Boundary, t: float, x):
    """The surrender premium e and the continuation premium f at (t, x), floats
    for a scalar x. e integrates (c g - g') against the discounted account
    expectation above the boundary, empty sections contributing nothing; f is
    the guarantee put plus the complementary integral below the boundary, empty
    sections using the full expectation, and (G - x)_+ at maturity."""
    quad = _StepQuadrature(scn, boundary, np.atleast_1d(np.asarray(x, dtype=float)))
    e, f = quad.premiums(date_index(boundary.tnodes, t))
    return (float(e[0]), float(f[0])) if np.ndim(x) == 0 else (e, f)


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
    The time slices run on the package's thread pool (see the module docstring).
    """
    if not np.array_equal(surface.tnodes, boundary.tnodes):
        raise ConfigError("surface and boundary live on different time grids")
    tn = surface.tnodes
    x = surface.xnodes
    if x.size < 5:
        raise ConfigError("grid.M must be at least 5 for decompose: its residuals skip"
                          " 2 state nodes at each edge")
    quad = _StepQuadrature(scn, boundary, x)
    v = surface.values
    h = np.empty((tn.size, x.size))
    e = np.empty_like(h)
    f = np.empty_like(h)
    res_phif = np.empty_like(h)
    g = scn.charge(tn)

    def fill(n: int) -> None:
        h[n] = maturity_benefit_value(scn, float(tn[n]), x)
        e[n], f[n] = quad.premiums(n)
        # payout branch of the representation is the surrender value x g(t)
        # at every date; at maturity g = 1 and v = x + (G - x)_+ exactly
        res_phif[n] = v[n] - g[n] * x - f[n]

    ordered_map(fill, tn.size)
    res_he = v - h - e
    sl = slice(2, x.size - 2)
    abs_he = np.abs(res_he[:, sl])
    abs_phif = np.abs(res_phif[:, sl])
    flagged = tuple(
        (int(n), int(i) + 2) for n, i in zip(*np.nonzero(abs_he > 5e-3 * scn.contract.G))
    )
    return DecompositionReport(
        tnodes=tn,
        xnodes=x,
        h=h,
        e=e,
        f=f,
        res_he=res_he,
        res_phif=res_phif,
        max_abs_res_he=float(np.max(abs_he)),
        mean_abs_res_he=float(np.mean(abs_he)),
        max_abs_res_phif=float(np.max(abs_phif)),
        mean_abs_res_phif=float(np.mean(abs_phif)),
        min_e=float(np.min(e)),
        min_f=float(np.min(f)),
        flagged=flagged,
    )
