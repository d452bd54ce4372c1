"""Monte Carlo path engine: independent verification of prices and premiums.

Randomness comes from the counter-based Philox generator. Paths are produced
in fixed-size chunks of 2^14; chunk i draws from Philox(key=seed).jumped(i)
with a path-major normal matrix, so results are bit-reproducible for a given
(seed, npaths, nsteps, scheme). Chunks are generated on the package's one
thread pool, ``_threads.ordered_map`` (VASTOP_THREADS workers, else one per
available CPU), and consumed in chunk order, so every estimate is the same to
the last bit for any worker count. All estimators can share one pass over
the paths (``mc_verify_estimates``); per-path payoff moments are accumulated
with numpy's pairwise summation within a chunk and added chunk by chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._threads import ordered_map
from .model import ConfigError, Scenario, UnsupportedScenarioError
from .region import Boundary, RegionMask, extract_boundary

__all__ = [
    "CHUNK_PATHS",
    "PathBatch",
    "McEstimate",
    "McPremiumEstimates",
    "McVerifyEstimates",
    "simulate_paths",
    "mc_maturity_benefit",
    "mc_boundary_strategy_value",
    "mc_premium_integrals",
    "mc_verify_estimates",
]

CHUNK_PATHS = 1 << 14

_SCHEMES = ("exact-lognormal", "euler")


@dataclass(frozen=True)
class PathBatch:
    """Reproducible batch of account paths on an exercise-date grid.

    Paths are not stored; chunks are re-simulated on demand from the seed, so a
    batch of a million paths costs no memory and every consumer sees the exact
    same paths. "exact-lognormal" draws each step from the exact lognormal
    transition (time-only fees); "euler" is an Euler-Maruyama step on ln F with
    the fee frozen at the step's left endpoint (state-dependent fees allowed,
    paths stay strictly positive).
    """

    scn: Scenario
    seed: int
    npaths: int
    nsteps: int
    scheme: str = "exact-lognormal"

    def __post_init__(self) -> None:
        if self.npaths < 1 or self.nsteps < 1:
            raise ConfigError("npaths and nsteps must be positive")
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"scheme must be one of {_SCHEMES}")
        if self.scheme == "exact-lognormal" and not self.scn.fee.is_time_only:
            raise UnsupportedScenarioError("exact-lognormal scheme needs a time-only fee")

    @property
    def tnodes(self) -> np.ndarray:
        return np.linspace(0.0, self.scn.contract.T, self.nsteps + 1)

    def _exact_step_drifts(self) -> np.ndarray:
        tn = self.tnodes
        r, sig = self.scn.market.r, self.scn.market.sigma
        dt = float(tn[1] - tn[0])
        fee_ints = np.array(
            [self.scn.fee.integral(float(a), float(b)) for a, b in zip(tn[:-1], tn[1:])]
        )
        return r * dt - fee_ints - 0.5 * sig * sig * dt

    def _chunk(self, ci: int, drifts: np.ndarray | None) -> np.ndarray:
        """Paths of chunk ci, shape (chunk, nsteps + 1). Runs on a pool worker,
        so it must call no public vastop function (the perfbench tracer's
        span stack is single-threaded)."""
        tn = self.tnodes
        dt = float(tn[1] - tn[0])
        sig = self.scn.market.sigma
        vol = sig * math.sqrt(dt)
        F0 = self.scn.contract.F0
        npc = min(CHUNK_PATHS, self.npaths - ci * CHUNK_PATHS)
        rng = np.random.Generator(np.random.Philox(key=self.seed).jumped(ci))
        Z = rng.standard_normal((npc, self.nsteps))
        F = np.empty((npc, self.nsteps + 1))
        F[:, 0] = F0
        if drifts is not None:
            # exp(log F0 + cumsum(drifts + vol Z)), built in place in Z
            Z *= vol
            Z += drifts
            np.cumsum(Z, axis=1, out=Z)
            Z += math.log(F0)
            np.exp(Z, out=F[:, 1:])
        else:
            r = self.scn.market.r
            for n in range(self.nsteps):
                c = self.scn.fee(float(tn[n]), F[:, n])
                F[:, n + 1] = F[:, n] * np.exp(
                    (r - np.asarray(c) - 0.5 * sig * sig) * dt + vol * Z[:, n]
                )
        return F

    def iter_chunks(self):
        """Yield (first_path_index, F) with F of shape (chunk, nsteps + 1), in
        chunk order.

        Chunks are built by ``_threads.ordered_map`` on a pool sized by
        VASTOP_THREADS (read when iteration starts), with at most one chunk per
        worker pending ahead of the consumer. Closing the generator early
        cancels what is pending and joins the workers.
        """
        drifts = self._exact_step_drifts() if self.scheme == "exact-lognormal" else None
        nchunks = (self.npaths + CHUNK_PATHS - 1) // CHUNK_PATHS
        yield from ordered_map(lambda ci: (ci * CHUNK_PATHS, self._chunk(ci, drifts)), nchunks)

    def materialize(self) -> np.ndarray:
        """Full (npaths, nsteps + 1) path array; refuse absurd sizes."""
        if self.npaths * (self.nsteps + 1) > 1 << 26:
            raise ConfigError("batch too large to materialize; iterate chunks instead")
        return np.concatenate([F for _, F in self.iter_chunks()], axis=0)


def simulate_paths(
    scn: Scenario, seed: int, npaths: int, nsteps: int, scheme: str = "exact-lognormal"
) -> PathBatch:
    """Deterministic path batch; see PathBatch for the scheme semantics."""
    return PathBatch(scn=scn, seed=seed, npaths=npaths, nsteps=nsteps, scheme=scheme)


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    npaths: int
    seed: int


def _finalize(total: float, total_sq: float, n: int, seed: int) -> McEstimate:
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return McEstimate(estimate=mean, std_error=math.sqrt(var / n), npaths=n, seed=seed)


def _one_pass(batch: PathBatch, kernels) -> list[McEstimate]:
    """Run every per-chunk kernel on each chunk of a single pass.

    A kernel maps a chunk F to a tuple of per-path samples; each sample's sum
    and sum of squares are added chunk by chunk in chunk order, so the result
    of a kernel does not depend on which other kernels share the pass.
    """
    totals: list[list[float]] = []
    for _, F in batch.iter_chunks():
        samples = [x for kernel in kernels for x in kernel(F)]
        if not totals:
            totals = [[0.0, 0.0] for _ in samples]
        for acc, x in zip(totals, samples):
            acc[0] += float(np.sum(x))
            acc[1] += float(np.sum(x * x))
    return [_finalize(t, q, batch.npaths, batch.seed) for t, q in totals]


def _maturity_kernel(scn: Scenario):
    r, G, T = scn.market.r, scn.contract.G, scn.contract.T
    disc = math.exp(-r * T)

    def kernel(F: np.ndarray):
        return (disc * np.maximum(G, F[:, -1]),)

    return kernel


def _boundary_kernel(batch: PathBatch, scn: Scenario, boundary: Boundary):
    tn = batch.tnodes
    if boundary.values.shape[0] != batch.nsteps or not np.allclose(
        boundary.tnodes, tn, rtol=0.0, atol=1e-9
    ):
        raise ConfigError("boundary is not defined on the batch's exercise dates")
    r, G = scn.market.r, scn.contract.G
    b = np.asarray(boundary.values, dtype=float)
    disc = np.exp(-r * tn)
    time_only = scn.charge.is_time_only
    gvals = np.asarray(scn.charge(tn[:-1]), dtype=float) if time_only else None

    def kernel(F: np.ndarray):
        hits = F[:, :-1] >= b[None, :]
        hit_any = hits.any(axis=1)
        first = hits.argmax(axis=1)
        pay = disc[-1] * np.maximum(G, F[:, -1])
        if np.any(hit_any):
            rows = np.nonzero(hit_any)[0]
            n_hit = first[rows]
            F_hit = F[rows, n_hit]
            g_hit = gvals[n_hit] if time_only else np.asarray(
                scn.charge(tn[n_hit], F_hit), dtype=float
            )
            pay[rows] = disc[n_hit] * g_hit * F_hit
        return (pay,)

    return kernel


@dataclass(frozen=True)
class McPremiumEstimates:
    e_estimate: float
    e_std_error: float
    f_estimate: float
    f_std_error: float
    npaths: int
    seed: int


def _premium_kernel(batch: PathBatch, scn: Scenario, mask: RegionMask):
    if not scn.is_time_only:
        raise UnsupportedScenarioError("premium integrals need time-only fee and charge")
    tn = batch.tnodes
    if mask.tnodes.size != tn.size or not np.allclose(mask.tnodes, tn, rtol=0.0, atol=1e-9):
        raise ConfigError("mask is not defined on the batch's exercise dates")
    dt = float(tn[1] - tn[0])
    r = scn.market.r
    g = np.asarray(scn.charge(tn), dtype=float)
    gt = np.asarray(scn.charge.dt(tn), dtype=float)
    cL = np.asarray([scn.fee.rate_right(float(t)) for t in tn[:-1]])
    cR = np.asarray(scn.fee(tn[1:]), dtype=float)
    disc = np.exp(-r * tn)
    # per-step endpoint weights of the premium integrand (c g - g') e^{-r s}
    wL = 0.5 * dt * (cL * g[:-1] - gt[:-1]) * disc[:-1]
    wR = 0.5 * dt * (cR * g[1:] - gt[1:]) * disc[1:]
    # the slice threshold, NaN where the slice is not threshold-shaped
    boundary = extract_boundary(mask)
    K = boundary.values.copy()
    K[[n for n, _ in boundary.violations]] = np.nan
    loose = np.flatnonzero(np.isnan(K))
    log_x0 = math.log(mask.xnodes[0])
    dy = math.log(mask.xnodes[1] / mask.xnodes[0])
    G, T = scn.contract.G, scn.contract.T
    discT = math.exp(-r * T)

    def above(F: np.ndarray) -> np.ndarray:
        """F where it lies in the surrender region of its slice, else 0."""
        out = np.where(F >= K, F, 0.0)  # a NaN threshold leaves the column to the loop
        for n in loose:
            idx = np.clip(
                np.rint((np.log(F[:, n]) - log_x0) / dy).astype(int), 0, mask.xnodes.size - 1
            )
            out[:, n] = np.where(mask.in_surrender[n][idx], F[:, n], 0.0)
        return out

    def kernel(F: np.ndarray):
        # right endpoint with the region frozen at the left node
        e_path = above(F[:, :-1]) @ wL + above(F[:, 1:]) @ wR
        full_path = F[:, :-1] @ wL + F[:, 1:] @ wR
        put_path = discT * np.maximum(G - F[:, -1], 0.0)
        return e_path, put_path + e_path - full_path

    return kernel


def _premiums(ee: McEstimate, ff: McEstimate) -> McPremiumEstimates:
    return McPremiumEstimates(
        e_estimate=ee.estimate,
        e_std_error=ee.std_error,
        f_estimate=ff.estimate,
        f_std_error=ff.std_error,
        npaths=ee.npaths,
        seed=ee.seed,
    )


@dataclass(frozen=True)
class McVerifyEstimates:
    maturity_benefit: McEstimate
    boundary_strategy: McEstimate
    premiums: McPremiumEstimates | None


def mc_maturity_benefit(batch: PathBatch, scn: Scenario) -> McEstimate:
    """Sample mean and standard error of e^{-rT} max(G, F_T)."""
    return _one_pass(batch, [_maturity_kernel(scn)])[0]


def mc_boundary_strategy_value(batch: PathBatch, scn: Scenario, boundary: Boundary) -> McEstimate:
    """Value of the stopping rule "surrender at the first exercise date with
    F >= b(t), else collect the maturity benefit": a lower bound on the
    contract value up to exercise-date discretization."""
    return _one_pass(batch, [_boundary_kernel(batch, scn, boundary)])[0]


def mc_premium_integrals(batch: PathBatch, scn: Scenario, mask: RegionMask) -> McPremiumEstimates:
    """Path estimators of the surrender and continuation premiums at (0, F0).

    Works on arbitrary (possibly disconnected-in-time) masks: per step the
    indicator uses the slice threshold when the slice is threshold-shaped, and
    nearest-node mask membership otherwise. Time integration is per-step
    trapezoid with the region frozen at the step's left node, matching the
    decompose module's convention.
    """
    return _premiums(*_one_pass(batch, [_premium_kernel(batch, scn, mask)]))


def mc_verify_estimates(
    batch: PathBatch, scn: Scenario, boundary: Boundary, mask: RegionMask | None = None
) -> McVerifyEstimates:
    """Maturity benefit, boundary-strategy value and, given a mask, the two
    premiums, from one pass over the paths. Each estimate is bit-identical to
    the one its single-estimator function returns."""
    kernels = [_maturity_kernel(scn), _boundary_kernel(batch, scn, boundary)]
    if mask is not None:
        kernels.append(_premium_kernel(batch, scn, mask))
    mb, sv, *prem = _one_pass(batch, kernels)
    return McVerifyEstimates(
        maturity_benefit=mb,
        boundary_strategy=sv,
        premiums=_premiums(*prem) if prem else None,
    )
