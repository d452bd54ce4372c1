"""Monte Carlo path engine: independent verification of prices and premiums.

Randomness comes from the counter-based Philox generator. Paths are produced
in fixed-size chunks of 2^14; chunk i draws from Philox(key=seed).jumped(i)
with a path-major normal matrix, so results are bit-reproducible for a given
(seed, npaths, nsteps). A chunk is drawn and built in blocks of
BLOCK_ROWS paths: consecutive standard_normal calls on the chunk's generator
stack to the same paths as one call, and a block's normals and paths stay in
the core's cache across the in-place passes that build them.

An estimator pass (``mc_verify_estimates`` serves all estimators at once)
maps its chunks on the package's one thread pool, ``_threads.ordered_map``
(one worker per CPU the process may run on). The worker that builds a
chunk runs every estimator's kernel on each block and reduces the chunk to
per-estimator sums and sums of squares, taken with numpy's pairwise summation
over chunk-length sample buffers. The caller adds those sums in chunk order,
so every estimate is the same to the last bit for any worker count, and a pass
holds a few blocks per worker, never a whole chunk. ``PathBatch.iter_chunks``,
the whole-chunk accessor, builds its chunks on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._threads import ordered_map
from .model import ConfigError, Scenario
from .region import Boundary, RegionMask, extract_boundary

__all__ = [
    "BLOCK_ROWS",
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
BLOCK_ROWS = 256


@dataclass(frozen=True)
class PathBatch:
    """Reproducible batch of account paths on an exercise-date grid.

    Paths are not stored; chunks are re-simulated on demand from the seed, so a
    batch of a million paths costs no memory and every consumer sees the exact
    same paths. Each step is drawn from the exact lognormal transition.
    """

    scn: Scenario
    seed: int
    npaths: int
    nsteps: int

    def __post_init__(self) -> None:
        if self.npaths < 1 or self.nsteps < 1:
            raise ConfigError("npaths and nsteps must be positive")

    @property
    def tnodes(self) -> np.ndarray:
        return np.linspace(0.0, self.scn.contract.T, self.nsteps + 1)

    def _blocks(self, ci: int, drifts: np.ndarray):
        """Yield the paths of chunk ci as consecutive row blocks of BLOCK_ROWS
        rows and nsteps + 1 columns, with drifts the per-step log drifts. Every
        block is built in the same two buffers, so a block is valid until the
        next one is drawn. Runs on a pool worker, so it must call no public
        vastop function (the perfbench tracer's span stack is single-threaded)."""
        vol = self.scn.market.sigma * math.sqrt(float(self.tnodes[1] - self.tnodes[0]))
        F0 = self.scn.contract.F0
        npc = min(CHUNK_PATHS, self.npaths - ci * CHUNK_PATHS)
        rng = np.random.Generator(np.random.Philox(key=self.seed).jumped(ci))
        rows = min(BLOCK_ROWS, npc)
        Zbuf = np.empty((rows, self.nsteps))
        Fbuf = np.empty((rows, self.nsteps + 1))
        Fbuf[:, 0] = F0
        for r0 in range(0, npc, rows):
            Z, F = Zbuf[:npc - r0], Fbuf[:npc - r0]
            rng.standard_normal(out=Z)
            # exp(log F0 + cumsum(drifts + vol Z)), built in place in Z
            Z *= vol
            Z += drifts
            np.cumsum(Z, axis=1, out=Z)
            Z += math.log(F0)
            np.exp(Z, out=F[:, 1:])
            yield F

    def _chunk(self, ci: int, drifts: np.ndarray) -> np.ndarray:
        """Paths of chunk ci, shape (chunk, nsteps + 1), from its blocks."""
        return np.concatenate([F.copy() for F in self._blocks(ci, drifts)])

    def _drifts(self) -> np.ndarray:
        """Per-step log drifts of the exact lognormal transition."""
        tn = self.tnodes
        r, sig = self.scn.market.r, self.scn.market.sigma
        dt = float(tn[1] - tn[0])
        fee_ints = np.array(
            [self.scn.fee.integral(float(a), float(b)) for a, b in zip(tn[:-1], tn[1:])]
        )
        return r * dt - fee_ints - 0.5 * sig * sig * dt

    def iter_chunks(self):
        """Yield (first_path_index, F) with F of shape (chunk, nsteps + 1), in
        chunk order; each chunk is built on the calling thread when it is asked
        for. The estimators do not come this way: their pass reduces each chunk
        on a pool worker, block by block (see ``_one_pass``).
        """
        drifts = self._drifts()
        for ci in range(-(-self.npaths // CHUNK_PATHS)):
            yield ci * CHUNK_PATHS, self._chunk(ci, drifts)

    def materialize(self) -> np.ndarray:
        """Full (npaths, nsteps + 1) path array; refuse absurd sizes."""
        if self.npaths * (self.nsteps + 1) > 1 << 26:
            raise ConfigError("batch too large to materialize; iterate chunks instead")
        return np.concatenate([F for _, F in self.iter_chunks()], axis=0)


def simulate_paths(scn: Scenario, seed: int, npaths: int, nsteps: int) -> PathBatch:
    """Deterministic path batch; see PathBatch."""
    return PathBatch(scn=scn, seed=seed, npaths=npaths, nsteps=nsteps)


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
    """Run every kernel on each block of a single pass over the paths.

    A kernel maps a block F of paths to a tuple of per-path samples. The worker
    that builds a chunk writes each sample of its blocks into a chunk-length
    buffer and returns every buffer's sum and sum of squares; the caller adds
    those in chunk order. So the result of a kernel depends neither on the
    worker count nor on which other kernels share the pass.
    """

    drifts = batch._drifts()

    def chunk_sums(ci: int) -> list[tuple[float, float]]:
        bufs, r0 = [], 0
        for F in batch._blocks(ci, drifts):
            samples = [x for kernel in kernels for x in kernel(F)]
            if not bufs:
                npc = min(CHUNK_PATHS, batch.npaths - ci * CHUNK_PATHS)
                bufs = [np.empty(npc) for _ in samples]
            for buf, x in zip(bufs, samples):
                buf[r0:r0 + F.shape[0]] = x
            r0 += F.shape[0]
        return [(float(np.sum(b)), float(np.sum(b * b))) for b in bufs]

    per_chunk = ordered_map(chunk_sums, -(-batch.npaths // CHUNK_PATHS))
    totals = [[0.0, 0.0] for _ in per_chunk[0]]
    for sums in per_chunk:
        for acc, (s, q) in zip(totals, sums):
            acc[0] += s
            acc[1] += q
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
    gvals = np.asarray(scn.charge(tn[:-1]), dtype=float)

    def kernel(F: np.ndarray):
        hits = F[:, :-1] >= b[None, :]
        hit_any = hits.any(axis=1)
        first = hits.argmax(axis=1)
        pay = disc[-1] * np.maximum(G, F[:, -1])
        if np.any(hit_any):
            rows = np.nonzero(hit_any)[0]
            n_hit = first[rows]
            pay[rows] = disc[n_hit] * gvals[n_hit] * F[rows, n_hit]
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
        out = np.where(F >= K, F, 0.0)  # a NaN threshold leaves the column to the nearest node
        if loose.size:
            Fl = F[:, loose]
            idx = np.clip(np.rint((np.log(Fl) - log_x0) / dy).astype(int), 0, mask.xnodes.size - 1)
            out[:, loose] = np.where(mask.in_surrender[loose, idx], Fl, 0.0)
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
    premiums: McPremiumEstimates


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
    batch: PathBatch, scn: Scenario, boundary: Boundary, mask: RegionMask
) -> McVerifyEstimates:
    """Maturity benefit, boundary-strategy value and the two premiums, from one
    pass over the paths. Each estimate is bit-identical to the one its
    single-estimator function returns."""
    mb, sv, ee, ff = _one_pass(batch, [_maturity_kernel(scn), _boundary_kernel(batch, scn, boundary),
                                       _premium_kernel(batch, scn, mask)])
    return McVerifyEstimates(maturity_benefit=mb, boundary_strategy=sv, premiums=_premiums(ee, ff))
