"""Monte Carlo path engine: independent verification of prices and premiums.

Randomness comes from the counter-based Philox generator. Paths are produced
in fixed-size chunks of 2^14; chunk i draws from Philox(key=seed).jumped(i)
with a path-major normal matrix, so results are bit-reproducible for a given
(seed, npaths, nsteps). Paths come in antithetic pairs (Glasserman 2004,
Monte Carlo Methods in Financial Engineering, section 4.2): path 2j of a chunk
takes the chunk's j-th row of normals Z_j and path 2j + 1 takes -Z_j, so a
chunk draws half as many normals as it has paths. A chunk is drawn and built
in blocks of BLOCK_ROWS paths: consecutive standard_normal calls on the
chunk's generator stack to the same rows as one call, and a block's normals
and paths stay in the core's cache across the in-place passes that build
them. BLOCK_ROWS and CHUNK_PATHS are even, so a pair never straddles a block
or a chunk, only the batch's last path can be unpaired, and a batch of n paths
is the first n paths of any larger batch with the same seed.

An estimator pass (``mc_verify_estimates(batch, scn, mask)`` serves all
estimators at once, on the region mask and the boundary it derives from it)
maps its chunks on the package's one thread pool, ``_threads.ordered_map``
(one worker per CPU the process may run on). The worker that builds a
chunk runs every estimator's kernel on each block and reduces the chunk to
per-estimator statistics: the sum over its paths, and the count, mean and
centred sum of squares of its pair means, the independent samples. The caller
adds the sums and merges the pair statistics (Chan, Golub & LeVeque) in chunk
order, so every estimate is the same to the last bit for any worker count, and
a pass holds a few blocks per worker, never a whole chunk. An estimate is the
mean over all npaths paths; its standard error is the standard deviation of
the npaths // 2 pair means over the square root of their count, 0 when there
is no pair (one path). ``PathBatch.iter_chunks``, the whole-chunk accessor,
builds its chunks on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._threads import ordered_map
from .model import ConfigError, Scenario
from .region import Boundary, RegionMask, extract_boundary
from .surfaces import step_table

__all__ = [
    "BLOCK_ROWS",
    "CHUNK_PATHS",
    "PathBatch",
    "McEstimate",
    "McPremiumEstimates",
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
        rows and nsteps + 1 columns, with drifts the per-step log drifts. A block
        of m rows draws (m + 1) // 2 rows of normals; its even rows take them and
        its odd rows their negatives. Every block is built in the same two
        buffers, so a block is valid until the next one is drawn. Runs on a pool
        worker, so it calls a vastop function only by a name imported with
        ``from``, never through its module (see ``_threads.ordered_map``)."""
        vol = self.scn.market.sigma * math.sqrt(float(self.tnodes[1] - self.tnodes[0]))
        F0 = self.scn.contract.F0
        npc = min(CHUNK_PATHS, self.npaths - ci * CHUNK_PATHS)
        rng = np.random.Generator(np.random.Philox(key=self.seed).jumped(ci))
        rows = min(BLOCK_ROWS, npc)
        base = math.log(F0) + np.cumsum(drifts)
        Sbuf = np.empty(((rows + 1) // 2, self.nsteps))
        Fbuf = np.empty((rows, self.nsteps + 1))
        Fbuf[:, 0] = F0
        for r0 in range(0, npc, rows):
            F = Fbuf[:npc - r0]
            S = Sbuf[:(F.shape[0] + 1) // 2]
            rng.standard_normal(out=S)
            # log F = log F0 + cumsum(drifts) +- vol cumsum(Z), built in place in F
            S *= vol
            np.cumsum(S, axis=1, out=S)
            up, down = F[0::2, 1:], F[1::2, 1:]
            np.add(base, S, out=up)
            np.subtract(base, S[:down.shape[0]], out=down)
            np.exp(F[:, 1:], out=F[:, 1:])
            yield F

    def _chunk(self, ci: int, drifts: np.ndarray) -> np.ndarray:
        """Paths of chunk ci, shape (chunk, nsteps + 1), from its blocks."""
        return np.concatenate([F.copy() for F in self._blocks(ci, drifts)])

    def _drifts(self) -> np.ndarray:
        """Per-step log drifts of the exact lognormal transition."""
        tn = self.tnodes
        r, sig = self.scn.market.r, self.scn.market.sigma
        dt = float(tn[1] - tn[0])
        return r * dt - self.scn.fee.integral(tn[:-1], tn[1:]) - 0.5 * sig * sig * dt

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


def _chunk_stats(x: np.ndarray) -> tuple[float, int, float, float]:
    """A chunk's per-path samples reduced to their sum, and the count, mean and
    centred sum of squares of their pair means. The mean is taken shifted by the
    first pair mean, so a constant sample has a sum of squares of exactly 0."""
    total, k = float(np.sum(x)), x.size // 2
    if not k:
        return total, 0, 0.0, 0.0
    pm = 0.5 * (x[0:2 * k:2] + x[1:2 * k:2])
    mean = float(pm[0] + np.sum(pm - pm[0]) / k)
    return total, k, mean, float(np.sum(np.square(pm - mean)))


def _finalize(per_chunk, n: int, seed: int) -> McEstimate:
    """Add the chunks' sums and merge their pair statistics (Chan, Golub &
    LeVeque) in chunk order."""
    total, k, mean, m2 = 0.0, 0, 0.0, 0.0
    for s, kb, mb, m2b in per_chunk:
        total += s
        if kb:
            kk = k + kb
            delta = mb - mean
            mean += delta * (kb / kk)
            m2 += m2b + delta * delta * (k * kb / kk)
            k = kk
    return McEstimate(estimate=total / n, std_error=math.sqrt(m2) / k if k else 0.0,
                      npaths=n, seed=seed)


def _one_pass(batch: PathBatch, kernels) -> list[McEstimate]:
    """Run every kernel on each block of a single pass over the paths.

    A kernel maps a block F of paths to a tuple of per-path samples. The worker
    that builds a chunk writes each sample of its blocks into a chunk-length
    buffer and reduces every buffer with ``_chunk_stats``; the caller merges
    those in chunk order. So the result of a kernel depends neither on the
    worker count nor on which other kernels share the pass.
    """

    drifts = batch._drifts()

    def chunk_stats(ci: int) -> list[tuple[float, int, float, float]]:
        bufs, r0 = [], 0
        for F in batch._blocks(ci, drifts):
            samples = [x for kernel in kernels for x in kernel(F)]
            if not bufs:
                npc = min(CHUNK_PATHS, batch.npaths - ci * CHUNK_PATHS)
                bufs = [np.empty(npc) for _ in samples]
            for buf, x in zip(bufs, samples):
                buf[r0:r0 + F.shape[0]] = x
            r0 += F.shape[0]
        return [_chunk_stats(b) for b in bufs]

    per_chunk = ordered_map(chunk_stats, -(-batch.npaths // CHUNK_PATHS))
    return [_finalize(stats, batch.npaths, batch.seed) for stats in zip(*per_chunk)]


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
    gvals = scn.charge(tn[:-1])

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


def _premium_kernel(batch: PathBatch, scn: Scenario, mask: RegionMask, boundary: Boundary):
    """The kernel of both premiums on mask, whose boundary (``extract_boundary``)
    gives each slice's threshold."""
    tn = batch.tnodes
    if mask.tnodes.size != tn.size or not np.allclose(mask.tnodes, tn, rtol=0.0, atol=1e-9):
        raise ConfigError("mask is not defined on the batch's exercise dates")
    dt = float(tn[1] - tn[0])
    r = scn.market.r
    g = scn.charge(tn)
    gt = scn.charge.dt(tn)
    disc = np.exp(-r * tn)
    # the trapezoid ends of each step are the step table's left and right nodes
    table = step_table(scn, tn)
    # per-step endpoint weights of the premium integrand (c g - g') e^{-r s}
    wL = 0.5 * dt * (table.node_fee[:, 0] * g[:-1] - gt[:-1]) * disc[:-1]
    wR = 0.5 * dt * (table.node_fee[:, 2] * g[1:] - gt[1:]) * disc[1:]
    # the slice threshold, NaN where the slice is not threshold-shaped
    K = boundary.values.copy()
    K[[n for n, _ in boundary.violations]] = np.nan
    # per end: the slice each step reads, its threshold and the steps where it is NaN
    ends = [(n, K[n], np.flatnonzero(np.isnan(K[n]))) for n in table.node_date[:, [0, 2]].T]
    log_x0 = math.log(mask.xnodes[0])
    dy = math.log(mask.xnodes[1] / mask.xnodes[0])
    G, T = scn.contract.G, scn.contract.T
    discT = math.exp(-r * T)

    def above(F: np.ndarray, end) -> np.ndarray:
        """F where it lies in the surrender region of the slice it reads, else 0."""
        slices, Kend, loose = end
        out = np.where(F >= Kend, F, 0.0)  # a NaN threshold leaves the column to the nearest node
        if loose.size:
            Fl = F[:, loose]
            with np.errstate(divide="ignore"):  # a path at F = 0 takes the lowest node
                idx = np.clip(np.rint((np.log(Fl) - log_x0) / dy), 0, mask.xnodes.size - 1)
            out[:, loose] = np.where(mask.in_surrender[slices[loose], idx.astype(int)], Fl, 0.0)
        return out

    def kernel(F: np.ndarray):
        e_path = above(F[:, :-1], ends[0]) @ wL + above(F[:, 1:], ends[1]) @ wR
        full_path = F[:, :-1] @ wL + F[:, 1:] @ wR
        put_path = discT * np.maximum(G - F[:, -1], 0.0)
        return e_path, put_path + e_path - full_path

    return kernel


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
    trapezoid; the fee and the slice at each end are those of the step table's
    left and right nodes (``surfaces.step_table``), as in decompose.
    """
    ee, ff = _one_pass(batch, [_premium_kernel(batch, scn, mask, extract_boundary(mask))])
    return McPremiumEstimates(e_estimate=ee.estimate, e_std_error=ee.std_error,
                              f_estimate=ff.estimate, f_std_error=ff.std_error,
                              npaths=ee.npaths, seed=ee.seed)


def mc_verify_estimates(batch: PathBatch, scn: Scenario, mask: RegionMask) -> dict[str, McEstimate]:
    """Maturity benefit, value of the strategy that surrenders on mask's
    boundary (``extract_boundary``) and the surrender and continuation
    premiums on mask, from one pass over the paths, keyed by the quantity
    names of ``estimates.csv`` in its row order. Each estimate is bit-identical
    to the one its single-estimator function returns."""
    boundary = extract_boundary(mask)
    premiums = _premium_kernel(batch, scn, mask, boundary)  # refuses a mask off the batch's dates
    estimates = _one_pass(batch, [_maturity_kernel(scn), _boundary_kernel(batch, scn, boundary),
                                  premiums])
    return dict(zip(("maturity_benefit", "boundary_strategy_value", "surrender_premium",
                     "continuation_premium"), estimates))
