"""Bermudan dynamic programming on a Markov-chain discretization of the account.

The account diffusion is approximated by a continuous-time Markov chain on a
log-uniform state grid: tridiagonal generator rows match the local drift
(r - c(t_n)) x and variance sigma^2 x^2 exactly (drift upwinded where needed
to keep rates nonnegative), and the one-step transition matrix is the matrix
exponential of the generator over a step. ``_expm`` computes it as
``scipy.linalg.expm`` does (Al-Mohy & Higham 2009: scipy's Pade step, then
repeated squaring), except that before each squaring it sets to 0 every entry
below sqrt(tiny), about 1.5e-154. A product of two kept entries is then a normal
number, so no squaring stalls on subnormal arithmetic. On the production grids
and on random documents, every entry this moves lies below 1e-136, far under
any value a sweep can resolve, and both sweeps keep scipy's bits. Backward induction
over the exercise dates then values the surrender right for either reward
convention.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import bandwidth, expm
from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

from .model import ConfigError, Scenario
from .surfaces import MAX_STEPS, ValueSurface, center_index, log_space_nodes, step_table, time_nodes

__all__ = [
    "GridResolutionError",
    "ChainGrid",
    "ConvergenceStudy",
    "chain_steps",
    "build_chain",
    "bermudan_value",
    "american_extrapolate",
]


class GridResolutionError(ConfigError):
    """The chain's grid and scenario give no valid transition matrix; the message
    names the cause: a time step or a scenario too stiff, or a state grid too coarse."""


@dataclass(frozen=True)
class ChainGrid:
    """State chain for one scenario: nodes, exercise dates and per-step transitions.

    ``step_keys[n]`` is the fee rate step n's matrix was built with, the solver
    fee of ``surfaces.step_table``; ``checks`` maps each fee rate to the
    ``row_sum_error`` (largest |row sum - 1|) and ``min_probability`` its
    matrix had on leaving ``_expm``. Transition matrices are shared between
    steps with identical coefficients (piecewise fees produce only a handful of
    distinct matrices), and between chains built with one ``matrices`` memo
    (see ``build_chain``). Each is ``_expm`` of the step's generator: scipy's
    Pade step, then squarings with the entries below sqrt(tiny) set to 0 before
    each (see the module docstring). They are read-only, and hold no negative
    and no subnormal entry: ``build_chain`` sets every probability below the
    smallest normal double (2.2e-308) to 0.
    Those far-tail entries change no value a sweep computes (a dropped term
    P_ij V_j is below 2.2e-308 max V, and rounding absorbs it into a row sum
    of at least about min V), but arithmetic on subnormals is slow: at
    N=360, M=401 they are 2,475 entries per matrix, and one ``P @ V`` takes
    about 80 us with them and 35 us without (one OpenBLAS thread, x86-64).
    """

    xnodes: np.ndarray
    tnodes: np.ndarray
    step_keys: tuple[float, ...]
    matrices: dict
    checks: dict
    discount: float

    @property
    def nsteps(self) -> int:
        return self.tnodes.size - 1

    @property
    def dt(self) -> float:
        return float(self.tnodes[1] - self.tnodes[0])

    def transition(self, n: int) -> np.ndarray:
        return self.matrices[self.step_keys[n]]


def _generator(xnodes: np.ndarray, mu: np.ndarray, var: np.ndarray) -> np.ndarray:
    M = xnodes.size
    Q = np.zeros((M, M))
    dl = np.diff(xnodes)  # dl[i] = x[i+1] - x[i]
    dm = dl[:-1]  # delta minus at interior node i = 1..M-2
    dp = dl[1:]
    mui = mu[1:-1]
    vari = var[1:-1]
    span = dm + dp
    q_dn = (vari - mui * dp) / (dm * span)
    q_up = (vari + mui * dm) / (dp * span)
    bad = (q_dn < 0.0) | (q_up < 0.0)
    if np.any(bad):
        # upwind the drift at offending nodes: first moment stays exact
        q_dn_u = vari / (dm * span) + np.maximum(-mui, 0.0) / dm
        q_up_u = vari / (dp * span) + np.maximum(mui, 0.0) / dp
        q_dn = np.where(bad, q_dn_u, q_dn)
        q_up = np.where(bad, q_up_u, q_up)
    idx = np.arange(1, M - 1)
    Q[idx, idx - 1] = q_dn
    Q[idx, idx + 1] = q_up
    Q[idx, idx] = -(q_dn + q_up)
    # bottom edge: inward drift only; top edge: absorbing (the backward
    # induction overrides the top node, see bermudan_value)
    if mu[0] > 0.0:
        Q[0, 1] = mu[0] / dl[0]
        Q[0, 0] = -Q[0, 1]
    if mu[-1] < 0.0:
        Q[-1, -2] = -mu[-1] / dl[-1]
        Q[-1, -1] = -Q[-1, -2]
    return Q


_STEP_BUDGET = 1e-12 / np.finfo(float).eps  # largest exit rate x dt expm rounds within 1e-12
_TINY = np.finfo(float).tiny  # smallest normal double, 2.2e-308
_SQRT_TINY = math.sqrt(_TINY)  # 1.5e-154: a product of two larger entries is normal


def _expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a generator step, as the generic branch of
    ``scipy.linalg.expm`` (scipy 1.17) computes it, with entries below sqrt(tiny)
    set to 0 before each squaring (see the module docstring). A diagonal or
    triangular A takes scipy's own branches."""
    lower, upper = bandwidth(A)
    if lower == 0 or upper == 0:
        return expm(A)
    Am = np.empty((5,) + A.shape)  # scipy's workspace: A and its powers, then U and V
    Am[0] = A
    m, s = pick_pade_structure(Am)
    if m < 0:
        raise MemoryError("scipy.linalg.expm could not allocate sufficient memory while"
                          f" trying to compute the Pade structure (error code {m}).")
    info = pade_UV_calc(Am, m)
    if info != 0:
        if info <= -11:
            raise MemoryError("scipy.linalg.expm could not allocate sufficient memory while"
                              f" trying to compute the exponential (error code {info}).")
        raise RuntimeError("scipy.linalg.expm got an internal LAPACK error during the"
                           f" exponential computation (error code {info})")
    E = Am[0]
    for _ in range(s):
        E[np.abs(E) < _SQRT_TINY] = 0.0
        E = E @ E
    return E if s else E.copy()  # a copy frees the workspace


def _invalid_matrix(head: str, scn: Scenario, xnodes, var, stiffness: float, dt: float,
                    N: int, M: int, xmax_mult: float):
    """GridResolutionError naming the likelier cause of an invalid transition matrix.

    The rounding error of expm(Q dt) grows with the stiffness of Q dt (its
    largest exit rate times dt), which a finer state grid raises and more time
    steps lower. A step stiffer than the rounding budget is the time grid's
    fault when enough steps cure it, else the keys whose rates dominate are
    named. The diffusion rates scale as sigma^2 / dy^2: market.sigma and the
    log spacing dy of the state nodes, which grid.M and grid.xmax_mult set.
    A sigma so small that the variance (sigma x)^2 underflows to 0 at every
    node leaves a triangular generator, whose exponential scipy's triangular
    branch rounds beyond the budget on any grid: market.sigma is named then.
    """
    if not var.any():
        return GridResolutionError(
            f"{head}: market.sigma = {scn.market.sigma:g} is so small that the variance"
            " (sigma x)^2 underflows to 0 at every state node, which no grid cures"
        )
    if stiffness <= _STEP_BUDGET:
        return GridResolutionError(f"{head}; try grid.M >= {2 * M}")
    steps = math.ceil(N * stiffness / _STEP_BUDGET)
    if steps <= MAX_STEPS:
        return GridResolutionError(
            f"{head}: the generator is too stiff for dt = {dt:.3g}"
            f" (largest exit rate x dt = {stiffness:.2e}); try grid.N >= {steps}"
        )
    diffusion = float((-np.diag(_generator(xnodes, np.zeros_like(var), var))).max()) * dt
    dy = math.log(xnodes[1] / xnodes[0])
    key = (f"market.sigma = {scn.market.sigma:g} with the state spacing dy = {dy:.3g}"
           f" of grid.M = {M} and grid.xmax_mult = {xmax_mult!r}"
           if 2.0 * diffusion >= stiffness else "market.r with the fee")
    return GridResolutionError(
        f"{head}: {key} makes the generator too stiff for any time step"
        f" (largest exit rate x dt = {stiffness:.2e} at dt = {dt:.3g})"
    )


def chain_steps(scn: Scenario, N: int, M: int, xmax_mult: float = 8.0):
    """(xnodes, tnodes, step_keys, keys) of scn's chain: step_keys[n] is the fee step
    n freezes, the solver fee of ``surfaces.step_table``, and keys maps each distinct
    one to the memo key of its matrix, all the generator reads (nodes, dt, r, sigma, fee)."""
    xnodes = log_space_nodes(scn.contract.F0, xmax_mult, M)
    tnodes = time_nodes(scn, N)
    step_keys = tuple(step_table(scn, tnodes).solver_fee.tolist())
    coefficients = (xnodes.tobytes(), float(tnodes[1] - tnodes[0]), scn.market.r, scn.market.sigma)
    return xnodes, tnodes, step_keys, {c: (*coefficients, c) for c in dict.fromkeys(step_keys)}


def build_chain(scn: Scenario, N: int, M: int, xmax_mult: float = 8.0,
                matrices: dict | None = None) -> ChainGrid:
    """Build the state chain: log-uniform nodes, one transition matrix per step.

    ``matrices``, when given, is a memo the caller keeps across chains: it maps
    each key of ``chain_steps`` to the checked transition matrix and its checks,
    so chains that share a step's coefficients share its matrix and exponentiate
    it once. A step stiffer than ``_STEP_BUDGET`` (largest exit rate x dt) is
    refused before ``_expm`` runs, so the verdict does not hang on how its
    exponential rounds. The row-sum and minimum-probability check runs on the
    result of ``_expm`` (scipy's Pade step plus squarings that drop the entries
    below sqrt(tiny)); entries below the smallest normal double are then set to
    0 (see ``ChainGrid``).
    """
    r, sigma = scn.market.r, scn.market.sigma
    xnodes, tnodes, step_keys, keys = chain_steps(scn, N, M, xmax_mult)
    dt = float(tnodes[1] - tnodes[0])
    var = (sigma * xnodes) ** 2
    memo = {} if matrices is None else matrices
    for c, key in keys.items():
        if key not in memo:
            A = _generator(xnodes, (r - c) * xnodes, var) * dt
            stiffness = -float(A.diagonal().min())  # the largest exit rate x dt
            if stiffness > _STEP_BUDGET:  # too stiff, whatever expm rounds
                raise _invalid_matrix("invalid transition matrix", scn, xnodes, var, stiffness,
                                      dt, N, M, xmax_mult)
            P = _expm(A)
            del A  # held into the next step, it raised mc-verify's peak RSS by 3.5 MB
            rs_err = float(np.max(np.abs(P.sum(axis=1) - 1.0)))
            pmin = float(P.min())
            if rs_err > 1e-12 or pmin < -1e-12:
                raise _invalid_matrix(
                    f"invalid transition matrix (row-sum err {rs_err:.2e}, min prob {pmin:.2e})",
                    scn, xnodes, var, stiffness, dt, N, M, xmax_mult,
                )
            P[P < _TINY] = 0.0  # negatives and subnormals, see ChainGrid
            P.setflags(write=False)
            memo[key] = P, {"row_sum_error": rs_err, "min_probability": pmin}
    return ChainGrid(
        xnodes=xnodes,
        tnodes=tnodes,
        step_keys=step_keys,
        matrices={c: memo[key][0] for c, key in keys.items()},
        checks={c: memo[key][1] for c, key in keys.items()},
        discount=math.exp(-r * dt),
    )


def _step(grid: ChainGrid, n: int, values: np.ndarray, rho: float) -> np.ndarray:
    """Discounted one-step expectation, with the top node replaced by linear
    extrapolation in x from the two interior neighbours (far-field behaviour
    of the value is linear; a truncated chain row cannot carry the outward
    drift and would bias the top node low)."""
    cont = grid.discount * (grid.transition(n) @ values)
    cont[-1] = cont[-2] + (cont[-2] - cont[-3]) * rho
    return cont


def bermudan_value(grid: ChainGrid, scn: Scenario, reward_kind: str = "discontinuous") -> ValueSurface:
    """Value the Bermudan surrender right by backward induction on the chain.

    reward_kind "discontinuous" uses the surrender payout g(t) x as exercise
    value; "continuous" uses g(t) x v h(t, x) with h computed by a
    no-exercise backward pass on the same chain, which keeps the two
    representations identical node-for-node up to roundoff.
    """
    if reward_kind not in ("discontinuous", "continuous"):
        raise ConfigError("reward_kind must be 'discontinuous' or 'continuous'")
    x = grid.xnodes
    tn = grid.tnodes
    N = grid.nsteps
    G = scn.contract.G
    rho = (x[-1] - x[-2]) / (x[-2] - x[-3])
    terminal = np.maximum(G, x)

    # Far-field slopes of admissible strategies: holding and surrendering at the
    # best deterministic future date is worth exactly slope * x (guarantee
    # ignored), a lower bound at every node. The truncated chain cannot carry
    # the account's outward drift near the upper edge, so without this floor the
    # top band spuriously exercises whenever holding through a cheap-fee window
    # is optimal. Each step decays at the fee its transition matrix was built with.
    step_decay = np.exp(-np.asarray(grid.step_keys) * grid.dt)
    g_grid = scn.charge(tn)

    values = np.empty((N + 1, x.size))
    obstacle = np.empty_like(values)
    values[N] = terminal
    obstacle[N] = terminal
    V = terminal.copy()
    H = terminal.copy() if reward_kind == "continuous" else None
    slope_v = 1.0  # best-deterministic-surrender slope, = 1 at maturity
    slope_h = 1.0  # hold-to-maturity slope
    for n in range(N - 1, -1, -1):
        cont = _step(grid, n, V, rho)
        ob = g_grid[n] * x
        hold_v = step_decay[n] * slope_v
        np.maximum(cont, hold_v * x, out=cont)
        slope_v = max(float(g_grid[n]), hold_v)
        slope_h = step_decay[n] * slope_h
        if H is not None:
            H = _step(grid, n, H, rho)
            np.maximum(H, slope_h * x, out=H)
            ob = np.maximum(ob, H)
        V = np.maximum(ob, cont)
        values[n] = V
        obstacle[n] = ob
    return ValueSurface(
        tnodes=tn,
        xnodes=x,
        values=values,
        obstacle=obstacle,
        provenance="lattice",
        metadata={"solver_tol": 1e-12 * scn.contract.G},
    )


@dataclass(frozen=True)
class ConvergenceStudy:
    """Exercise-date refinement study of the Bermudan value at (0, F0)."""

    nsteps: tuple[int, ...]
    values: tuple[float, ...]
    deltas: tuple[float, ...]
    extrapolated: float
    deltas_decreasing: bool


def american_extrapolate(scn: Scenario, Nseq, M: int, xmax_mult: float = 8.0) -> ConvergenceStudy:
    """Refine the exercise dates, report |value(2N) - value(N)| per doubling and
    an Aitken extrapolation of the continuously-exercisable limit.

    Non-decreasing deltas emit a convergence warning but still return data.
    """
    Nseq = tuple(int(n) for n in Nseq)
    if len(Nseq) < 3:
        raise ConfigError("need at least three refinement levels")
    if any(b <= a for a, b in zip(Nseq, Nseq[1:])):
        raise ConfigError("refinement levels must be increasing")
    vals = []
    for N in Nseq:
        grid = build_chain(scn, N, M, xmax_mult)
        surf = bermudan_value(grid, scn)
        i0 = center_index(surf.xnodes, scn.contract.F0)
        vals.append(float(surf.values[0, i0]))
    deltas = tuple(abs(b - a) for a, b in zip(vals, vals[1:]))
    decreasing = all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))
    if not decreasing:
        warnings.warn("refinement deltas are not decreasing; extrapolation is unreliable",
                      RuntimeWarning, stacklevel=2)
    denom = (vals[-1] - vals[-2]) - (vals[-2] - vals[-3])
    if decreasing and abs(denom) > 1e-300:
        extrapolated = vals[-1] - (vals[-1] - vals[-2]) ** 2 / denom
    else:
        extrapolated = vals[-1]
    return ConvergenceStudy(
        nsteps=Nseq,
        values=tuple(vals),
        deltas=deltas,
        extrapolated=extrapolated,
        deltas_decreasing=decreasing,
    )
