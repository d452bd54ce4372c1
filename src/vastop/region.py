"""Surrender/continuation region extraction and boundary post-processing.

Regions live on [0, T) x (0, inf): the maturity slice is excluded. A node is
in the surrender region when the solved value sits on the exercise obstacle up
to a tolerance far below economic scale but above solver noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConfigError, L_value, Scenario, UnsupportedScenarioError
from .surfaces import ValueSurface

__all__ = [
    "RegionMask",
    "Boundary",
    "RegionComparison",
    "extract_regions",
    "extract_boundary",
    "classify_sections",
    "compare_regions",
]


@dataclass(frozen=True)
class RegionMask:
    """Per-node surrender classification on the time slices before maturity."""

    tnodes: np.ndarray
    xnodes: np.ndarray
    in_surrender: np.ndarray  # shape (N, M) over tnodes[:-1]
    tol_abs: float
    tol_rel: float
    reward_kind: str
    mode: str

    def __post_init__(self) -> None:
        if self.in_surrender.shape != (self.tnodes.size - 1, self.xnodes.size):
            raise ConfigError("mask shape does not match its grid")
        self.in_surrender.setflags(write=False)


@dataclass(frozen=True)
class Boundary:
    """Smallest surrender state per time slice; +inf marks an empty section."""

    tnodes: np.ndarray
    values: np.ndarray  # shape (N,), np.inf where the section is empty
    violations: tuple[tuple[int, int], ...] = ()

    def is_empty(self, n: int) -> bool:
        return not np.isfinite(self.values[n])

    @property
    def nonempty_times(self) -> np.ndarray:
        return self.tnodes[:-1][np.isfinite(self.values)]


def extract_regions(surface: ValueSurface, scn: Scenario, mode: str = "value-gap") -> RegionMask:
    """Classify grid nodes as surrender (value on the obstacle) or continuation.

    mode "value-gap" is the raw rule: value - obstacle <= tol_abs + tol_rel *
    obstacle, with tol_abs = 1e-8 G and tol_rel = 1e-6 (both kept on the mask).
    mode "exercise" (time-only scenarios) additionally requires the surrender
    payout to strictly dominate the hold-to-maturity value, g(t) x >= h(t, x) +
    tol with h from the closed form. The raw rule cannot distinguish genuine
    exercises from nodes where the remaining optionality is merely worth less
    than the tolerance (near maturity at x >> G the guarantee put vanishes
    faster than any tolerance, and deep in the guarantee region the surrender
    premium can underflow float resolution), so use "exercise" for emptiness
    checks and for comparisons across reward conventions; on the surrender set
    proper the payout dominates h, so the gate never removes a resolved
    exercise node.
    """
    if mode not in ("value-gap", "exercise"):
        raise ConfigError("mode must be 'value-gap' or 'exercise'")
    tol_abs, tol_rel = 1e-8 * scn.contract.G, 1e-6
    v = surface.values[:-1]
    ob = surface.obstacle[:-1]
    tol = tol_abs + tol_rel * ob
    mask = (v - ob) <= tol
    if mode == "exercise":
        from .analytic import maturity_benefit_value

        x = surface.xnodes
        gate = np.empty_like(mask)
        for n, t in enumerate(surface.tnodes[:-1]):
            g = np.asarray(scn.charge(float(t), x))
            payout = np.broadcast_to(g, x.shape) * x
            h = np.asarray(maturity_benefit_value(scn, float(t), x))
            gate[n] = payout >= h + tol[n]
        mask &= gate
    return RegionMask(
        tnodes=surface.tnodes,
        xnodes=surface.xnodes,
        in_surrender=mask,
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        reward_kind=surface.reward_kind,
        mode=mode,
    )


def extract_boundary(mask: RegionMask, surface: ValueSurface | None = None,
                     interpolate: bool = False) -> Boundary:
    """Per slice, the smallest state node in the surrender region.

    Verifies the one-sided threshold structure (no continuation node above the
    boundary); sections violating it are reported, not fatal. With
    ``interpolate`` (needs the surface) the boundary is refined by the linear
    zero-crossing of the value-obstacle gap inside the bracketing cell; this is
    presentation-only and never feeds quadratures unless passed explicitly.
    """
    N, M = mask.in_surrender.shape
    values = np.full(N, np.inf)
    violations: list[tuple[int, int]] = []
    for n in range(N):
        row = mask.in_surrender[n]
        hits = np.flatnonzero(row)
        if hits.size == 0:
            continue
        i = int(hits[0])
        above = np.flatnonzero(~row[i:])
        violations.extend((n, i + int(j)) for j in above)
        b = float(mask.xnodes[i])
        if interpolate and surface is not None and i > 0:
            gap_prev = float(surface.values[n, i - 1] - surface.obstacle[n, i - 1])
            gap_here = float(surface.values[n, i] - surface.obstacle[n, i])
            denom = gap_prev - gap_here
            if denom > 0.0:
                w = min(1.0, max(0.0, gap_prev / denom))
                b = float(mask.xnodes[i - 1] + w * (mask.xnodes[i] - mask.xnodes[i - 1]))
        values[n] = b
    return Boundary(tnodes=mask.tnodes, values=values, violations=tuple(violations))


def classify_sections(scn: Scenario, tgrid) -> np.ndarray:
    """Predict per-slice emptiness from the sign of L(t).

    L(t) > 0 means the slice is empty; L(t) = 0 likewise (holding still beats
    surrendering thanks to the maturity guarantee); L(t) < 0 is labeled
    "nonempty-conjectured": proven when L < 0 throughout, conjectured slice by
    slice otherwise.
    """
    if not scn.is_time_only:
        raise UnsupportedScenarioError("section classification needs time-only fee and charge")
    tgrid = np.asarray(tgrid, dtype=float)
    out = np.empty(tgrid.shape, dtype=object)
    for j, t in enumerate(tgrid):
        L = float(L_value(scn, float(t), scn.contract.F0))
        out[j] = "empty" if L >= 0.0 else "nonempty-conjectured"
    return out


@dataclass(frozen=True)
class RegionComparison:
    """Node-wise comparison of two masks on the same grid."""

    equal: bool
    sym_diff_nodes: tuple[tuple[int, int], ...]
    only_in_first: int
    only_in_second: int


def compare_regions(mask_a: RegionMask, mask_b: RegionMask) -> RegionComparison:
    """Node-wise equality report between two region masks."""
    if mask_a.in_surrender.shape != mask_b.in_surrender.shape or not (
        np.array_equal(mask_a.tnodes, mask_b.tnodes)
        and np.array_equal(mask_a.xnodes, mask_b.xnodes)
    ):
        raise ConfigError("masks live on different grids")
    diff = mask_a.in_surrender ^ mask_b.in_surrender
    nodes = tuple((int(n), int(i)) for n, i in zip(*np.nonzero(diff)))
    only_a = int(np.count_nonzero(mask_a.in_surrender & ~mask_b.in_surrender))
    only_b = int(np.count_nonzero(mask_b.in_surrender & ~mask_a.in_surrender))
    return RegionComparison(
        equal=not nodes,
        sym_diff_nodes=nodes,
        only_in_first=only_a,
        only_in_second=only_b,
    )
