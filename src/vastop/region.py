"""Surrender/continuation region extraction and boundary post-processing.

Regions live on [0, T) x (0, inf): the maturity slice is excluded. A node is
in the surrender region when the solved value sits on the exercise obstacle up
to a tolerance far below economic scale but above solver noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConfigError, L_value, Scenario
from .surfaces import ValueSurface

__all__ = [
    "RegionMask",
    "Boundary",
    "extract_regions",
    "extract_boundary",
    "classify_sections",
]


@dataclass(frozen=True)
class RegionMask:
    """Per-node surrender classification on the time slices before maturity."""

    tnodes: np.ndarray
    xnodes: np.ndarray
    in_surrender: np.ndarray  # shape (N, M) over tnodes[:-1]
    tol_abs: float
    tol_rel: float
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

    @property
    def nonempty_times(self) -> np.ndarray:
        return self.tnodes[:-1][np.isfinite(self.values)]


def extract_regions(surface: ValueSurface, scn: Scenario, mode: str = "value-gap") -> RegionMask:
    """Classify grid nodes as surrender (value on the obstacle) or continuation.

    mode "value-gap" is the raw rule: value - obstacle <= tol_abs + tol_rel *
    obstacle, with tol_abs = 1e-8 G and tol_rel = 1e-6 (both kept on the mask).
    mode "exercise" additionally requires the surrender payout to strictly
    dominate the hold-to-maturity value, g(t) x >= h(t, x) + tol with h from
    the closed form. The raw rule cannot distinguish genuine
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
        g = scn.charge(surface.tnodes[:-1])
        gate = np.empty_like(mask)
        for n, t in enumerate(surface.tnodes[:-1]):
            h = np.asarray(maturity_benefit_value(scn, float(t), x))
            gate[n] = g[n] * x >= h + tol[n]
        mask &= gate
    return RegionMask(
        tnodes=surface.tnodes,
        xnodes=surface.xnodes,
        in_surrender=mask,
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        mode=mode,
    )


def extract_boundary(mask: RegionMask, surface: ValueSurface | None = None) -> Boundary:
    """Per slice, the smallest state node in the surrender region: b(t) = inf S_t.

    Verifies the one-sided threshold structure (no continuation node above the
    boundary); sections violating it are reported, not fatal. surface is not
    read; it stays in the signature because the benchmark workloads
    (perfbench/workloads.py) pass it by position.
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
        values[n] = mask.xnodes[i]
    return Boundary(tnodes=mask.tnodes, values=values, violations=tuple(violations))


def classify_sections(scn: Scenario, tgrid) -> np.ndarray:
    """Predict per-slice emptiness from the sign of L(t), one label per date of tgrid.

    L(t) > 0 means the slice is empty; L(t) = 0 likewise (holding still beats
    surrendering thanks to the maturity guarantee); L(t) < 0 is labeled
    "nonempty-conjectured": proven when L < 0 throughout, conjectured slice by
    slice otherwise.
    """
    return np.where(L_value(scn, tgrid) >= 0.0, "empty", "nonempty-conjectured").astype(object)
