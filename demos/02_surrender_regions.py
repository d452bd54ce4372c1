#!/usr/bin/env python3
"""Surrender regions, boundaries, and a disconnected-region benchmark.

The sign of L(t) = g'(t) - c(t) g(t) governs per-date surrender incentives:
positive means the charge relaxes faster than the fee accrues (holding wins),
negative means surrendering can pay. Two-tier fee schedules flip that sign
mid-contract, which empties the surrender region on a time window and makes
the optimal boundary jump - something plain American options never do.

Usage:
    python demos/02_surrender_regions.py
"""

import numpy as np

import vastop as vs


def region_summary(label: str, scn) -> None:
    grid = vs.build_chain(scn, N=360, M=401, xmax_mult=8.0)
    surf = vs.bermudan_value(grid, scn)
    mask = vs.extract_regions(surf, scn)
    boundary = vs.extract_boundary(mask)
    tn = mask.tnodes[:-1]
    empty = np.array([not row.any() for row in mask.in_surrender])

    print(f"\n{label}:")
    pred = vs.classify_sections(scn, tn)
    agree = np.mean((pred == "empty") == empty)
    print(f"  sign-of-L prediction matches solved emptiness on {agree:.1%} of slices")

    runs = []
    start = None
    for j, e in enumerate(empty):
        if e and start is None:
            start = tn[j]
        if not e and start is not None:
            runs.append((start, tn[j]))
            start = None
    if start is not None:
        runs.append((start, 15.0))
    print(f"  empty time windows: {[(round(a, 2), round(b, 2)) for a, b in runs]}")

    finite = np.isfinite(boundary.values)
    if finite.any():
        print(f"  boundary range on nonempty slices: "
              f"[{boundary.values[finite].min():.1f}, {boundary.values[finite].max():.1f}]")
        print(f"  last nonempty slice: t = {boundary.nonempty_times.max():.2f}")


def main() -> None:
    print("=" * 70)
    print("SURRENDER REGIONS AND THE OPTIMAL BOUNDARY")
    print("=" * 70)

    # fee drops below the charge rate on (5, 10]: the region is disconnected
    region_summary("Benchmark c1 (fee holiday mid-contract)", vs.benchmark_scenario("c1"))

    # fee drops below the charge rate on (10, 15]: the region dies before
    # maturity and the boundary never converges to the guarantee level
    region_summary("Benchmark c2 (fee drop near maturity)", vs.benchmark_scenario("c2"))

    # charge always relaxing slower than the fee: classic threshold region
    region_summary("Low charge (always-live incentive)", vs.low_charge_scenario())

    print("\nDone.")


if __name__ == "__main__":
    main()
