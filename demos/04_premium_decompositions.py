#!/usr/bin/env python3
"""Two exact decompositions of the contract value and their residuals.

value = maturity benefit + surrender premium
value = surrender payout + continuation premium

Both premiums are time integrals of fee/charge imbalances weighted by
truncated account expectations split at the optimal boundary. Their difference
is solver-free: premium gap == payout - maturity benefit, to quadrature
precision, which cross-checks the two integrals against each other.

Usage:
    python demos/04_premium_decompositions.py
"""

import numpy as np

import vastop as vs


def main() -> None:
    print("=" * 70)
    print("PREMIUM DECOMPOSITIONS")
    print("=" * 70)

    scn = vs.benchmark_scenario("c1")
    grid = vs.build_chain(scn, N=360, M=401, xmax_mult=8.0)
    surf = vs.bermudan_value(grid, scn)
    mask = vs.extract_regions(surf, scn)
    boundary = vs.extract_boundary(mask)

    print("\nPoint decompositions at inception (x = 100):")
    h = vs.maturity_benefit_value(scn, 0.0, 100.0)
    e, f = vs.premiums_at(scn, boundary, 0.0, 100.0)
    phi = vs.reward(scn, 0.0, 100.0)
    i0 = np.argmin(np.abs(surf.xnodes - 100.0))
    v = surf.values[0, i0]
    print(f"  solver value v            = {v:.4f}")
    print(f"  maturity benefit h        = {h:.4f}   surrender premium e = {e:.4f}")
    print(f"  surrender payout          = {phi:.4f}   continuation premium f = {f:.4f}")
    print(f"  residual v - h - e        = {v - h - e:+.5f}")
    print(f"  residual v - payout - f   = {v - phi - f:+.5f}")
    print(f"  solver-free identity gap  = {(e - f) - (phi - h):+.2e}")

    print("\nGrid-wide residual report (interior nodes):")
    rep = vs.decomposition_residuals(surf, scn, boundary)
    print(f"  mean |v - h - e|      = {rep.mean_abs_res_he:.4f}")
    print(f"  mean |v - payout - f| = {rep.mean_abs_res_phif:.4f}")
    print(f"  max  |v - h - e|      = {rep.max_abs_res_he:.4f}")
    print(f"  premium positivity: min e = {rep.min_e:.4f}, min f = {rep.min_f:.4f}")

    print("\nEmpty-region limit (matched rates): premium vanishes, f is the")
    print("guarantee put:")
    kc = vs.matched_exponential_scenario(0.01)
    from vastop.region import Boundary
    empty = Boundary(tnodes=np.linspace(0, 15, 361), values=np.full(360, np.inf))
    e0, f0 = vs.premiums_at(kc, empty, 0.0, 100.0)
    put = vs.guarantee_put_value(kc, 0.0, 100.0)
    print(f"  e = {e0:.6f}, f = {f0:.6f}, guarantee put = {put:.6f}")

    print("\nDone.")


if __name__ == "__main__":
    main()
