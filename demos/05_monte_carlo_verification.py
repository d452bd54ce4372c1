#!/usr/bin/env python3
"""Monte Carlo verification: unbiased oracles and a strategy lower bound.

Counter-based random streams make every estimate bit-reproducible. Paths come
in antithetic pairs (Z and -Z), and each standard error is taken over the pair
means. The boundary-following stopping rule gives a lower bound on the solver
value; the path estimators of the two premiums work on arbitrary region masks,
including disconnected ones.

Usage:
    python demos/05_monte_carlo_verification.py [--paths N]
"""

import argparse

import numpy as np

import vastop as vs


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--paths", type=int, default=200_000)
    args = parser.parse_args()

    print("=" * 70)
    print(f"MONTE CARLO VERIFICATION ({args.paths:,} paths)")
    print("=" * 70)

    scn = vs.benchmark_scenario("c2")
    grid = vs.build_chain(scn, N=360, M=401, xmax_mult=8.0)
    surf = vs.bermudan_value(grid, scn)
    mask = vs.extract_regions(surf, scn)
    boundary = vs.extract_boundary(mask)
    i0 = np.argmin(np.abs(surf.xnodes - 100.0))
    v0 = surf.values[0, i0]
    h0 = vs.maturity_benefit_value(scn, 0.0, 100.0)

    batch = vs.simulate_paths(scn, seed=2024, npaths=args.paths, nsteps=360)
    # all estimators share one pass over the paths
    est = vs.mc_verify_estimates(batch, scn, boundary, mask)

    mb = est["maturity_benefit"]
    print(f"\nmaturity benefit: mc {mb.estimate:.4f} +- {mb.std_error:.4f} "
          f"| closed form {h0:.4f} (z = {(mb.estimate - h0) / mb.std_error:+.2f})")

    sv = est["boundary_strategy_value"]
    print(f"boundary strategy: mc {sv.estimate:.4f} +- {sv.std_error:.4f} "
          f"| solver value {v0:.4f} (a lower bound up to date discretization)")

    e, f = est["surrender_premium"], est["continuation_premium"]
    e_q, f_q = vs.premiums_at(scn, boundary, 0.0, 100.0)
    print(f"surrender premium: mc {e.estimate:.4f} +- {e.std_error:.4f} "
          f"| quadrature {e_q:.4f}")
    print(f"continuation premium: mc {f.estimate:.4f} +- {f.std_error:.4f} "
          f"| quadrature {f_q:.4f}")

    again = vs.mc_maturity_benefit(
        vs.simulate_paths(scn, seed=2024, npaths=args.paths, nsteps=360), scn
    )
    print(f"\nreproducibility: same seed, separate pass, bit-identical estimate: "
          f"{again.estimate == mb.estimate}")

    print("\nDone.")


if __name__ == "__main__":
    main()
