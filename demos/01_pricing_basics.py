#!/usr/bin/env python3
"""Pricing basics: closed forms, the lattice route, and the PDE route.

A guaranteed-maturity contract tracks a lognormal account net of a continuous
fee; the holder may surrender early for a charged fraction of the account.
This demo prices one contract three ways and shows the routes agree:

1. closed form, valid when surrendering is never optimal;
2. backward induction on a Markov-chain approximation of the account;
3. projected finite differences on the variational inequality.

Usage:
    python demos/01_pricing_basics.py
"""

import numpy as np

import vastop as vs


def main() -> None:
    print("=" * 70)
    print("PRICING BASICS")
    print("=" * 70)

    # Constant 1% fee matched by an exponential charge at the same rate:
    # surrendering never pays, so the closed form is exact.
    scn = vs.matched_exponential_scenario(0.01)
    F0 = scn.contract.F0

    h0 = vs.maturity_benefit_value(scn, 0.0, F0)
    print(f"\nMatched-rate contract (fee = charge rate = 1%):")
    print(f"  closed-form value of the maturity benefit: {h0:.4f}")

    grid = vs.build_chain(scn, N=360, M=401, xmax_mult=30.0)
    lattice = vs.bermudan_value(grid, scn)
    i0 = np.argmin(np.abs(lattice.xnodes - F0))
    v_lat = lattice.values[0, i0]
    print(f"  lattice value:                             {v_lat:.4f}"
          f"   (rel gap {abs(v_lat - h0) / h0:.1e})")

    pgrid = vs.build_pde_grid(scn, N=360, M=401, xmax_mult=30.0)
    pde = vs.solve_variational_inequality(scn, pgrid)
    v_pde = pde.values[0, i0]
    print(f"  pde value:                                 {v_pde:.4f}"
          f"   (rel gap {abs(v_pde - h0) / h0:.1e})")

    # A live surrender incentive: the charge relaxes slower than the fee
    # accrues, so the contract is worth more than the maturity benefit alone.
    live = vs.low_charge_scenario()
    study = vs.american_extrapolate(live, [180, 360, 720], M=401, xmax_mult=30.0)
    h_live = vs.maturity_benefit_value(live, 0.0, F0)
    print(f"\nLive surrender incentive (charge 0.55%, fee 2%):")
    print(f"  maturity benefit alone: {h_live:.4f}")
    print(f"  contract value:         {study.extrapolated:.4f}")
    print(f"  surrender right adds:   {study.extrapolated - h_live:.4f}")
    print(f"  refinement deltas {study.deltas} (decreasing: {study.deltas_decreasing})")

    print("\nDone.")


if __name__ == "__main__":
    main()
