#!/usr/bin/env python3
"""Designing fee and charge schedules that remove the surrender incentive.

The condition L(t) >= 0 at every date guarantees that waiting until maturity is
optimal. It links the two schedules: a constant fee needs an exponential
charge at least as fast, and a cubic charge caps how much fee can be levied at
each date (nothing at maturity).

Usage:
    python demos/03_fee_charge_design.py
"""

import numpy as np

import vastop as vs
from vastop.model import ChargeSpec, ContractParams, FeeSpec, MarketParams, Scenario


def main() -> None:
    print("=" * 70)
    print("FEE / CHARGE INTERPLAY")
    print("=" * 70)

    T = 15.0
    tgrid = np.linspace(0.0, T, 61)[:-1]

    print("\nConstant fee vs exponential charge rate:")
    for c, kappa in [(0.02, 0.02), (0.02, 0.025), (0.02, 0.01)]:
        scn = Scenario(
            market=MarketParams(r=0.03, sigma=0.2),
            contract=ContractParams(G=100.0, T=T, F0=100.0),
            fee=FeeSpec("constant", rate=c),
            charge=ChargeSpec("exponential", T=T, kappa=kappa),
        )
        report = vs.never_surrender_check(scn, tgrid)
        # the least exponential charge rate that removes the incentive is kappa = c
        print(f"  fee {c:.3f}, charge rate {kappa:.3f}: never-surrender holds = "
              f"{report.holds}  (threshold rate = {c:.3f})")

    print("\nCubic charge 1 - k (1 - t/T)^3 with k = 0.1: the fee cap over time")
    for t in (0.0, 5.0, 10.0, 14.0, 15.0):
        print(f"  t = {t:4.1f}:  max admissible fee = {vs.cubic_charge_fee_bound(T, 0.1, t):.5f}")
    print("  (vanishes at maturity: no constant positive fee can satisfy it)")

    fee = vs.fee_from_cubic_charge_bound(T, 0.1)
    scn = Scenario(
        market=MarketParams(r=0.03, sigma=0.2),
        contract=ContractParams(G=100.0, T=T, F0=100.0),
        fee=fee,
        charge=ChargeSpec("cubic", T=T, k=0.1),
    )
    report = vs.never_surrender_check(scn, tgrid)
    print(f"\nSaturating fee paired with its cubic charge: min L over the grid = "
          f"{report.min_L:.2e} (condition boundary)")

    h0 = vs.maturity_benefit_value(scn, 0.0, 100.0)
    # the pde route refines time steps cheaply, which matters here because a
    # smooth fee is frozen per step and the freezing bias is first order in dt
    pgrid = vs.build_pde_grid(scn, N=1440, M=401, xmax_mult=30.0)
    surf = vs.solve_variational_inequality(scn, pgrid)
    i0 = np.argmin(np.abs(surf.xnodes - 100.0))
    rel = abs(surf.values[0, i0] - h0) / h0
    print(f"Contract value {surf.values[0, i0]:.4f} vs maturity benefit {h0:.4f} "
          f"(rel gap {rel:.1e}): the surrender right is worthless by design")

    print("\nDone.")


if __name__ == "__main__":
    main()
