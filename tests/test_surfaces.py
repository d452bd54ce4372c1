"""Value surfaces, what every solver's result is checked for on construction, and
the step table that owns which side of a date each layer takes."""

from __future__ import annotations

import sys

import numpy as np
import pytest

import vastop as vs
from vastop import lattice, pde
from vastop.surfaces import ValueSurface, step_table, time_nodes


def _grid():
    tn = np.linspace(0.0, 1.0, 3)
    xn = np.array([50.0, 100.0, 200.0])
    values = np.maximum(100.0, xn) * np.ones((tn.size, 1))
    return tn, xn, values, 0.5 * values


class TestValueSurface:
    @pytest.mark.parametrize("field", ["values", "obstacle"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_surface_rejected(self, field, bad):
        tn, xn, values, obstacle = _grid()
        {"values": values, "obstacle": obstacle}[field][1, 2] = bad
        with pytest.raises(FloatingPointError, match="non-finite pde surface"):
            ValueSurface(tn, xn, values, obstacle, "pde", "discontinuous")

    def test_finite_surface_is_kept_read_only(self):
        surf = ValueSurface(*_grid(), "lattice", "discontinuous")
        assert not surf.values.flags.writeable and not surf.obstacle.flags.writeable


C1_HIGH, C1_LOW = vs.BENCHMARK_FEES["c1"]["rates"][:2]


class TestStepTable:
    """Which side of a date each layer takes: c1 at T=15 and N=6 puts the
    breakpoints 5 and 10 on the starts of steps 2 and 4."""

    def test_sides_at_the_breakpoints(self):
        scn = vs.benchmark_scenario("c1")
        table = step_table(scn, time_nodes(scn, 6))
        # the step starting at t=5 freezes c(5) for the solvers, the rate of the
        # interval 5 ends, while its left quadrature node reads c(5+)
        assert table.solver_fee[2] == C1_HIGH and table.node_fee[2, 0] == C1_LOW
        # the step ending at t=5 reads c(5) at its right node
        assert table.node_fee[1, 2] == C1_HIGH
        assert table.solver_fee.tolist() == [C1_HIGH] * 3 + [C1_LOW] * 2 + [C1_HIGH]
        assert table.node_fee.tolist() == [[C1_HIGH] * 3] * 2 + [[C1_LOW] * 3] * 2 + \
            [[C1_HIGH] * 3] * 2
        assert table.node_date.tolist() == [[n] * 3 for n in range(6)]

    def test_solver_fee_gives_the_bits_of_L(self):
        # the solved emptiness of each slice matches the sign of L slice by slice
        # because L is g' - c g with the solvers' own fee, to the bit
        scn = vs.benchmark_scenario("c1")
        tn = time_nodes(scn, 6)
        L = scn.charge.dt(tn[:-1]) - step_table(scn, tn).solver_fee * scn.charge(tn[:-1])
        assert vs.L_value(scn, tn[:-1]).tobytes() == L.tobytes()


def _owners() -> list:
    """The package modules that read the step table."""
    return [m for name, m in sorted(sys.modules.items())
            if name.startswith("vastop.") and getattr(m, "step_table", None) is step_table
            and name != "vastop.surfaces"]


def _layer_values(scn) -> dict:
    """What each layer computes from the table on c1 at N=12, M=41: the chain's
    step keys, the PDE value at (0, F0), and the premiums at (0, F0) by
    quadrature and by Monte Carlo against one fixed date-dependent threshold."""
    N, M = 12, 41
    grid = pde.build_pde_grid(scn, N, M)
    tn, x = grid.tnodes, grid.xnodes
    b = np.linspace(110.0, 170.0, N)
    b[[1, 6]] = np.inf  # two empty sections
    mask = vs.RegionMask(tn, x, x[None, :] >= b[:, None], 0.0, 0.0, "discontinuous", "exercise")
    batch = vs.simulate_paths(scn, seed=7, npaths=4000, nsteps=N)
    mc_e = vs.mc_premium_integrals(batch, scn, mask)
    return {
        "chain": lattice.chain_steps(scn, N, M)[2],
        "pde": pde.solve_variational_inequality(scn, grid).values[0, M // 2],
        "premiums": vs.premiums_at(scn, vs.Boundary(tn, b), 0.0, 100.0),
        "mc": (mc_e.e_estimate, mc_e.f_estimate),
    }


# one column of the table substituted, and the layers that must then move: a change
# of the side a layer takes flips one column and moves that column's readers only
SUBSTITUTIONS = {
    "solver fee takes c(t_n+)": (lambda t: t._replace(solver_fee=t.node_fee[:, 0].copy()),
                                 {"chain", "pde"}),
    "left node takes c(t_n)": (lambda t: t._replace(node_fee=np.column_stack(
        [t.solver_fee, t.node_fee[:, 1:]])), {"premiums", "mc"}),
    "nodes read the next date": (lambda t: t._replace(node_date=np.minimum(
        t.node_date + 1, t.node_date.shape[0] - 1)), {"premiums", "mc"}),
}


@pytest.mark.parametrize("column", sorted(SUBSTITUTIONS))
def test_one_column_moves_its_readers_only(monkeypatch, column):
    scn = vs.benchmark_scenario("c1")
    owners = _owners()
    assert sorted(m.__name__ for m in owners) == ["vastop.decompose", "vastop.lattice",
                                                  "vastop.mc", "vastop.pde"]
    before = _layer_values(scn)
    substitute, movers = SUBSTITUTIONS[column]
    for module in owners:
        monkeypatch.setattr(module, "step_table", lambda s, tn: substitute(step_table(s, tn)))
    after = _layer_values(scn)
    moved = {layer for layer in before if repr(after[layer]) != repr(before[layer])}
    assert moved == movers
