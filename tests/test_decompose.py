"""Premium representations: closed-form limits, identities, residuals."""

from __future__ import annotations

import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

import vastop as vs
from vastop.decompose import BLOCK_NODES, _blocks, _StepQuadrature
from vastop.model import ChargeSpec, ConfigError, ContractParams, FeeSpec, MarketParams, Scenario
from vastop.region import Boundary


def _flat_boundary(T: float, N: int, level: float) -> Boundary:
    tn = np.linspace(0.0, T, N + 1)
    return Boundary(tnodes=tn, values=np.full(N, level))


def _empty_boundary(T: float, N: int) -> Boundary:
    tn = np.linspace(0.0, T, N + 1)
    return Boundary(tnodes=tn, values=np.full(N, np.inf))


class TestSurrenderPremium:
    def test_empty_region_gives_zero(self, kc_scn):
        b = _empty_boundary(15.0, 360)
        assert vs.surrender_premium(kc_scn, b, 0.0, 100.0) == 0.0

    def test_fully_surrendered_closed_form(self):
        # unit charge (kappa = 0), constant fee: integrating the full account
        # expectation gives x (1 - e^{-c (T - t)})
        T, c = 15.0, 0.02
        scn = Scenario(
            market=MarketParams(r=0.03, sigma=0.2),
            contract=ContractParams(G=100.0, T=T, F0=100.0),
            fee=FeeSpec("constant", rate=c),
            charge=ChargeSpec("exponential", T=T, kappa=0.0),
        )
        b = _flat_boundary(T, 360, 1e-12)
        for t, x in [(0.0, 100.0), (5.0, 40.0)]:
            expected = x * (1.0 - math.exp(-c * (T - t)))
            assert vs.surrender_premium(scn, b, t, x) == pytest.approx(expected, rel=1e-9)

    def test_benchmark_residual_against_solver(self, c1_scn, c1_lattice):
        e = vs.surrender_premium(c1_scn, c1_lattice["boundary"], 0.0, 100.0)
        h = vs.maturity_benefit_value(c1_scn, 0.0, 100.0)
        i0 = int(np.argmin(np.abs(c1_lattice["disc"].xnodes - 100.0)))
        v = float(c1_lattice["disc"].values[0, i0])
        assert abs(v - h - e) <= 5e-3 * 100.0


class TestContinuationPremium:
    def test_matched_rates_equals_guarantee_put(self, kc_scn):
        b = _empty_boundary(15.0, 360)
        for t, x in [(0.0, 100.0), (3.0, 55.0), (12.0, 250.0)]:
            f = vs.continuation_premium(kc_scn, b, t, x)
            assert f == pytest.approx(vs.guarantee_put_value(kc_scn, t, x), abs=1e-12)

    def test_maturity_value_is_put_payoff(self, kc_scn):
        b = _empty_boundary(15.0, 360)
        assert vs.continuation_premium(kc_scn, b, 15.0, 80.0) == pytest.approx(20.0, abs=1e-12)
        assert vs.continuation_premium(kc_scn, b, 15.0, 130.0) == 0.0

    def test_benchmark_residual_against_solver(self, c2_scn, c2_lattice):
        f = vs.continuation_premium(c2_scn, c2_lattice["boundary"], 0.0, 100.0)
        phi = vs.reward(c2_scn, 0.0, 100.0)
        i0 = int(np.argmin(np.abs(c2_lattice["disc"].xnodes - 100.0)))
        v = float(c2_lattice["disc"].values[0, i0])
        assert abs(v - phi - f) <= 5e-3 * 100.0


class TestIdentities:
    def test_premium_gap_equals_payout_gap(self, c1_scn, c1_lattice):
        # (e - f) == (payout - h) without any solver input
        b = c1_lattice["boundary"]
        for t in (0.0, 2.0, 7.0, 12.0):
            for x in (20.0, 100.0, 444.0):
                e = vs.surrender_premium(c1_scn, b, t, x)
                f = vs.continuation_premium(c1_scn, b, t, x)
                lhs = e - f
                rhs = vs.reward(c1_scn, t, x) - vs.maturity_benefit_value(c1_scn, t, x)
                assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_integrand_sign_where_surrender_favored(self, c1_scn):
        # where L(s) < 0 the surrender-premium integrand weight is nonnegative
        tn = np.linspace(0.0, 15.0, 361)
        g = np.asarray(c1_scn.charge(tn[:-1]))
        gt = np.asarray(c1_scn.charge.dt(tn[:-1]))
        c = np.asarray(c1_scn.fee(tn[:-1]))
        factor = c * g - gt
        L = gt - c * g
        assert np.all(factor[L < 0] >= 0.0)


class TestDecompositionResiduals:
    def test_benchmark_report(self, c1_scn, c1_lattice):
        rep = vs.decomposition_residuals(c1_lattice["disc"], c1_scn, c1_lattice["boundary"])
        assert rep.mean_abs_res_he <= 5e-3 * 100.0
        assert rep.mean_abs_res_phif <= 5e-3 * 100.0
        assert rep.min_e >= -5e-3 * 100.0
        assert rep.min_f >= -5e-3 * 100.0

    def test_maturity_slice_residuals_vanish(self, c1_scn, c1_lattice):
        rep = vs.decomposition_residuals(c1_lattice["disc"], c1_scn, c1_lattice["boundary"])
        assert float(np.max(np.abs(rep.res_he[-1]))) == 0.0
        assert float(np.max(np.abs(rep.res_phif[-1]))) == 0.0

    def test_matched_rates_residual(self, kc_scn, kc_wide):
        b = _empty_boundary(15.0, 360)
        rep = vs.decomposition_residuals(kc_wide["lattice"], kc_scn, b)
        assert rep.max_abs_res_he <= 5e-3 * 100.0

    def test_flagged_nodes_are_surface_indices(self, c1_scn):
        surf = vs.bermudan_value(vs.build_chain(c1_scn, 90, 151, 8.0), c1_scn, "discontinuous")
        boundary = vs.extract_boundary(vs.extract_regions(surf, c1_scn), surf)
        rep = vs.decomposition_residuals(surf, c1_scn, boundary)
        G, M = c1_scn.contract.G, surf.xnodes.size
        assert rep.flagged
        for n, i in rep.flagged:
            assert 2 <= i < M - 2 and abs(rep.res_he[n, i]) > 5e-3 * G
        assert len(rep.flagged) == int(np.sum(np.abs(rep.res_he[:, 2:M - 2]) > 5e-3 * G))

    def test_grid_mismatch_rejected(self, c1_scn, c1_lattice):
        with pytest.raises(ConfigError):
            vs.decomposition_residuals(c1_lattice["disc"], c1_scn, _empty_boundary(15.0, 180))

    @pytest.mark.parametrize("M", [3, 4])
    def test_too_few_state_nodes_rejected(self, c1_scn, M):
        # the residual statistics skip 2 state nodes at each edge
        surf = vs.bermudan_value(vs.build_chain(c1_scn, 12, M, 8.0), c1_scn)
        with pytest.raises(ConfigError, match="grid.M must be at least 5 for decompose"):
            vs.decomposition_residuals(surf, c1_scn, _empty_boundary(15.0, 12))

    def test_off_grid_time_rejected(self, c1_scn, c1_lattice):
        with pytest.raises(ConfigError):
            vs.surrender_premium(c1_scn, c1_lattice["boundary"], 0.017, 100.0)


class TestParallelSlices:
    @pytest.fixture(scope="class")
    def c1_small(self, c1_scn):
        chain = vs.build_chain(c1_scn, 120, 201, 8.0)
        surf = vs.bermudan_value(chain, c1_scn, "discontinuous")
        boundary = vs.extract_boundary(vs.extract_regions(surf, c1_scn), surf)
        assert np.isinf(boundary.values).any() and np.isfinite(boundary.values).any()
        return surf, boundary

    def test_report_bytes_identical_for_any_worker_count(self, c1_scn, c1_small, cpus):
        surf, boundary = c1_small
        reports = []
        for threads in (1, 2):
            cpus(threads)
            reports.append(vs.decomposition_residuals(surf, c1_scn, boundary))
        # more workers than cores, with frequent thread switches
        cpus(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reports.append(vs.decomposition_residuals(surf, c1_scn, boundary))
        finally:
            sys.setswitchinterval(interval)
        first = reports[0]
        for rep in reports[1:]:
            for key in ("tnodes", "xnodes", "h", "e", "f", "res_he", "res_phif"):
                assert getattr(rep, key).tobytes() == getattr(first, key).tobytes(), key
            for key in ("max_abs_res_he", "mean_abs_res_he", "max_abs_res_phif",
                        "mean_abs_res_phif", "min_e", "min_f", "flagged"):
                assert repr(getattr(rep, key)) == repr(getattr(first, key)), key

    def test_slices_equal_the_single_date_premiums(self, c1_scn, c1_small, cpus):
        cpus(2)
        surf, boundary = c1_small
        rep = vs.decomposition_residuals(surf, c1_scn, boundary)
        for n in (0, 1, 57, surf.tnodes.size - 2, surf.tnodes.size - 1):
            t = float(surf.tnodes[n])
            e = vs.surrender_premium(c1_scn, boundary, t, surf.xnodes)
            f = vs.continuation_premium(c1_scn, boundary, t, surf.xnodes)
            assert e.tobytes() == rep.e[n].tobytes()
            assert f.tobytes() == rep.f[n].tobytes()


def _full_width_log(quad) -> np.ndarray:
    """log(x / K) at every Simpson node with a finite boundary, (3N x M)."""
    finite = np.isfinite(quad.K)[:, None]
    log_xK = np.zeros((quad.K.size, quad.x.size))
    np.divide(quad.x[None, :], quad.K[:, None], out=log_xK, where=finite)
    np.log(log_xK, out=log_xK, where=finite)
    return log_xK


def _full_width_premiums(quad, log_xK: np.ndarray, n0: int):
    """The premiums at tnodes[n0] as one full-width (3N x M) evaluation: the
    formulation whose bits the column-blocked quadrature keeps."""
    scn, x = quad.scn, quad.x
    t = float(quad.tnodes[n0])
    put = np.asarray(vs.guarantee_put_value(scn, t, x), dtype=float)
    lo = 3 * n0
    if lo >= quad.s_nodes.size:
        return np.zeros_like(x), put
    w = quad.factor[lo:]
    K = quad.K[lo:]
    tau = quad.s_nodes[lo:] - t
    fee_int = quad.fee_int[lo:] - quad.fee_int[lo]
    e0 = x[None, :] * np.exp(-fee_int)[:, None]
    sig, r = scn.market.sigma, scn.market.r
    eK = np.zeros_like(e0)
    finite = np.isfinite(K)
    pos = tau > 0.0
    start = finite & ~pos
    if np.any(start):
        eK[start] = np.where(x[None, :] >= K[start, None], x[None, :], 0.0)
    rows = finite & pos
    edges = np.flatnonzero(np.diff(np.concatenate(([0], rows.view(np.int8), [0]))))
    for a, b in zip(edges[::2], edges[1::2]):
        sst = sig * np.sqrt(tau[a:b])
        d1 = eK[a:b]
        np.add(log_xK[lo + a:lo + b], (r * tau[a:b] - fee_int[a:b])[:, None], out=d1)
        d1 += 0.5 * (sst**2)[:, None]
        d1 /= sst[:, None]
        ndtr(d1, out=d1)
        d1 *= e0[a:b]
    e = w @ eK
    return e, put + e - w @ e0


def _assert_full_width_bits(scn, surf, boundary) -> None:
    """The report of decomposition_residuals equals, byte for byte, the one the
    full-width premiums give: e and f on every slice, the residuals and their
    statistics."""
    rep = vs.decomposition_residuals(surf, scn, boundary)
    quad = _StepQuadrature(scn, boundary, surf.xnodes)
    log_xK = _full_width_log(quad)
    x, G = surf.xnodes, scn.contract.G
    for n in range(surf.tnodes.size):
        e, f = _full_width_premiums(quad, log_xK, n)
        assert rep.e[n].tobytes() == e.tobytes(), n
        assert rep.f[n].tobytes() == f.tobytes(), n
    phi = np.stack([scn.charge(float(t)) * x for t in surf.tnodes])
    res_he = surf.values - rep.h - rep.e
    res_phif = surf.values - phi - rep.f
    assert rep.res_he.tobytes() == res_he.tobytes()
    assert rep.res_phif.tobytes() == res_phif.tobytes()
    sl = slice(2, x.size - 2)
    for key, res in (("he", res_he), ("phif", res_phif)):
        assert repr(getattr(rep, f"max_abs_res_{key}")) == repr(float(np.max(np.abs(res[:, sl]))))
        assert repr(getattr(rep, f"mean_abs_res_{key}")) == repr(float(np.mean(np.abs(res[:, sl]))))
    assert rep.flagged == tuple((int(n), int(i) + 2)
                                for n, i in zip(*np.nonzero(np.abs(res_he[:, sl]) > 5e-3 * G)))


class TestBlockedQuadrature:
    """The premiums are evaluated in column blocks of state nodes and keep the
    bits of one full-width evaluation."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 151, 401, 1000, *(
        k * BLOCK_NODES + d for k in (1, 2) for d in (-1, 0, 1, 3, 4))])
    def test_blocks_tile_the_states(self, m):
        blocks = _blocks(m)
        assert BLOCK_NODES % 32 == 0
        assert blocks[0][0] == 0 and blocks[-1][1] == m
        for (i0, i1), (j0, _) in zip(blocks, blocks[1:]):
            assert i1 == j0
        for i0, i1 in blocks:
            assert i0 % BLOCK_NODES == 0 and min(m, 4) <= i1 - i0 <= BLOCK_NODES + 3

    @pytest.mark.parametrize("M", [151, 2 * BLOCK_NODES + 1])  # a partial block; a merged remainder
    @pytest.mark.parametrize("solver", ["lattice", "pde"])
    @pytest.mark.parametrize("label", ["c1", "c2"])
    def test_small_grids_keep_the_full_width_bits(self, label, solver, M, cpus):
        cpus(2)
        scn = vs.benchmark_scenario(label)
        if solver == "lattice":
            surf = vs.bermudan_value(vs.build_chain(scn, 90, M, 8.0), scn, "discontinuous")
        else:
            surf = vs.solve_variational_inequality(scn, vs.build_pde_grid(scn, 90, M, 8.0))
        boundary = vs.extract_boundary(vs.extract_regions(surf, scn), surf)
        assert np.isinf(boundary.values).any() and np.isfinite(boundary.values).any()
        _assert_full_width_bits(scn, surf, boundary)

    def test_production_grid_keeps_the_full_width_bits(self, c1_scn, c1_lattice, cpus):
        cpus(2)
        _assert_full_width_bits(c1_scn, c1_lattice["disc"], c1_lattice["boundary"])

    def test_pool_holds_column_blocks_not_full_slices(self, c1_scn, c1_lattice, cpus):
        # full-width slices peak at 21.8 MB here: each of the 2 workers holds
        # two (3N x M) arrays, 3.5 MB each
        cpus(2)
        tracemalloc.start()
        try:
            vs.decomposition_residuals(c1_lattice["disc"], c1_scn, c1_lattice["boundary"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
