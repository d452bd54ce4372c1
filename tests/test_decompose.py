"""Premium representations: closed-form limits, identities, residuals."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

import vastop as vs
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

    def test_report_bytes_identical_for_any_worker_count(self, c1_scn, c1_small, monkeypatch):
        surf, boundary = c1_small
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("VASTOP_THREADS", threads)
            reports.append(vs.decomposition_residuals(surf, c1_scn, boundary))
        # more workers than cores, with frequent thread switches
        monkeypatch.setenv("VASTOP_THREADS", "4")
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

    def test_slices_equal_the_single_date_premiums(self, c1_scn, c1_small, monkeypatch):
        monkeypatch.setenv("VASTOP_THREADS", "2")
        surf, boundary = c1_small
        rep = vs.decomposition_residuals(surf, c1_scn, boundary)
        for n in (0, 1, 57, surf.tnodes.size - 2, surf.tnodes.size - 1):
            t = float(surf.tnodes[n])
            e = vs.surrender_premium(c1_scn, boundary, t, surf.xnodes)
            f = vs.continuation_premium(c1_scn, boundary, t, surf.xnodes)
            assert e.tobytes() == rep.e[n].tobytes()
            assert f.tobytes() == rep.f[n].tobytes()

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_invalid_thread_count_rejected(self, c1_scn, c1_small, monkeypatch, value):
        monkeypatch.setenv("VASTOP_THREADS", value)
        surf, boundary = c1_small
        with pytest.raises(ConfigError, match="VASTOP_THREADS"):
            vs.decomposition_residuals(surf, c1_scn, boundary)
