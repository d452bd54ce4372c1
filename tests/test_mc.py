"""Monte Carlo engine: reproducibility, unbiasedness, strategy values."""

from __future__ import annotations

import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import vastop as vs
from vastop import mc
from vastop.mc import BLOCK_ROWS, CHUNK_PATHS, PathBatch
from vastop.model import ConfigError
from vastop.region import Boundary, RegionMask


def _boundary(T: float, N: int, values) -> Boundary:
    return Boundary(tnodes=np.linspace(0.0, T, N + 1), values=np.asarray(values, dtype=float))


def _mask(scn, N, fill):
    tn = np.linspace(0.0, 15.0, N + 1)
    x = vs.log_space_nodes(scn.contract.F0, 8.0, 41)
    in_s = np.full((N, x.size), fill, dtype=bool)
    return RegionMask(
        tnodes=tn, xnodes=x, in_surrender=in_s,
        tol_abs=1e-6, tol_rel=1e-6, reward_kind="discontinuous", mode="value-gap",
    )


def _shaped_rows(N: int) -> np.ndarray:
    """Mask rows on 41 nodes whose slices cycle through band, holed, threshold,
    empty and full shapes."""
    rows = np.zeros((N, 41), dtype=bool)
    for n in range(N):
        shape = n % 5
        if shape == 0:
            rows[n, 18:25] = True
        elif shape == 1:
            rows[n, 20:] = True
            rows[n, 28:30] = False
        elif shape == 2:
            rows[n, 22:] = True
        elif shape == 4:
            rows[n] = True
    return rows


class TestSimulatePaths:
    def test_bit_reproducible(self, c1_scn):
        a = vs.simulate_paths(c1_scn, seed=5, npaths=3000, nsteps=12).materialize()
        b = vs.simulate_paths(c1_scn, seed=5, npaths=3000, nsteps=12).materialize()
        assert np.array_equal(a, b)

    def test_chunking_invisible_in_path_prefix(self, c1_scn):
        small = vs.simulate_paths(c1_scn, seed=5, npaths=100, nsteps=12).materialize()
        big = vs.simulate_paths(c1_scn, seed=5, npaths=3000, nsteps=12).materialize()
        assert np.array_equal(small, big[:100])

    def test_paths_positive(self, c1_scn):
        F = vs.simulate_paths(c1_scn, seed=1, npaths=5000, nsteps=30).materialize()
        assert float(F.min()) > 0.0

    def test_martingale_without_fee(self):
        scn = vs.matched_exponential_scenario(0.0)
        batch = vs.simulate_paths(scn, seed=2, npaths=10**5, nsteps=4)
        pay = math.exp(-0.03 * 15.0) * batch.materialize()[:, -1]
        se = pay.std() / math.sqrt(pay.size)
        assert abs(pay.mean() - 100.0) <= 3.0 * se

    def test_benchmark_fee_discounts_terminal_mean(self, c1_scn):
        batch = vs.simulate_paths(c1_scn, seed=3, npaths=10**5, nsteps=360)
        pay = math.exp(-0.03 * 15.0) * np.concatenate([F[:, -1] for _, F in batch.iter_chunks()])
        target = 100.0 * math.exp(-c1_scn.fee.integral(0.0, 15.0))
        se = pay.std() / math.sqrt(pay.size)
        assert abs(pay.mean() - target) <= 3.0 * se

class TestMaturityBenefit:
    def test_matches_closed_form(self, c1_scn):
        batch = vs.simulate_paths(c1_scn, seed=21, npaths=10**5, nsteps=60)
        est = vs.mc_maturity_benefit(batch, c1_scn)
        h0 = vs.maturity_benefit_value(c1_scn, 0.0, 100.0)
        assert abs(est.estimate - h0) <= 3.0 * est.std_error

    def test_worthless_guarantee(self):
        kc = vs.matched_exponential_scenario(0.01)
        scn = dataclasses.replace(kc, contract=dataclasses.replace(kc.contract, G=1e-6))
        batch = vs.simulate_paths(scn, seed=22, npaths=10**5, nsteps=12)
        est = vs.mc_maturity_benefit(batch, scn)
        target = 100.0 * math.exp(-0.01 * 15.0)
        assert abs(est.estimate - target) <= 3.0 * est.std_error

    def test_small_volatility_limit(self):
        kc = vs.matched_exponential_scenario(0.02)
        scn = dataclasses.replace(kc, market=dataclasses.replace(kc.market, sigma=0.01))
        batch = vs.simulate_paths(scn, seed=23, npaths=10**5, nsteps=12)
        est = vs.mc_maturity_benefit(batch, scn)
        target = max(100.0 * math.exp(-0.03 * 15.0), 100.0 * math.exp(-0.02 * 15.0))
        assert abs(est.estimate - target) <= 3.0 * est.std_error + 1e-3

    def test_standard_error_scales_like_inverse_sqrt(self, c1_scn):
        ses = []
        for npaths in (10**4, 10**5, 10**6):
            batch = vs.simulate_paths(c1_scn, seed=30, npaths=npaths, nsteps=1)
            ses.append(vs.mc_maturity_benefit(batch, c1_scn).std_error)
        for a, b in zip(ses, ses[1:]):
            ratio = a / b
            assert abs(ratio - math.sqrt(10.0)) <= 0.2 * math.sqrt(10.0)


class TestBoundaryStrategy:
    def test_never_exercising_equals_maturity_benefit_exactly(self, c1_scn):
        batch = vs.simulate_paths(c1_scn, seed=40, npaths=20000, nsteps=60)
        empty = _boundary(15.0, 60, np.full(60, np.inf))
        sv = vs.mc_boundary_strategy_value(batch, c1_scn, empty)
        mb = vs.mc_maturity_benefit(batch, c1_scn)
        assert sv.estimate == mb.estimate and sv.std_error == mb.std_error

    def test_immediate_exercise_is_deterministic(self, c1_scn):
        batch = vs.simulate_paths(c1_scn, seed=41, npaths=1000, nsteps=12)
        tiny = _boundary(15.0, 12, np.full(12, 1e-12))
        sv = vs.mc_boundary_strategy_value(batch, c1_scn, tiny)
        g0 = float(c1_scn.charge(0.0))
        assert sv.estimate == pytest.approx(100.0 * g0, abs=1e-12)
        assert sv.std_error == 0.0

    def test_grid_mismatch_rejected(self, c1_scn):
        batch = vs.simulate_paths(c1_scn, seed=42, npaths=100, nsteps=12)
        with pytest.raises(ConfigError):
            vs.mc_boundary_strategy_value(batch, c1_scn, _boundary(15.0, 24, np.full(24, np.inf)))

    def test_any_admissible_boundary_is_a_lower_bound(self, c1_scn, c1_lattice):
        # suboptimal rules never beat the solver value (up to noise)
        i0 = int(np.argmin(np.abs(c1_lattice["disc"].xnodes - 100.0)))
        v0 = float(c1_lattice["disc"].values[0, i0])
        batch = vs.simulate_paths(c1_scn, seed=60, npaths=10**5, nsteps=360)
        base = c1_lattice["boundary"].values
        for shift in (0.8, 1.0, 1.3):
            bumped = _boundary(15.0, 360, base * shift)
            sv = vs.mc_boundary_strategy_value(batch, c1_scn, bumped)
            assert sv.estimate <= v0 + 3.0 * sv.std_error


class TestPremiumIntegrals:
    def test_empty_mask(self, c1_scn):
        batch = vs.simulate_paths(c1_scn, seed=50, npaths=50000, nsteps=60)
        prem = vs.mc_premium_integrals(batch, c1_scn, _mask(c1_scn, 60, False))
        assert prem.e_estimate == 0.0 and prem.e_std_error == 0.0
        # f = put + full complementary integral; compare with closed forms
        put = vs.guarantee_put_value(c1_scn, 0.0, 100.0)
        b_empty = Boundary(tnodes=batch.tnodes, values=np.full(60, np.inf))
        f_quad = vs.continuation_premium(c1_scn, b_empty, 0.0, 100.0)
        assert abs(prem.f_estimate - f_quad) <= 3.0 * prem.f_std_error + 0.01 * abs(f_quad)
        # closed form of put + full complementary integral
        g0 = float(c1_scn.charge(0.0))
        expected = put - 100.0 * (g0 - math.exp(-c1_scn.fee.integral(0.0, 15.0)))
        assert f_quad == pytest.approx(expected, rel=1e-9)

    def test_full_mask_identity(self, c1_scn):
        batch = vs.simulate_paths(c1_scn, seed=51, npaths=50000, nsteps=60)
        prem = vs.mc_premium_integrals(batch, c1_scn, _mask(c1_scn, 60, True))
        gap = prem.e_estimate - prem.f_estimate
        target = vs.reward(c1_scn, 0.0, 100.0) - vs.maturity_benefit_value(c1_scn, 0.0, 100.0)
        se = 3.0 * math.hypot(prem.e_std_error, prem.f_std_error)
        assert abs(gap - target) <= se + 1e-6

    def test_threshold_mask_matches_quadrature(self, c2_scn, c2_lattice):
        batch = vs.simulate_paths(c2_scn, seed=52, npaths=200000, nsteps=360)
        prem = vs.mc_premium_integrals(batch, c2_scn, c2_lattice["mask"])
        b = c2_lattice["boundary"]
        e_q = vs.surrender_premium(c2_scn, b, 0.0, 100.0)
        f_q = vs.continuation_premium(c2_scn, b, 0.0, 100.0)
        assert abs(prem.e_estimate - e_q) <= 3.0 * prem.e_std_error + 0.01 * abs(e_q)
        assert abs(prem.f_estimate - f_q) <= 3.0 * prem.f_std_error + 0.01 * abs(f_q)


    def test_band_and_holed_slices_match_a_per_path_reference(self, c1_scn):
        N = 12
        rows = _shaped_rows(N)
        mask = _mask(c1_scn, N, rows)
        batch = vs.simulate_paths(c1_scn, seed=53, npaths=CHUNK_PATHS + 500, nsteps=N)
        prem = vs.mc_premium_integrals(batch, c1_scn, mask)

        # the documented rule: on slice n, F >= the first surrender node when the
        # slice is threshold-shaped, else the flag of the nearest node in log x
        F = batch.materialize()
        x, tn = mask.xnodes, batch.tnodes
        dy = math.log(x[1] / x[0])

        def inside(n, v):
            hits = np.flatnonzero(rows[n])
            if hits.size and rows[n, hits[0]:].all():
                return v >= x[hits[0]]
            if not hits.size:
                return np.zeros(v.shape, dtype=bool)
            i = np.clip(np.rint((np.log(v) - math.log(x[0])) / dy).astype(int), 0, x.size - 1)
            return rows[n][i]

        r, G, dt = c1_scn.market.r, c1_scn.contract.G, float(tn[1] - tn[0])

        def rate(t, c):  # integrand weight (c g - g') e^{-r t} at date t with fee rate c
            return (c * float(c1_scn.charge(t)) - float(c1_scn.charge.dt(t))) * math.exp(-r * t)

        e_path = np.zeros(F.shape[0])
        full_path = np.zeros(F.shape[0])
        for n in range(N):
            t0, t1 = float(tn[n]), float(tn[n + 1])
            w0 = 0.5 * dt * rate(t0, c1_scn.fee.rate_right(t0))
            w1 = 0.5 * dt * rate(t1, float(c1_scn.fee(t1)))
            # both endpoints are classified against the region of the left node
            e_path += w0 * F[:, n] * inside(n, F[:, n]) + w1 * F[:, n + 1] * inside(n, F[:, n + 1])
            full_path += w0 * F[:, n] + w1 * F[:, n + 1]
        f_path = math.exp(-r * 15.0) * np.maximum(G - F[:, -1], 0.0) + e_path - full_path
        assert 0.0 < prem.e_estimate
        assert prem.e_estimate == pytest.approx(e_path.mean(), rel=1e-12)
        assert prem.f_estimate == pytest.approx(f_path.mean(), rel=1e-12)
        assert prem.e_std_error == pytest.approx(e_path.std() / math.sqrt(e_path.size), rel=1e-8)
        assert prem.f_std_error == pytest.approx(f_path.std() / math.sqrt(f_path.size), rel=1e-8)


def _estimates(batch, scn, bundle):
    return (
        vs.mc_maturity_benefit(batch, scn),
        vs.mc_boundary_strategy_value(batch, scn, bundle["boundary"]),
        vs.mc_premium_integrals(batch, scn, bundle["mask"]),
    )


class TestChunkPool:
    def test_chunks_match_the_closed_formula(self, c1_scn):
        seed, nsteps = 5, 12
        batch = vs.simulate_paths(c1_scn, seed=seed, npaths=CHUNK_PATHS + 300, nsteps=nsteps)
        tn = np.linspace(0.0, 15.0, nsteps + 1)
        dt = float(tn[1] - tn[0])
        r, sig, F0 = 0.03, c1_scn.market.sigma, c1_scn.contract.F0
        fee_ints = np.array([c1_scn.fee.integral(float(a), float(b)) for a, b in zip(tn[:-1], tn[1:])])
        drifts = r * dt - fee_ints - 0.5 * sig * sig * dt
        vol = sig * math.sqrt(dt)
        starts = []
        for start, F in batch.iter_chunks():
            starts.append(start)
            rng = np.random.Generator(np.random.Philox(key=seed).jumped(start // CHUNK_PATHS))
            Z = rng.standard_normal((F.shape[0], nsteps))
            logF = math.log(F0) + np.cumsum(drifts[None, :] + vol * Z, axis=1)
            assert np.all(F[:, 0] == F0)
            assert np.array_equal(F[:, 1:], np.exp(logF))
        assert starts == [0, CHUNK_PATHS]

    def test_estimates_bit_identical_for_any_worker_count(self, c1_scn, c1_lattice, cpus):
        batch = vs.simulate_paths(c1_scn, seed=8, npaths=3 * CHUNK_PATHS + 17, nsteps=360)
        runs = []
        for threads in (1, 2):
            cpus(threads)
            runs.append(repr(_estimates(batch, c1_scn, c1_lattice)))
        # one worker per chunk, more than the cores, with frequent thread switches
        cpus(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs.append(repr(_estimates(batch, c1_scn, c1_lattice)))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1] == runs[2]

    def test_one_pass_driver_equals_the_three_estimators(self, c2_scn, c2_lattice):
        batch = vs.simulate_paths(c2_scn, seed=9, npaths=2 * CHUNK_PATHS + 5, nsteps=360)
        mb, sv, prem = _estimates(batch, c2_scn, c2_lattice)
        est = vs.mc_verify_estimates(batch, c2_scn, c2_lattice["boundary"], c2_lattice["mask"])
        assert repr((est.maturity_benefit, est.boundary_strategy, est.premiums)) == repr((mb, sv, prem))

    def test_early_break_stops_and_joins_the_workers(self, c1_scn, monkeypatch, cpus):
        cpus(2)
        built = []
        chunk = PathBatch._chunk

        def counting(self, ci, drifts):
            built.append(ci)
            return chunk(self, ci, drifts)

        monkeypatch.setattr(PathBatch, "_chunk", counting)
        before = threading.active_count()
        batch = vs.simulate_paths(c1_scn, seed=12, npaths=64 * CHUNK_PATHS, nsteps=360)
        for start, _ in batch.iter_chunks():
            break
        assert start == 0
        # chunks are built on the calling thread, one per request
        assert built == [0]
        assert threading.active_count() == before

    def test_worker_error_propagates_and_joins_the_workers(self, c1_scn, monkeypatch, cpus):
        cpus(2)
        chunk = PathBatch._chunk

        def failing(self, ci, drifts):
            if ci == 1:
                raise FloatingPointError("chunk 1")
            return chunk(self, ci, drifts)

        monkeypatch.setattr(PathBatch, "_chunk", failing)
        before = threading.active_count()
        batch = vs.simulate_paths(c1_scn, seed=13, npaths=8 * CHUNK_PATHS, nsteps=12)
        seen = []
        with pytest.raises(FloatingPointError):
            for start, _ in batch.iter_chunks():
                seen.append(start)
        assert seen == [0]
        assert threading.active_count() == before

    @pytest.mark.parametrize("npaths, nsteps",
                             [(CHUNK_PATHS + 300, 360), (3 * CHUNK_PATHS + 17, 60)])
    def test_block_pass_equals_the_whole_chunk_reduction(self, c1_scn, cpus, npaths, nsteps):
        # the band and holed slices take the nearest-node branch of the premium kernel
        assert npaths % CHUNK_PATHS % BLOCK_ROWS != 0
        batch = vs.simulate_paths(c1_scn, seed=54, npaths=npaths, nsteps=nsteps)
        mask = _mask(c1_scn, nsteps, _shaped_rows(nsteps))
        boundary = _boundary(15.0, nsteps, np.linspace(150.0, 120.0, nsteps))
        kernels = [mc._maturity_kernel(c1_scn), mc._boundary_kernel(batch, c1_scn, boundary),
                   mc._premium_kernel(batch, c1_scn, mask)]
        totals = [[0.0, 0.0] for _ in range(4)]
        for _, F in batch.iter_chunks():
            for acc, x in zip(totals, [x for kernel in kernels for x in kernel(F)]):
                acc[0] += float(np.sum(x))
                acc[1] += float(np.sum(x * x))
        mb, sv, ee, ff = (mc._finalize(t, q, npaths, 54) for t, q in totals)
        expected = repr(mc.McVerifyEstimates(mb, sv, mc._premiums(ee, ff)))
        for threads in (1, 2):
            cpus(threads)
            assert repr(vs.mc_verify_estimates(batch, c1_scn, boundary, mask)) == expected

    def test_estimator_error_propagates_and_joins_the_workers(self, c1_scn, monkeypatch, cpus):
        cpus(2)
        blocks = PathBatch._blocks

        def failing(self, ci, drifts):
            for k, F in enumerate(blocks(self, ci, drifts)):
                if ci == 1 and k == 3:
                    raise FloatingPointError("chunk 1, block 3")
                yield F

        monkeypatch.setattr(PathBatch, "_blocks", failing)
        before = threading.active_count()
        batch = vs.simulate_paths(c1_scn, seed=15, npaths=8 * CHUNK_PATHS, nsteps=12)
        with pytest.raises(FloatingPointError, match="chunk 1, block 3"):
            vs.mc_maturity_benefit(batch, c1_scn)
        assert threading.active_count() == before

    def test_pass_holds_less_than_one_chunk(self, c1_scn, c1_lattice, cpus):
        cpus(2)
        batch = vs.simulate_paths(c1_scn, seed=16, npaths=1 << 16, nsteps=360)
        tracemalloc.start()
        try:
            vs.mc_verify_estimates(batch, c1_scn, c1_lattice["boundary"], c1_lattice["mask"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < CHUNK_PATHS * 361 * 8  # the bytes of one chunk's paths
