"""CSV writers: byte-identical to the per-cell reference writers.

The ``_ref_*`` functions are the per-cell writers the package used before the
writers formatted whole time slices; every writer must reproduce their bytes,
both on the outputs of a real small-grid run and on arrays holding the float
values whose shortest round-trip spelling is easiest to get wrong, with and
without one rows memo shared across writer calls.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import vastop as vs
from vastop import io as csvio
from vastop.decompose import DecompositionReport
from vastop.region import Boundary, RegionMask
from vastop.surfaces import ValueSurface

# --- reference writers (per-cell formatting) ---------------------------------


def format_number(v) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(v))


def _ref_write_surface_csv(path, surface, mask=None) -> None:
    tn, xn = surface.tnodes, surface.xnodes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,value,reward,in_surrender_region\n")
        for n in range(tn.size):
            for i in range(xn.size):
                flag = (
                    int(mask.in_surrender[n, i])
                    if mask is not None and n < tn.size - 1
                    else 0
                )
                fh.write(
                    f"{format_number(tn[n])},{format_number(xn[i])},"
                    f"{format_number(surface.values[n, i])},"
                    f"{format_number(surface.obstacle[n, i])},{flag}\n"
                )


def _ref_write_boundary_csv(path, boundary) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,b_t,empty_flag\n")
        for n, b in enumerate(boundary.values):
            empty = not np.isfinite(b)
            fh.write(
                f"{format_number(boundary.tnodes[n])},{format_number(b)},{int(empty)}\n"
            )


def _ref_write_report_csv(path, report, surface) -> None:
    tn, xn = report.tnodes, report.xnodes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,v,h,e,f,res_he,res_phif\n")
        for n in range(tn.size):
            for i in range(xn.size):
                fh.write(
                    ",".join(
                        format_number(v)
                        for v in (
                            tn[n],
                            xn[i],
                            surface.values[n, i],
                            report.h[n, i],
                            report.e[n, i],
                            report.f[n, i],
                            report.res_he[n, i],
                            report.res_phif[n, i],
                        )
                    )
                    + "\n"
                )


def _ref_write_estimates_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("quantity,estimate,std_error,npaths,seed\n")
        for name, est, se, npaths, seed in rows:
            fh.write(
                f"{name},{format_number(est)},{format_number(se)},{int(npaths)},{int(seed)}\n"
            )


def _ref_write_check_l_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,L,predicted_section\n")
        for t, L, p in rows:
            fh.write(f"{format_number(t)},{format_number(L)},{p}\n")


# --- helpers -------------------------------------------------------------------


def _same_bytes(tmp_path, name, writer, ref_writer, *args, ref_args=None):
    new, ref = tmp_path / f"{name}.new.csv", tmp_path / f"{name}.ref.csv"
    writer(str(new), *args)
    ref_writer(str(ref), *(args if ref_args is None else ref_args))
    assert new.read_bytes() == ref.read_bytes(), name


def _check_l(tmp_path, name, tnodes, L, sections):
    rows = [(float(t), float(v), p) for t, v, p in zip(tnodes, L, sections)]
    _same_bytes(tmp_path, name, csvio.write_check_l_csv, _ref_write_check_l_csv,
                tnodes, L, sections, ref_args=(rows,))


# --- a real small-grid c1 run --------------------------------------------------


@pytest.fixture(scope="module")
def c1_small():
    scn = vs.benchmark_scenario("c1")
    grid = vs.build_chain(scn, 30, 41, 8.0)
    disc = vs.bermudan_value(grid, scn, "discontinuous")
    cont = vs.bermudan_value(grid, scn, "continuous")
    pde = vs.solve_variational_inequality(scn, vs.build_pde_grid(scn, 30, 41, 8.0))
    mask = vs.extract_regions(disc, scn)
    boundary = vs.extract_boundary(mask, disc)
    report = vs.decomposition_residuals(disc, scn, boundary)
    batch = vs.simulate_paths(scn, seed=5, npaths=2000, nsteps=30)
    est = vs.mc_verify_estimates(batch, scn, boundary, mask)
    return {
        "scn": scn, "disc": disc, "cont": cont, "pde": pde, "mask": mask,
        "mask_cont": vs.extract_regions(cont, scn, mode="exercise"),
        "mask_pde": vs.extract_regions(pde, scn),
        "boundary": boundary,
        "boundary_pde": vs.extract_boundary(vs.extract_regions(pde, scn), pde),
        "report": report, "est": est,
    }


class TestRealRun:
    @pytest.mark.parametrize("surf, mask", [
        ("disc", "mask"), ("cont", "mask_cont"), ("pde", "mask_pde"), ("disc", None),
    ])
    def test_surface(self, tmp_path, c1_small, surf, mask):
        args = (c1_small[surf],) + ((c1_small[mask],) if mask else ())
        _same_bytes(tmp_path, "surface", csvio.write_surface_csv, _ref_write_surface_csv, *args)

    @pytest.mark.parametrize("key", ["boundary", "boundary_pde"])
    def test_boundary(self, tmp_path, c1_small, key):
        assert not np.all(np.isfinite(c1_small[key].values))  # empty sections present
        _same_bytes(tmp_path, "boundary", csvio.write_boundary_csv, _ref_write_boundary_csv,
                    c1_small[key])

    def test_report(self, tmp_path, c1_small):
        _same_bytes(tmp_path, "report", csvio.write_report_csv, _ref_write_report_csv,
                    c1_small["report"], c1_small["disc"])

    def test_estimates(self, tmp_path, c1_small):
        est = c1_small["est"]
        rows = [("maturity_benefit", est.maturity_benefit.estimate,
                 est.maturity_benefit.std_error, est.maturity_benefit.npaths, 5),
                ("surrender_premium", est.premiums.e_estimate, est.premiums.e_std_error,
                 est.premiums.npaths, est.premiums.seed)]
        _same_bytes(tmp_path, "estimates", csvio.write_estimates_csv, _ref_write_estimates_csv,
                    rows)

    def test_check_l(self, tmp_path, c1_small):
        scn = c1_small["scn"]
        dates = c1_small["disc"].tnodes[:-1]
        _check_l(tmp_path, "check_L", dates, vs.L_value(scn, dates), vs.classify_sections(scn, dates))


# --- edge values ---------------------------------------------------------------

EDGE = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-5, 1e16, 123.0, 0.1, 1 / 3, -2.5e-300]


@pytest.fixture(scope="module")
def edge():
    tn = np.array([0.0, 1e-5, 1 / 3, 5e-324])
    xn = np.array(EDGE)
    rng = np.random.default_rng(3)
    vals = np.array([np.roll(EDGE, k) for k in range(tn.size)])
    obst = vals[::-1].astype(np.float32)  # float32 cells widen exactly like float()
    surf = ValueSurface(tn, xn, vals, obst, "lattice", "discontinuous")
    mask = RegionMask(tn, xn, rng.random((tn.size - 1, xn.size)) > 0.5, 0.0, 1e-6,
                      "discontinuous", "value-gap")
    grids = [np.array([np.roll(EDGE, 2 * k + j) for k in range(tn.size)]) for j in range(5)]
    report = DecompositionReport(tn, xn, *grids, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, ())
    boundary = Boundary(tn, np.array([np.inf, 1e16, -0.0]))
    return {"surf": surf, "mask": mask, "report": report, "boundary": boundary}


class TestEdgeValues:
    def test_surface_with_and_without_mask(self, tmp_path, edge):
        _same_bytes(tmp_path, "masked", csvio.write_surface_csv, _ref_write_surface_csv,
                    edge["surf"], edge["mask"])
        _same_bytes(tmp_path, "plain", csvio.write_surface_csv, _ref_write_surface_csv,
                    edge["surf"], None)
        _same_bytes(tmp_path, "default", csvio.write_surface_csv, _ref_write_surface_csv,
                    edge["surf"])

    def test_boundary_with_inf_rows(self, tmp_path, edge):
        _same_bytes(tmp_path, "boundary", csvio.write_boundary_csv, _ref_write_boundary_csv,
                    edge["boundary"])
        all_empty = Boundary(edge["boundary"].tnodes, np.full(3, np.inf))
        _same_bytes(tmp_path, "empty", csvio.write_boundary_csv, _ref_write_boundary_csv,
                    all_empty)

    def test_report(self, tmp_path, edge):
        _same_bytes(tmp_path, "report", csvio.write_report_csv, _ref_write_report_csv,
                    edge["report"], edge["surf"])

    def test_estimates(self, tmp_path):
        rows = [(f"q{k}", v, EDGE[-1 - k], 10**k, 2**64 + k) for k, v in enumerate(EDGE)]
        _same_bytes(tmp_path, "estimates", csvio.write_estimates_csv, _ref_write_estimates_csv,
                    rows)
        _same_bytes(tmp_path, "no_rows", csvio.write_estimates_csv, _ref_write_estimates_csv, [])

    def test_check_l(self, tmp_path):
        tn = np.array(EDGE)
        _check_l(tmp_path, "check_L", tn, tn[::-1].tolist(), ["n/a"] * tn.size)

    def test_format_number_is_the_contract(self, tmp_path, edge):
        path = tmp_path / "plain.csv"
        csvio.write_surface_csv(str(path), edge["surf"])
        first = path.read_text().splitlines()[1].split(",")
        surf = edge["surf"]
        assert first == [csvio.format_number(v) for v in
                         (surf.tnodes[0], surf.xnodes[0], surf.values[0, 0], surf.obstacle[0, 0])] + ["0"]
        assert [csvio.format_number(v) for v in (-0.0, 5e-324, 1e-5, 1e16, 123.0)] == [
            "-0.0", "5e-324", "1e-05", "1e+16", "123.0"]


# --- value cells that share the reward cell's string -----------------------------


def _nan(payload: int) -> float:
    return float(np.array([0x7FF8000000000000 | payload], dtype=np.int64).view(np.float64)[0])


@pytest.fixture(scope="module", params=[np.float64, np.float32], ids=["f64", "f32"])
def ties(request):
    """A surface whose value cells are bit-equal to the reward cell of their node
    in some places only: 0.0 against -0.0, NaNs of one and of two payloads, +inf
    against -inf, whole rows equal and whole rows unequal."""
    e = np.array(EDGE + [_nan(1), -np.nan])
    tn = np.arange(6) / 5
    obst = np.array([np.roll(e, k) for k in range(tn.size)]).astype(request.param)
    wide = obst.astype(float)
    vals = wide.copy()
    vals[0] = -wide[0]  # every sign flipped: no cell is bit-equal, NaNs included
    vals[1, ::2] = -wide[1, ::2]
    vals[2] = np.where(np.isnan(wide[2]), _nan(2), wide[2])  # NaNs of another payload
    vals[3, 1::3] = wide[3, ::-1][1::3]
    # row 4 equals the reward row; row 5 holds its own values
    vals[5] = np.linspace(-1.0, 1.0, e.size)
    surf = ValueSurface(tn, e, vals, obst, "lattice", "discontinuous")
    mask = RegionMask(tn, e, np.random.default_rng(5).random((tn.size - 1, e.size)) > 0.5,
                      0.0, 1e-6, "discontinuous", "value-gap")
    same = vals.view(np.int64) == wide.view(np.int64)
    assert same.any() and not same.all()
    return {"surf": surf, "mask": mask}


class TestValueCellsTiedToReward:
    def test_without_memo(self, tmp_path, ties):
        for name, args in (("masked", (ties["surf"], ties["mask"])), ("plain", (ties["surf"],))):
            _same_bytes(tmp_path, name, csvio.write_surface_csv, _ref_write_surface_csv, *args)

    def test_with_shared_memo(self, tmp_path, ties, edge):
        rows: dict = {}
        write = functools.partial(csvio.write_surface_csv, rows=rows)
        for name, args in (("first", (ties["surf"], ties["mask"])), ("edge", (edge["surf"],)),
                           ("again", (ties["surf"],))):
            _same_bytes(tmp_path, name, write, _ref_write_surface_csv, *args)
        assert set(rows) == _row_keys(ties["surf"], edge["surf"])
        for surf in (ties["surf"], edge["surf"]):
            for a in (surf.values, surf.obstacle):
                for n in range(surf.tnodes.size):
                    row = np.asarray(a[n], dtype=float)
                    assert rows[row.tobytes()] == ",".join(map(repr, row.tolist()))


# --- one rows memo shared across writer calls -----------------------------------


@pytest.fixture(scope="module")
def repeats():
    """A surface whose rows repeat within a column (0 and 3), across its two
    columns (1) and the edge surface's first row (0); signed zeros sit in
    neighbouring rows, and whole rows are NaN, +inf or -inf."""
    e = np.array(EDGE)
    zero, nzero = np.zeros(e.size), np.full(e.size, -0.0)
    tn = np.arange(6) / 2
    vals = np.array([e, zero, nzero, e, np.full(e.size, np.nan), np.full(e.size, np.inf)])
    obst = np.array([nzero, zero, e, np.full(e.size, -np.inf), e, nzero]).astype(np.float32)
    surf = ValueSurface(tn, e, vals, obst, "lattice", "discontinuous")
    mask = RegionMask(tn, e, np.random.default_rng(4).random((tn.size - 1, e.size)) > 0.5,
                      0.0, 1e-6, "discontinuous", "value-gap")
    report = DecompositionReport(tn, e, obst, vals[::-1], nzero + vals, vals, obst[:, ::-1],
                                 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, ())
    return {"surf": surf, "mask": mask, "report": report}


def _row_keys(*surfs):
    return {np.asarray(a, dtype=float)[n].tobytes()
            for s in surfs for a in (s.values, s.obstacle) for n in range(s.tnodes.size)}


class TestSharedRowsMemo:
    def test_surfaces_match_reference_and_fill_the_memo(self, tmp_path, edge, repeats):
        rows: dict = {}
        write = functools.partial(csvio.write_surface_csv, rows=rows)
        for name, args in (("edge", (edge["surf"], edge["mask"])),
                           ("repeats", (repeats["surf"], repeats["mask"])),
                           ("again", (repeats["surf"],)),
                           ("edge_plain", (edge["surf"],))):
            _same_bytes(tmp_path, name, write, _ref_write_surface_csv, *args)
        # one entry per distinct float64 row: -0.0 and 0.0 rows are two entries
        assert set(rows) == _row_keys(edge["surf"], repeats["surf"])
        # the edge surface's 4 value and 4 float32 obstacle rows, then the
        # 0.0, -0.0, NaN, +inf and -inf rows; every other row is a repeat
        assert len(rows) == 4 + 4 + 5
        assert rows[np.full(len(EDGE), -0.0).tobytes()] == ",".join(["-0.0"] * len(EDGE))

    def test_report_reads_the_memo_without_adding_to_it(self, tmp_path, edge, repeats):
        rows: dict = {}
        csvio.write_surface_csv(str(tmp_path / "seed.csv"), repeats["surf"], rows=rows)
        before = dict(rows)
        write = functools.partial(csvio.write_report_csv, rows=rows)
        for name, (report, surf) in (("own", (repeats["report"], repeats["surf"])),
                                     ("edge", (edge["report"], edge["surf"]))):
            _same_bytes(tmp_path, name, write, _ref_write_report_csv, report, surf)
        assert rows == before

    def test_real_run_shares_rows_across_files(self, tmp_path, c1_small):
        rows: dict = {}
        write = functools.partial(csvio.write_surface_csv, rows=rows)
        for key, mask in (("disc", "mask"), ("cont", "mask_cont"), ("pde", "mask_pde"),
                          ("disc", None)):
            args = (c1_small[key],) + ((c1_small[mask],) if mask else ())
            _same_bytes(tmp_path, key, write, _ref_write_surface_csv, *args)
        _same_bytes(tmp_path, "report", functools.partial(csvio.write_report_csv, rows=rows),
                    _ref_write_report_csv, c1_small["report"], c1_small["disc"])
        assert set(rows) == _row_keys(c1_small["disc"], c1_small["cont"], c1_small["pde"])
