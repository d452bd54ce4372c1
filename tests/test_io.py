"""CSV writers: byte-identical to the per-cell reference writers.

The ``_ref_*`` functions are the per-cell writers the package used before the
writers formatted whole time slices; every writer must reproduce their bytes,
both on the outputs of a real small-grid run and on arrays holding the float
values whose shortest round-trip spelling is easiest to get wrong. A property
test holds the cell formatter to ``repr(float(v))`` on any float64 or float32
array, and a fresh interpreter shows that importing the package leaves orjson
unloaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vastop as vs
from vastop import io as csvio
from vastop.decompose import DecompositionReport
from vastop.mc import McEstimate
from vastop.region import Boundary, RegionMask

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")

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


def _ref_write_estimates_csv(path, estimates) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("quantity,estimate,std_error,npaths,seed\n")
        for name, e in estimates.items():
            fh.write(
                f"{name},{format_number(e.estimate)},{format_number(e.std_error)},"
                f"{int(e.npaths)},{int(e.seed)}\n"
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
        _same_bytes(tmp_path, "estimates", csvio.write_estimates_csv, _ref_write_estimates_csv,
                    c1_small["est"])

    def test_check_l(self, tmp_path, c1_small):
        scn = c1_small["scn"]
        dates = c1_small["disc"].tnodes[:-1]
        _check_l(tmp_path, "check_L", dates, vs.L_value(scn, dates), vs.classify_sections(scn, dates))


# --- edge values ---------------------------------------------------------------

EDGE = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-5, 1e16, 123.0, 0.1, 1 / 3, -2.5e-300]


def _any_surface(tnodes, xnodes, values, obstacle):
    """What the surface writer reads of a ValueSurface, holding any floats:
    ValueSurface refuses NaN and infinite values, and the writers must still
    spell them like the reference writers."""
    return types.SimpleNamespace(tnodes=tnodes, xnodes=xnodes, values=values, obstacle=obstacle)


@pytest.fixture(scope="module")
def edge():
    tn = np.array([0.0, 1e-5, 1 / 3, 5e-324])
    xn = np.array(EDGE)
    rng = np.random.default_rng(3)
    vals = np.array([np.roll(EDGE, k) for k in range(tn.size)])
    obst = vals[::-1].astype(np.float32)  # float32 cells widen exactly like float()
    surf = _any_surface(tn, xn, vals, obst)
    mask = RegionMask(tn, xn, rng.random((tn.size - 1, xn.size)) > 0.5, 0.0, 1e-6, "value-gap")
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
        estimates = {f"q{k}": McEstimate(v, EDGE[-1 - k], 10**k, 2**64 + k)
                     for k, v in enumerate(EDGE)}
        _same_bytes(tmp_path, "estimates", csvio.write_estimates_csv, _ref_write_estimates_csv,
                    estimates)
        _same_bytes(tmp_path, "no_rows", csvio.write_estimates_csv, _ref_write_estimates_csv, {})

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


# --- value cells bit-equal to the reward cell of their node ----------------------


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
    surf = _any_surface(tn, e, vals, obst)
    mask = RegionMask(tn, e, np.random.default_rng(5).random((tn.size - 1, e.size)) > 0.5,
                      0.0, 1e-6, "value-gap")
    same = vals.view(np.int64) == wide.view(np.int64)
    assert same.any() and not same.all()
    return {"surf": surf, "mask": mask}


class TestValueCellsTiedToReward:
    def test_without_memo(self, tmp_path, ties):
        for name, args in (("masked", (ties["surf"], ties["mask"])), ("plain", (ties["surf"],))):
            _same_bytes(tmp_path, name, csvio.write_surface_csv, _ref_write_surface_csv, *args)


# --- rows that repeat, and rows of one special value -----------------------------


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
    surf = _any_surface(tn, e, vals, obst)
    mask = RegionMask(tn, e, np.random.default_rng(4).random((tn.size - 1, e.size)) > 0.5,
                      0.0, 1e-6, "value-gap")
    report = DecompositionReport(tn, e, obst, vals[::-1], nzero + vals, vals, obst[:, ::-1],
                                 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, ())
    return {"surf": surf, "mask": mask, "report": report}


class TestRepeatedRows:
    def test_surface_with_and_without_mask(self, tmp_path, repeats):
        for name, args in (("masked", (repeats["surf"], repeats["mask"])),
                           ("plain", (repeats["surf"],))):
            _same_bytes(tmp_path, name, csvio.write_surface_csv, _ref_write_surface_csv, *args)

    def test_report(self, tmp_path, repeats):
        _same_bytes(tmp_path, "report", csvio.write_report_csv, _ref_write_report_csv,
                    repeats["report"], repeats["surf"])


# --- the format contract on any float --------------------------------------------


def _from_bits(bits: int, dtype) -> float:
    """The float of dtype whose bit pattern is bits: NaNs of any payload and sign,
    subnormals and infinities included."""
    ints = np.uint64 if dtype == np.float64 else np.uint32
    return np.array([bits], dtype=ints).view(dtype)[0]


# where repr turns from positional to exponent notation, with both neighbours of
# each edge; the zeros, the smallest subnormals, the infinities and NaNs of
# either sign with payloads (signalling float64 ones too: widening a signalling
# float32 NaN makes numpy warn)
_EDGES = [w for v in (1e-4, -1e-4, 1e16, -1e16) for w in (np.nextafter(v, -np.inf), v,
                                                            np.nextafter(v, np.inf))]
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, *_EDGES]
_NAN_BITS = {np.float64: (0x7FF0000000000001, 0xFFF8000000000000, 0x7FFFFFFFFFFFFFFF),
             np.float32: (0x7FC00001, 0xFFC00000, 0x7FFFFFFF)}


def _cells(dtype):
    width = 64 if dtype == np.float64 else 32
    special = [*map(dtype, _SPECIAL), *(_from_bits(b, dtype) for b in _NAN_BITS[dtype])]
    return st.lists(st.one_of(
        st.floats(width=width),
        st.integers(0, 2**width - 1).map(lambda b: _from_bits(b, dtype)),
        st.sampled_from(special),
    ), max_size=40).map(lambda v: np.array(v, dtype=dtype))


class TestFormatContract:
    """Every writer formats its floats with ``_numbers``; its cells must be
    ``repr(float(v))``, float32 arrays included (widened exactly, not printed
    with float32's own shortest digits)."""

    @given(a=_cells(np.float64))
    @settings(max_examples=300, deadline=None)
    def test_float64(self, a):
        assert csvio._numbers(a) == [repr(float(v)) for v in a]

    @given(a=_cells(np.float32))
    @settings(max_examples=200, deadline=None)
    def test_float32(self, a):
        assert csvio._numbers(a) == [repr(float(v)) for v in a]

    def test_strided_rows(self):
        nans = [_from_bits(b, np.float64) for b in _NAN_BITS[np.float64]]
        grid = np.array([[*nans, *_SPECIAL], [*_SPECIAL, *nans]])
        for col in (grid[:, 3], grid.T[0], grid[0, ::2]):
            assert csvio._numbers(col) == [repr(float(v)) for v in col]

    def test_importing_the_package_leaves_orjson_unloaded(self):
        # orjson is imported by the first CSV write (or emit): a process that
        # writes none never loads it
        code = "import sys, vastop, vastop.cli; print('orjson' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC_DIR),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
