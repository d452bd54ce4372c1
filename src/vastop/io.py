"""CSV writers with byte-stable, shortest round-trip numeric formatting.

Every float is written as ``format_number`` writes it: ``repr`` of the Python
float, the shortest decimal string that reads back to the same float. The
writers format a whole array or time slice at once and write a slice with one
call, so no per-cell Python function call is made: orjson's float64 encoder
writes the same shortest round-trip digits as ``repr`` at a fraction of its
cost, and spells them the same way wherever ``repr`` writes positional
notation (0, and 1e-4 <= |x| < 1e16). Every other cell (``1e-06``, ``1e+16``,
``nan``, ``inf``) is written by ``repr`` itself. orjson is imported on the
first write, so a process that writes no CSV never loads it.
"""

from __future__ import annotations

import numpy as np

from .decompose import DecompositionReport
from .region import Boundary, RegionMask
from .surfaces import ValueSurface

__all__ = [
    "format_number",
    "write_surface_csv",
    "write_boundary_csv",
    "write_report_csv",
    "write_estimates_csv",
    "write_check_l_csv",
]


def format_number(v) -> str:
    """Shortest decimal string that round-trips to the same float.

    This is the format contract of every writer in this module.
    """
    return repr(float(v))


def _numbers(a) -> list[str]:
    """format_number of every element of a 1-D array, in one call."""
    import orjson  # here, not at the top: see the module docstring

    a = np.ascontiguousarray(a, dtype=float)  # float32 cells widen like float()
    if not a.size:
        return []
    cells = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(a)
    # orjson writes 1e-6, 1e16, 0.0000999 and null where repr writes 1e-06,
    # 1e+16, 9.99e-05, nan and inf
    odd = np.flatnonzero(~((mag >= 1e-4) & (mag < 1e16) | (a == 0)))
    for i, v in zip(odd.tolist(), a[odd].tolist()):
        cells[i] = repr(v)
    return cells


def _write_grid(fh, tnodes, xnodes, arrays, flags=None) -> None:
    """One row t,x,arrays[k][n, i]...[,flags(n)[i]] per (t, x) node.

    A time slice is laid out as one list of cells and separators, filled
    column by column with extended-slice assignments and written at once.
    """
    xs = _numbers(xnodes)
    M = len(xs)
    row = 2 * (2 + len(arrays) + (flags is not None))  # cells and their separators
    buf = [","] * (row * M)
    buf[row - 1::row] = ["\n"] * M
    buf[2::row] = xs
    for n, t in enumerate(_numbers(tnodes)):
        buf[0::row] = [t] * M
        for k, a in enumerate(arrays):
            buf[4 + 2 * k::row] = _numbers(a[n])
        if flags is not None:
            buf[row - 2::row] = flags(n)
        fh.write("".join(buf))


_FLAGS = np.array(["0", "1"], dtype=object)  # a region flag's string, indexed by the flag


def write_surface_csv(path, surface: ValueSurface, mask: RegionMask | None = None) -> None:
    """Header t,x,value,reward,in_surrender_region; maturity slice carries 0
    in the region column (regions are defined before maturity only)."""
    last = surface.tnodes.size - 1

    def flags(n):
        if mask is None or n >= last:
            return ["0"] * surface.xnodes.size
        return _FLAGS[mask.in_surrender[n].astype(np.intp)].tolist()

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,value,reward,in_surrender_region\n")
        _write_grid(fh, surface.tnodes, surface.xnodes, (surface.values, surface.obstacle), flags)


def write_boundary_csv(path, boundary: Boundary) -> None:
    """Header t,b_t,empty_flag; one row per boundary value, +inf marks an empty
    section and sets the flag."""
    b = np.asarray(boundary.values, dtype=float)
    empty = (~np.isfinite(b)).astype(int).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,b_t,empty_flag\n")
        fh.write("".join(
            f"{t},{v},{e}\n"
            for t, v, e in zip(_numbers(boundary.tnodes[: b.size]), _numbers(b), empty)
        ))


def write_report_csv(path, report: DecompositionReport, surface: ValueSurface) -> None:
    """Header t,x,v,h,e,f,res_he,res_phif; v comes from the surface."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,v,h,e,f,res_he,res_phif\n")
        _write_grid(
            fh, report.tnodes, report.xnodes,
            (surface.values, report.h, report.e, report.f, report.res_he, report.res_phif),
        )


def write_estimates_csv(path, rows) -> None:
    """rows: iterable of (quantity, estimate, std_error, npaths, seed)."""
    rows = list(rows)
    cells = zip(_numbers([row[1] for row in rows]), _numbers([row[2] for row in rows]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("quantity,estimate,std_error,npaths,seed\n")
        fh.write("".join(
            f"{name},{est},{se},{int(npaths)},{int(seed)}\n"
            for (name, _, _, npaths, seed), (est, se) in zip(rows, cells)
        ))


def write_check_l_csv(path, tnodes, L, sections) -> None:
    """Header t,L,predicted_section; one row per date, L the surrender
    incentive L(t) and sections the predicted section labels."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,L,predicted_section\n")
        fh.write("".join(f"{t},{v},{p}\n" for t, v, p in zip(_numbers(tnodes), _numbers(L), sections)))
