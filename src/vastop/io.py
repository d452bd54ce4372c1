"""CSV writers with byte-stable, shortest round-trip numeric formatting.

Every float is written as ``format_number`` writes it: ``repr`` of the Python
float, the shortest decimal string that reads back to the same float. The grid
writers format a whole time slice at once (``map(repr, row.tolist())``) and
write it with one call, so no per-cell Python function call is made.

The grid writers take an optional ``rows`` memo, a dict the caller keeps for
one run: it maps the bytes of a float64 row to the row's cells joined by
commas, so a row that repeats one written earlier (the same obstacle in two
surfaces, the same surface in two files) is split, not formatted again. The
memo holds one string per distinct row it was given; without it a writer holds
one slice of strings at a time.

A surface's value cell that is bit-equal to the reward cell of the same node
(-0.0 and 0.0 are not, and NaNs are when their bits are) takes the reward
cell's string, so only the other value cells are formatted.
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
    return list(map(repr, np.asarray(a, dtype=float).tolist()))


def _cells(row: np.ndarray, rows: dict | None, keep: bool, like=None) -> list[str]:
    """repr of every element of a float64 row, looked up in the rows memo first
    and, when keep is set, added to it. like is None or (other, its cells), a
    row of the same nodes whose strings the bit-equal elements of row take."""
    if rows is not None:
        key = row.tobytes()
        line = rows.get(key)
        if line is not None:
            return line.split(",")
    if like is None:
        cells = list(map(repr, row.tolist()))
    else:
        other, cells = like[0], like[1].copy()
        diff = np.flatnonzero(row.view(np.int64) != other.view(np.int64))
        for i, cell in zip(diff.tolist(), map(repr, row[diff].tolist())):
            cells[i] = cell
    if rows is not None and keep:
        rows[key] = ",".join(cells)
    return cells


def _write_grid(fh, tnodes, xnodes, arrays, flags=None, rows=None, keep=True,
                tied=False) -> None:
    """One row t,x,arrays[k][n, i]...[,flags(n)[i]] per (t, x) node.

    A time slice is laid out as one list of cells and separators, filled
    column by column with extended-slice assignments and written at once.
    Each slice of an array is formatted through the rows memo (see the module
    docstring); keep=False reads the memo without adding to it. With tied,
    the cells of arrays[0] that are bit-equal to those of arrays[1] take
    arrays[1]'s strings.
    """
    xs = _numbers(xnodes)
    M = len(xs)
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    row = 2 * (2 + len(arrays) + (flags is not None))  # cells and their separators
    buf = [","] * (row * M)
    buf[row - 1::row] = ["\n"] * M
    buf[2::row] = xs
    for n, t in enumerate(_numbers(tnodes)):
        buf[0::row] = [t] * M
        cells = [_cells(a[n], rows, keep) for a in arrays[tied:]]
        if tied:
            cells.insert(0, _cells(arrays[0][n], rows, keep, like=(arrays[1][n], cells[0])))
        for k, c in enumerate(cells):
            buf[4 + 2 * k::row] = c
        if flags is not None:
            buf[row - 2::row] = flags(n)
        fh.write("".join(buf))


_FLAGS = np.array(["0", "1"], dtype=object)  # a region flag's string, indexed by the flag


def write_surface_csv(path, surface: ValueSurface, mask: RegionMask | None = None,
                      rows: dict | None = None) -> None:
    """Header t,x,value,reward,in_surrender_region; maturity slice carries 0
    in the region column (regions are defined before maturity only). The value
    and reward rows are formatted through, and added to, the rows memo."""
    last = surface.tnodes.size - 1

    def flags(n):
        if mask is None or n >= last:
            return ["0"] * surface.xnodes.size
        return _FLAGS[mask.in_surrender[n].astype(np.intp)].tolist()

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,value,reward,in_surrender_region\n")
        _write_grid(fh, surface.tnodes, surface.xnodes, (surface.values, surface.obstacle), flags,
                    rows=rows, tied=True)


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


def write_report_csv(path, report: DecompositionReport, surface: ValueSurface,
                     rows: dict | None = None) -> None:
    """Header t,x,v,h,e,f,res_he,res_phif; v comes from the surface. Rows are
    looked up in the rows memo but not added: the report's own columns never
    repeat, and keeping them would only hold their strings."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,v,h,e,f,res_he,res_phif\n")
        _write_grid(
            fh, report.tnodes, report.xnodes,
            (surface.values, report.h, report.e, report.f, report.res_he, report.res_phif),
            rows=rows, keep=False,
        )


def write_estimates_csv(path, rows) -> None:
    """rows: iterable of (quantity, estimate, std_error, npaths, seed)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("quantity,estimate,std_error,npaths,seed\n")
        fh.write("".join(
            f"{name},{format_number(est)},{format_number(se)},{int(npaths)},{int(seed)}\n"
            for name, est, se, npaths, seed in rows
        ))


def write_check_l_csv(path, tnodes, L, sections) -> None:
    """Header t,L,predicted_section; one row per date, L the surrender
    incentive L(t, F0) and sections the predicted section labels."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,L,predicted_section\n")
        fh.write("".join(f"{t},{v},{p}\n" for t, v, p in zip(_numbers(tnodes), _numbers(L), sections)))
