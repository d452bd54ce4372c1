"""Every demo runs to its end in-process, with its default arguments, and prints
the stdout recorded in tests/golden/demos/<demo>.txt, byte for byte."""

from __future__ import annotations

import contextlib
import io
import pathlib
import runpy
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def test_demos_are_found():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_to_its_end(path, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(path)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().endswith("\nDone.\n")
    golden = (GOLDEN / f"{path.stem}.txt").read_text(encoding="utf-8")
    assert out.getvalue() == golden
