"""Every demo runs to its end in-process, with its default arguments."""

from __future__ import annotations

import contextlib
import io
import pathlib
import runpy
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_to_its_end(path, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(path)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().endswith("\nDone.\n")
