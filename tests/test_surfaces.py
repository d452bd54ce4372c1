"""Value surfaces: what every solver's result is checked for on construction."""

from __future__ import annotations

import numpy as np
import pytest

from vastop.surfaces import ValueSurface


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
