"""Tests for RNG helpers, table rendering and validation helpers."""

import numpy as np
import pytest

from repro.utils.rng import DEFAULT_SEED, derive_seed, seeded_rng
from repro.utils.tables import Table
from repro.utils.validation import (
    require,
    require_non_negative,
    require_positive,
)


class TestRng:
    def test_same_seed_same_stream(self):
        a = seeded_rng(42).integers(0, 1000, size=10)
        b = seeded_rng(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_default_seed_is_used(self):
        a = seeded_rng(None).integers(0, 1000, size=5)
        b = seeded_rng(DEFAULT_SEED).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "rank", 3) == derive_seed(1, "rank", 3)

    def test_derive_seed_token_sensitivity(self):
        assert derive_seed(1, "rank", 3) != derive_seed(1, "rank", 4)
        assert derive_seed(1, "rank", 3) != derive_seed(2, "rank", 3)

    def test_derive_seed_none_base(self):
        assert derive_seed(None, "x") == derive_seed(DEFAULT_SEED, "x")


class TestTable:
    def test_render_alignment(self):
        table = Table(headers=["name", "value"], title="demo")
        table.add_row("alpha", 1.23456)
        table.add_row("b", 10)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert "alpha" in lines[3]
        # Floats are rendered with 3 significant digits.
        assert "1.23" in text

    def test_row_width_mismatch_rejected(self):
        table = Table(headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_extend(self):
        table = Table(headers=["a"])
        table.extend([[1], [2], [3]])
        assert len(table.rows) == 3


class TestValidation:
    def test_require_passes(self):
        require(True, "never raised")

    def test_require_raises(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_require_positive(self):
        assert require_positive(3, "x") == 3
        with pytest.raises(ValueError):
            require_positive(0, "x")
        with pytest.raises(ValueError):
            require_positive(-1, "x")

    def test_require_non_negative(self):
        assert require_non_negative(0, "x") == 0
        with pytest.raises(ValueError):
            require_non_negative(-0.5, "x")
