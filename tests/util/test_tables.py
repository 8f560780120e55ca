"""Unit tests for table formatting."""

import pytest

from repro.util.tables import format_table


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = format_table(["a", "long"], [[1, 2.5], [10, 0.001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}
        # All lines share the same total width (right-justified columns).
        assert len({len(line) for line in lines}) == 1

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        text = format_table(["v"], [[1234567.0], [0.00001234]])
        assert "1.235e+06" in text
        assert "1.234e-05" in text
