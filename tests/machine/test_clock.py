"""Unit tests for the BSP runtime's virtual clocks."""

import numpy as np
import pytest

from repro.machine.clock import BatchClock


class TestVirtualClock:
    """The single-run virtual-clock contract, held by a one-replication
    ``BatchClock`` advanced by Python floats — the short path every
    per-operation software charge takes."""

    def test_starts_at_zero(self):
        assert BatchClock(1).now.tolist() == [0.0]

    def test_advance_accumulates(self):
        clock = BatchClock(1)
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now.tolist() == [2.0]

    def test_advance_returns_new_time(self):
        assert BatchClock(1).advance(3.0).tolist() == [3.0]

    def test_advance_to_forward_only(self):
        clock = BatchClock(1)
        clock.advance(5.0)
        clock.advance_to(3.0)  # no-op: monotone
        assert clock.now.tolist() == [5.0]
        clock.advance_to(7.0)
        assert clock.now.tolist() == [7.0]

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            BatchClock(1).advance(-1.0)
        with pytest.raises(ValueError):
            BatchClock(1).advance_to(-1.0)

    def test_repr(self):
        assert "BatchClock" in repr(BatchClock(1))


class TestBatchClock:
    def test_starts_at_zero(self):
        clock = BatchClock(4)
        assert clock.runs == 4
        np.testing.assert_array_equal(clock.now, np.zeros(4))

    def test_scalar_advance_hits_every_replication(self):
        clock = BatchClock(3)
        clock.advance(1.0)
        np.testing.assert_array_equal(clock.now, [1.0, 1.0, 1.0])

    def test_vector_advance(self):
        clock = BatchClock(3)
        clock.advance(np.array([0.5, 1.0, 1.5]))
        clock.advance(0.5)
        np.testing.assert_array_equal(clock.now, [1.0, 1.5, 2.0])

    def test_advance_to_per_replication_monotone(self):
        clock = BatchClock(2)
        clock.advance(np.array([2.0, 0.5]))
        clock.advance_to(np.array([1.0, 1.0]))
        np.testing.assert_array_equal(clock.now, [2.0, 1.0])

    def test_returned_arrays_stable_across_later_advances(self):
        """Each advance rebinds a fresh array, so earlier return values —
        kept as commit times by the runtime — never mutate."""
        clock = BatchClock(2)
        first = clock.advance(1.0)
        clock.advance(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(first, [1.0, 1.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BatchClock(2).advance(-1.0)
        with pytest.raises(ValueError):
            BatchClock(2).advance(np.array([0.0, -0.1]))
        with pytest.raises(ValueError):
            BatchClock(0)

    def test_repr(self):
        assert "BatchClock" in repr(BatchClock(2))
