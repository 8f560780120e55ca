"""Unit tests for BSMP messaging, tag sizes, and registration (§6.1-6.2)."""

import numpy as np
import pytest

from repro.bsplib import BSPError, RegistrationTable, TagSizeError, bsp_run
from repro.bsplib.errors import CommunicationError, RegistrationError
from repro.bsplib.messages import HEADER_BYTES, Header, SignalType
from repro.cluster import presets
from repro.machine import SimMachine


@pytest.fixture
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=21
    )


class TestHeader:
    def test_six_integers(self):
        header = Header(SignalType.PUT, 1, 2, 3, 4, 5)
        assert (header.signal, header.source_pid, header.reg_index,
                header.offset, header.length, header.sequence) == (
            SignalType.PUT, 1, 2, 3, 4, 5)
        assert HEADER_BYTES == 24


class TestRegistrationTable:
    def test_push_commit_lookup(self):
        table = RegistrationTable()
        a = np.zeros(4)
        table.queue_push(a)
        table.commit([0])
        assert table.index_of(a) == 0
        assert table.array_at(0) is a

    def test_restack_semantics(self):
        """Re-registering the same buffer: latest registration wins; pop
        removes the most recent (BSPlib stack semantics)."""
        table = RegistrationTable()
        a = np.zeros(4)
        table.queue_push(a)
        table.commit([0])
        table.queue_push(a)
        table.commit([1])
        assert table.index_of(a) == 1
        table.queue_pop(a)
        table.commit([])
        assert table.index_of(a) == 0

    def test_pop_unregistered_rejected(self):
        table = RegistrationTable()
        with pytest.raises(RegistrationError):
            table.queue_pop(np.zeros(2))

    def test_lookup_unregistered_rejected(self):
        table = RegistrationTable()
        with pytest.raises(RegistrationError, match="push_reg"):
            table.index_of(np.zeros(2))

    def test_array_at_missing_slot(self):
        table = RegistrationTable()
        with pytest.raises(RegistrationError):
            table.array_at(7)

    def test_non_array_rejected(self):
        table = RegistrationTable()
        with pytest.raises(RegistrationError):
            table.queue_push([1, 2, 3])


class TestRegistrationInPrograms:
    def test_registration_effective_next_superstep(self, machine):
        def program(ctx):
            data = np.zeros(2)
            ctx.push_reg(data)
            # Using it before sync must fail: not yet committed.
            with pytest.raises(RegistrationError):
                ctx.put(0, np.zeros(1), data)
            ctx.sync()
            ctx.put(ctx.pid, np.ones(2), data)
            ctx.sync()
            return data.tolist()

        res = bsp_run(machine, 2, program, label="reg-timing")
        assert all(v == [1.0, 1.0] for v in res.return_values)

    def test_pop_reg_then_use_fails(self, machine):
        def program(ctx):
            data = np.zeros(2)
            ctx.push_reg(data)
            ctx.sync()
            ctx.pop_reg(data)
            ctx.sync()
            ctx.put(0, np.zeros(1), data)

        with pytest.raises(BSPError):
            bsp_run(machine, 2, program, label="popped")

    def test_different_local_sizes_allowed(self, machine):
        """BSPlib allows registrations of different sizes per process."""

        def program(ctx):
            data = np.zeros(4 + ctx.pid)
            ctx.push_reg(data)
            ctx.sync()
            ctx.put((ctx.pid + 1) % ctx.nprocs, np.ones(2), data)
            ctx.sync()
            return data[:2].tolist()

        res = bsp_run(machine, 2, program, label="sizes")
        assert all(v == [1.0, 1.0] for v in res.return_values)


class TestTaggedMessages:
    def test_send_move_roundtrip(self, machine):
        def program(ctx):
            ctx.set_tagsize(4)
            ctx.sync()
            dest = (ctx.pid + 1) % ctx.nprocs
            ctx.send(dest, b"tag0", np.array([1.5, 2.5]))
            ctx.sync()
            count, total = ctx.qsize()
            length, tag = ctx.get_tag()
            payload = np.frombuffer(ctx.move(), dtype=float)
            return count, total, length, tag, payload.tolist()

        res = bsp_run(machine, 3, program, label="send")
        for count, total, length, tag, payload in res.return_values:
            assert count == 1
            assert total == 16
            assert length == 16
            assert tag == b"tag0"
            assert payload == [1.5, 2.5]

    def test_queue_flushed_each_superstep(self, machine):
        def program(ctx):
            ctx.set_tagsize(1)
            ctx.sync()
            ctx.send((ctx.pid + 1) % ctx.nprocs, b"a", b"payload")
            ctx.sync()
            first = ctx.qsize()[0]
            ctx.sync()  # queue not consumed: dropped at next sync
            second = ctx.qsize()[0]
            return first, second

        res = bsp_run(machine, 2, program, label="flush")
        assert all(v == (1, 0) for v in res.return_values)

    def test_fifo_by_source_then_sequence(self, machine):
        def program(ctx):
            ctx.set_tagsize(1)
            ctx.sync()
            if ctx.pid != 0:
                ctx.send(0, b"x", bytes([ctx.pid, 1]))
                ctx.send(0, b"x", bytes([ctx.pid, 2]))
            ctx.sync()
            order = []
            while ctx.get_tag()[0] != -1:
                order.append(tuple(ctx.move()))
            return order

        res = bsp_run(machine, 3, program, label="fifo")
        assert res.return_values[0] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_hpmove(self, machine):
        def program(ctx):
            ctx.set_tagsize(2)
            ctx.sync()
            ctx.send((ctx.pid + 1) % ctx.nprocs, b"hi", b"zero-copy")
            ctx.sync()
            tag, payload = ctx.hpmove()
            return tag, payload

        res = bsp_run(machine, 2, program, label="hpmove")
        assert all(v == (b"hi", b"zero-copy") for v in res.return_values)

    def test_move_empty_queue_rejected(self, machine):
        def program(ctx):
            ctx.sync()
            ctx.move()

        with pytest.raises(CommunicationError):
            bsp_run(machine, 2, program, label="empty-move")

    def test_get_tag_empty_queue(self, machine):
        def program(ctx):
            ctx.sync()
            return ctx.get_tag()

        res = bsp_run(machine, 2, program, label="empty-tag")
        assert all(v == (-1, None) for v in res.return_values)


class TestTagSize:
    def test_takes_effect_next_superstep(self, machine):
        def program(ctx):
            previous = ctx.set_tagsize(4)
            # Current superstep still has the old (zero) tag size.
            with pytest.raises(TagSizeError):
                ctx.send(0, b"abcd", b"x")
            ctx.sync()
            ctx.send((ctx.pid + 1) % ctx.nprocs, b"abcd", b"x")
            ctx.sync()
            return previous, ctx.get_tag()[1]

        res = bsp_run(machine, 2, program, label="tagsize")
        assert all(v == (0, b"abcd") for v in res.return_values)

    def test_disagreement_detected(self, machine):
        def program(ctx):
            ctx.set_tagsize(ctx.pid + 1)
            ctx.sync()

        with pytest.raises(TagSizeError):
            bsp_run(machine, 2, program, label="tag-mismatch")

    def test_partial_call_detected(self, machine):
        def program(ctx):
            if ctx.pid == 0:
                ctx.set_tagsize(4)
            ctx.sync()

        with pytest.raises(TagSizeError):
            bsp_run(machine, 2, program, label="tag-partial")

    def test_wrong_tag_length_rejected(self, machine):
        def program(ctx):
            ctx.set_tagsize(2)
            ctx.sync()
            ctx.send(0, b"toolong", b"x")

        with pytest.raises(TagSizeError, match="tag size"):
            bsp_run(machine, 2, program, label="tag-len")
