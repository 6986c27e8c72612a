"""Tests for the Memory and Mailbox storage components."""

import numpy as np
import pytest

from repro.core import Mailbox, Memory
from repro import tensor as T
from repro.tensor.device import runtime


class TestMemory:
    def test_initial_state_zero(self):
        mem = Memory(5, 3)
        assert mem.data.data.sum() == 0
        assert mem.time.sum() == 0

    def test_update_and_get(self):
        mem = Memory(5, 2)
        nodes = np.array([1, 3])
        mem.update(nodes, T.ones(2, 2), np.array([4.0, 5.0]))
        np.testing.assert_allclose(mem.get(nodes).numpy(), np.ones((2, 2)))
        np.testing.assert_allclose(mem.time[nodes], [4, 5])
        # Untouched nodes stay zero.
        assert mem.get(np.array([0])).numpy().sum() == 0

    def test_get_is_detached_copy(self):
        mem = Memory(3, 2)
        rows = mem.get(np.array([0]))
        rows.data[...] = 9.0
        assert mem.data.data[0].sum() == 0

    def test_update_accepts_numpy(self):
        mem = Memory(3, 2)
        mem.update(np.array([0]), np.full((1, 2), 2.0, dtype=np.float32), np.array([1.0]))
        assert mem.data.data[0, 0] == 2.0

    def test_reset(self):
        mem = Memory(3, 2)
        mem.update(np.array([0]), T.ones(1, 2), np.array([1.0]))
        mem.reset()
        assert mem.data.data.sum() == 0 and mem.time.sum() == 0

    def test_to_device_moves_storage(self):
        mem = Memory(4, 2).to("cuda")
        assert mem.device.is_cuda
        assert mem.data.device.is_cuda
        assert runtime.transfer_stats.bytes > 0

    def test_nbytes(self):
        mem = Memory(4, 2)
        assert mem.nbytes() == 4 * 2 * 4 + 4 * 8


class TestMailboxSingleSlot:
    def test_store_and_get(self):
        mb = Mailbox(4, 3)
        mb.store(np.array([1, 2]), T.ones(2, 3), np.array([5.0, 6.0]))
        np.testing.assert_allclose(mb.get(np.array([1])).numpy(), np.ones((1, 3)))
        np.testing.assert_allclose(mb.time[np.array([1, 2])], [5, 6])

    def test_store_overwrites(self):
        mb = Mailbox(4, 2)
        mb.store(np.array([0]), T.ones(1, 2), np.array([1.0]))
        mb.store(np.array([0]), T.zeros(1, 2), np.array([2.0]))
        assert mb.mail.data[0].sum() == 0
        assert mb.time[0] == 2.0

    def test_duplicate_nodes_coalesce_last_event_wins(self):
        mb = Mailbox(4, 2)
        mail = np.array([[1.0, 1.0], [2.0, 2.0]], dtype=np.float32)
        mb.store(np.array([1, 1]), T.tensor(mail), np.array([1.0, 3.0]))
        np.testing.assert_allclose(mb.mail.data[1], [2.0, 2.0])
        assert mb.time[1] == 3.0

    def test_reset(self):
        mb = Mailbox(3, 2)
        mb.store(np.array([0]), T.ones(1, 2), np.array([1.0]))
        mb.reset()
        assert mb.mail.data.sum() == 0 and mb.time.sum() == 0


class TestMailboxMultiSlot:
    def test_ring_buffer_rotation(self):
        mb = Mailbox(2, 1, slots=3)
        for i in range(4):
            mb.store(np.array([0]), T.full((1, 1), float(i)), np.array([float(i)]))
        # Slot layout after 4 writes into 3 slots: [3, 1, 2].
        np.testing.assert_allclose(mb.mail.data[0].reshape(-1), [3, 1, 2])
        np.testing.assert_allclose(mb.time[0], [3, 1, 2])

    def test_independent_cursors_per_node(self):
        mb = Mailbox(3, 1, slots=2)
        mb.store(np.array([0]), T.ones(1, 1), np.array([1.0]))
        mb.store(np.array([1]), T.ones(1, 1), np.array([1.0]))
        mb.store(np.array([0]), T.full((1, 1), 2.0), np.array([2.0]))
        np.testing.assert_allclose(mb.mail.data[0].reshape(-1), [1, 2])
        np.testing.assert_allclose(mb.mail.data[1].reshape(-1), [1, 0])

    def test_get_shape(self):
        mb = Mailbox(4, 5, slots=3)
        assert mb.get(np.array([0, 1])).shape == (2, 3, 5)

    def test_reset_clears_cursors(self):
        mb = Mailbox(2, 1, slots=2)
        mb.store(np.array([0]), T.ones(1, 1), np.array([1.0]))
        mb.reset()
        mb.store(np.array([0]), T.full((1, 1), 5.0), np.array([1.0]))
        np.testing.assert_allclose(mb.mail.data[0].reshape(-1), [5, 0])

    def test_slots_validation(self):
        with pytest.raises(ValueError):
            Mailbox(2, 2, slots=0)

    def test_to_device(self):
        mb = Mailbox(2, 2, slots=2).to("cuda")
        assert mb.mail.device.is_cuda

    def test_nbytes_counts_slots(self):
        mb = Mailbox(2, 3, slots=4)
        assert mb.nbytes() == 2 * 4 * 3 * 4 + 2 * 4 * 8
