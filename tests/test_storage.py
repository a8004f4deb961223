"""Tests for the storage substrate: cost model, disk, pages, buffer, serial."""

import math
import random

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.cost import CostModel
from repro.storage.disk import SimulatedDisk
from repro.storage.pages import PageStore
from repro.storage import serial


class TestCostModel:
    def test_paper_defaults(self):
        cm = CostModel()
        assert cm.page_size == 4096
        assert cm.random_bandwidth == 0.5 * 1024 * 1024
        assert cm.sequential_bandwidth == 5.0 * 1024 * 1024

    def test_random_read_time(self):
        cm = CostModel()
        assert math.isclose(cm.random_read_time(1), 4096 / (0.5 * 1024 * 1024))

    def test_sequential_faster_than_random(self):
        cm = CostModel()
        assert cm.sequential_io_time(10) < cm.random_read_time(10)

    def test_pages_for_bytes(self):
        cm = CostModel()
        assert cm.pages_for_bytes(0) == 1
        assert cm.pages_for_bytes(1) == 1
        assert cm.pages_for_bytes(4096) == 1
        assert cm.pages_for_bytes(4097) == 2


class TestSimulatedDisk:
    def test_clock_advances_with_io(self):
        disk = SimulatedDisk()
        disk.random_read(2)
        assert disk.clock > 0
        assert disk.stats.random_reads == 2

    def test_cpu_vs_io_split(self):
        disk = SimulatedDisk()
        disk.random_read(1)
        disk.charge_cpu(0.5)
        assert math.isclose(disk.cpu_time, 0.5)
        assert math.isclose(disk.io_time, disk.clock - 0.5)

    def test_zero_page_sequential_is_free(self):
        disk = SimulatedDisk()
        disk.sequential_read(0)
        disk.sequential_write(0)
        assert disk.clock == 0.0

    def test_accumulator_fold_is_one_charge_cpu_per_value(self):
        # Charges spanning many magnitudes, in runs between I/O charges:
        # folding each run into the handed-out accumulators, as the plane
        # sweep does, must leave every total bit-identical to one
        # ``charge_cpu`` call per value.
        rng = random.Random(11)
        per_value, batched, summed = SimulatedDisk(), SimulatedDisk(), SimulatedDisk()
        sum_first_differs = False
        for _ in range(300):
            run = [
                rng.choice((1, 3, 7, 1000)) * 10.0 ** rng.randint(-12, 2) * rng.random()
                for _ in range(rng.randint(0, 40))
            ]
            for seconds in run:
                per_value.charge_cpu(seconds)
            cpu, clock = batched.accumulators
            for seconds in run:
                cpu += seconds
                clock += seconds
            batched.accumulators = cpu, clock
            summed.charge_cpu(math.fsum(run))
            if rng.random() < 0.5:
                io, pages = "random_read", rng.randint(1, 5)
            else:
                io, pages = "sequential_write", rng.randint(0, 50)
            for disk in (per_value, batched, summed):
                getattr(disk, io)(pages)
            assert batched.clock == per_value.clock
            assert batched.cpu_time == per_value.cpu_time
            assert batched.io_time == per_value.io_time
            sum_first_differs |= summed.clock != per_value.clock
        # The data can tell the orders apart: adding each run's sum instead
        # of its values moves the clock.
        assert sum_first_differs

    def test_reset(self):
        disk = SimulatedDisk()
        disk.random_write(3)
        disk.reset()
        assert disk.clock == 0.0
        assert disk.stats.total_random == 0

    def test_stats_totals(self):
        disk = SimulatedDisk()
        disk.random_read(1)
        disk.random_write(2)
        disk.sequential_read(3)
        disk.sequential_write(4)
        assert disk.stats.total_random == 3
        assert disk.stats.total_sequential_pages == 7


class TestPageStore:
    def test_allocate_read_roundtrip(self):
        store = PageStore()
        pid = store.allocate("hello")
        assert store.read(pid) == "hello"
        assert pid in store and len(store) == 1

    def test_dense_ids(self):
        store = PageStore()
        assert [store.allocate(i) for i in range(3)] == [0, 1, 2]

    def test_write_existing(self):
        store = PageStore()
        pid = store.allocate("a")
        store.write(pid, "b")
        assert store.read(pid) == "b"

    def test_write_unallocated_raises(self):
        with pytest.raises(KeyError):
            PageStore().write(7, "x")

    def test_free_then_read_raises(self):
        store = PageStore()
        pid = store.allocate("a")
        store.free(pid)
        with pytest.raises(KeyError):
            store.read(pid)

    def test_page_ids_iteration(self):
        store = PageStore()
        ids = {store.allocate(i) for i in range(5)}
        assert set(store.page_ids()) == ids


class TestBufferPool:
    def _setup(self, capacity_pages: int):
        store = PageStore()
        disk = SimulatedDisk()
        pool = BufferPool(store, disk, capacity_pages * disk.cost_model.page_size)
        return store, disk, pool

    def test_miss_then_hit(self):
        store, disk, pool = self._setup(4)
        pid = store.allocate("node")
        assert pool.get(pid) == "node"
        assert pool.get(pid) == "node"
        assert pool.stats.logical_accesses == 2
        assert pool.stats.physical_reads == 1
        assert pool.stats.hits == 1
        assert disk.stats.random_reads == 1

    def test_lru_eviction(self):
        store, _, pool = self._setup(2)
        pids = [store.allocate(i) for i in range(3)]
        pool.get(pids[0])
        pool.get(pids[1])
        pool.get(pids[0])  # freshen 0; LRU is now 1
        pool.get(pids[2])  # evicts 1
        pool.get(pids[0])  # hit
        assert pool.stats.physical_reads == 3
        pool.get(pids[1])  # miss again
        assert pool.stats.physical_reads == 4

    def test_zero_capacity_always_misses(self):
        store, _, pool = self._setup(0)
        pid = store.allocate("x")
        pool.get(pid)
        pool.get(pid)
        assert pool.stats.physical_reads == 2
        assert pool.stats.hit_ratio == 0.0

    def test_invalidate(self):
        store, _, pool = self._setup(4)
        pid = store.allocate("old")
        pool.get(pid)
        store.write(pid, "new")
        pool.invalidate(pid)
        assert pool.get(pid) == "new"

    def test_clear_keeps_counters(self):
        store, _, pool = self._setup(4)
        pid = store.allocate("x")
        pool.get(pid)
        pool.clear()
        assert len(pool) == 0
        assert pool.stats.logical_accesses == 1

    def test_negative_capacity_rejected(self):
        store = PageStore()
        disk = SimulatedDisk()
        with pytest.raises(ValueError):
            BufferPool(store, disk, -1)

    def test_subpage_capacity_rounds_up_to_one_frame(self):
        # A positive capacity below one page must still cache one page,
        # not silently degrade to "no buffer".
        store = PageStore()
        disk = SimulatedDisk()
        pool = BufferPool(store, disk, disk.cost_model.page_size // 4)
        assert pool.frame_count == 1
        pid = store.allocate("x")
        pool.get(pid)
        pool.get(pid)
        assert pool.stats.physical_reads == 1
        assert pool.stats.hits == 1

    def test_one_byte_capacity_is_one_frame(self):
        store = PageStore()
        disk = SimulatedDisk()
        assert BufferPool(store, disk, 1).frame_count == 1

    def test_exact_multiples_unchanged(self):
        store = PageStore()
        disk = SimulatedDisk()
        page = disk.cost_model.page_size
        assert BufferPool(store, disk, 0).frame_count == 0
        assert BufferPool(store, disk, page).frame_count == 1
        assert BufferPool(store, disk, 3 * page + 7).frame_count == 3

    def test_zero_frame_invalidate_and_clear_are_noops(self):
        store, _, pool = self._setup(0)
        pid = store.allocate("x")
        pool.get(pid)
        pool.invalidate(pid)  # must not raise or mutate anything
        pool.clear()
        assert len(pool) == 0
        assert pool.stats.logical_accesses == 1


class TestSerial:
    def test_fanout_for_4k_pages(self):
        assert serial.max_entries_per_page(4096) == (4096 - 8) // 40

    def test_too_small_page_rejected(self):
        with pytest.raises(ValueError):
            serial.max_entries_per_page(16)

    def test_roundtrip(self):
        entries = [(0.0, 1.0, 2.0, 3.0, 42), (-5.5, 0.0, 1.25, 9.0, 7)]
        page = serial.pack_node(3, entries, 4096)
        assert len(page) == 4096
        level, got = serial.unpack_node(page)
        assert level == 3 and got == entries

    def test_empty_node_roundtrip(self):
        page = serial.pack_node(0, [], 4096)
        assert serial.unpack_node(page) == (0, [])

    def test_overfull_node_rejected(self):
        entries = [(0.0, 0.0, 1.0, 1.0, i) for i in range(200)]
        with pytest.raises(ValueError):
            serial.pack_node(0, entries, 4096)

    def test_full_page_roundtrip(self):
        cap = serial.max_entries_per_page(1024)
        entries = [(float(i), 0.0, float(i + 1), 1.0, i) for i in range(cap)]
        page = serial.pack_node(1, entries, 1024)
        assert serial.unpack_node(page) == (1, entries)
