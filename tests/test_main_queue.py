"""Tests for the hybrid memory/disk main queue."""

import heapq
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.queues.main_queue import MAX_FORMULA_SEGMENTS, MainQueue
from repro.storage.disk import SimulatedDisk


def make_queue(entries: int = 32, rho: float | None = None) -> tuple[MainQueue, SimulatedDisk]:
    disk = SimulatedDisk()
    queue = MainQueue(disk, memory_bytes=48 * entries, rho=rho)
    return queue, disk


class TestValidation:
    def test_bad_memory(self):
        with pytest.raises(ValueError):
            MainQueue(SimulatedDisk(), memory_bytes=0)

    def test_bad_rho(self):
        with pytest.raises(ValueError):
            MainQueue(SimulatedDisk(), memory_bytes=1024, rho=0.0)

    def test_bad_entry_bytes(self):
        with pytest.raises(ValueError):
            MainQueue(SimulatedDisk(), memory_bytes=1024, entry_bytes=0)

    def test_pop_empty_raises(self):
        queue, _ = make_queue()
        with pytest.raises(IndexError):
            queue.pop()


class TestBasics:
    def test_fifo_of_priorities(self):
        queue, _ = make_queue()
        for v in [5.0, 1.0, 3.0]:
            queue.insert(v, f"p{v}")
        assert queue.pop() == (1.0, "p1.0")
        assert queue.peek_key() == 3.0
        assert len(queue) == 2
        assert bool(queue)

    def test_in_memory_until_capacity(self):
        queue, disk = make_queue(entries=16)
        for v in range(16):
            queue.insert(float(v), None)
        assert queue.stats.splits == 0
        assert queue.in_memory_size == 16

    def test_split_on_overflow(self):
        queue, _ = make_queue(entries=8)
        for v in range(20):
            queue.insert(float(v), None)
        assert queue.stats.splits >= 1
        assert queue.segment_count >= 1
        assert queue.check_invariant()

    def test_swap_in_restores_order(self):
        queue, _ = make_queue(entries=8)
        values = [float(v) for v in range(50)]
        random.Random(3).shuffle(values)
        for v in values:
            queue.insert(v, None)
        out = [queue.pop()[0] for _ in range(50)]
        assert out == sorted(values)
        assert queue.stats.swap_ins >= 1

    def test_peak_size_tracked(self):
        queue, _ = make_queue()
        for v in range(10):
            queue.insert(float(v), None)
        for _ in range(10):
            queue.pop()
        assert queue.stats.peak_size == 10
        assert len(queue) == 0 and not queue


class TestBoundarySemantics:
    """The heap/segment boundary is half-open and checked exactly."""

    def test_split_keeps_tie_block_together(self):
        # 9 inserts into an 8-entry heap, all the same key: a naive
        # median split would leave equal keys on both sides of the new
        # memory bound; the half-open rule moves the whole block out.
        queue, _ = make_queue(entries=8)
        for _ in range(9):
            queue.insert(7.0, None)
        assert queue.stats.splits == 1
        assert queue.in_memory_size == 0
        assert queue.check_invariant()
        assert [queue.pop()[0] for _ in range(9)] == [7.0] * 9

    def test_split_ties_never_straddle(self):
        queue, _ = make_queue(entries=8)
        for v in [1.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0, 4.0, 5.0]:
            queue.insert(v, None)
        assert queue.stats.splits == 1
        assert queue.check_invariant()
        # Everything >= the boundary key moved out together.
        assert queue.in_memory_size == 2
        out = [queue.pop()[0] for _ in range(9)]
        assert out == sorted([1.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0, 4.0, 5.0])

    def test_invariant_is_exact_not_approximate(self):
        # Keys a hair apart must be separated exactly; an isclose-style
        # check would wave a straddling key through.
        queue, _ = make_queue(entries=4)
        base = 10.0
        nudged = math.nextafter(base, math.inf)
        for v in [base, base, nudged, nudged, base]:
            queue.insert(v, None)
        assert queue.check_invariant()
        assert [queue.pop()[0] for _ in range(5)] == sorted(
            [base, base, nudged, nudged, base]
        )

    def test_formula_routing_at_exact_boundaries(self):
        # Distances landing exactly on sqrt(i * n * rho) must go to the
        # segment whose half-open range starts there, for the same
        # boundary values swap-in later uses as the new memory bound.
        queue, _ = make_queue(entries=16, rho=0.25)
        boundaries = [math.sqrt(i * 16 * 0.25) for i in range(1, 6)]
        for b in boundaries:
            queue.insert(b, None)
            assert queue.check_invariant()
        out = [queue.pop()[0] for _ in range(len(boundaries))]
        assert out == sorted(boundaries)


class TestCloseAndContextManager:
    def test_close_empties_queue(self):
        queue, _ = make_queue(entries=8)
        for v in range(40):
            queue.insert(float(v), None)
        queue.close()
        assert len(queue) == 0 and not queue
        assert queue.segment_count == 0
        with pytest.raises(IndexError):
            queue.pop()

    def test_close_idempotent_and_reusable(self):
        queue, _ = make_queue(entries=8)
        queue.insert(1.0, "a")
        queue.close()
        queue.close()
        queue.insert(2.0, "b")
        assert queue.pop() == (2.0, "b")

    def test_context_manager_closes(self):
        with make_queue(entries=8)[0] as queue:
            for v in range(40):
                queue.insert(float(v), None)
        assert len(queue) == 0


class TestRhoBoundaries:
    def test_far_inserts_spill_immediately(self):
        # boundary b1 = sqrt(32 * 1.0) ~ 5.66: distances beyond go to disk
        queue, _ = make_queue(entries=32, rho=1.0)
        queue.insert(100.0, None)
        assert queue.in_memory_size == 0
        assert queue.segment_count == 1
        queue.insert(1.0, None)
        assert queue.in_memory_size == 1

    def test_rho_mode_sorted_output(self):
        queue, _ = make_queue(entries=16, rho=0.5)
        values = [random.Random(7).uniform(0, 500) for _ in range(300)]
        for v in values:
            queue.insert(v, None)
        assert [queue.pop()[0] for _ in range(300)] == sorted(values)

    def test_huge_distances_go_to_tail_segment(self):
        queue, _ = make_queue(entries=8, rho=0.001)
        queue.insert(1e9, "far")
        queue.insert(2e9, "farther")
        assert queue.segment_count == 1  # both in the open-ended tail
        assert queue.pop() == (1e9, "far")

    @pytest.mark.parametrize("rho", [8e-15, 0.001])
    def test_overflowing_square_goes_to_tail_segment(self, rho):
        # 1e155 squared overflows to inf; with a tiny rho (a one-point
        # dataset floors its overlap at 1e-12) so does the quotient of
        # a far smaller distance.  Neither may reach int().
        queue, _ = make_queue(entries=8, rho=rho)
        queue.insert(1e155, "far")
        queue.insert(1e150, "near")
        assert queue.in_memory_size == 0
        assert queue.segment_count == 1  # both in the open-ended tail
        assert list(queue._formula_segments) == [MAX_FORMULA_SEGMENTS - 1]
        assert queue.pop() == (1e150, "near")
        assert queue.pop() == (1e155, "far")
        assert not queue


class TestCostAccounting:
    def test_spills_charge_io(self):
        queue, disk = make_queue(entries=8)
        for v in range(500):
            queue.insert(float(v), None)
        assert disk.stats.sequential_write_pages > 0

    def test_swap_ins_charge_reads(self):
        queue, disk = make_queue(entries=8)
        for v in range(100):
            queue.insert(float(v), None)
        before = disk.stats.sequential_read_pages
        for _ in range(100):
            queue.pop()
        assert disk.stats.sequential_read_pages > before

    def test_every_operation_charges_cpu(self):
        queue, disk = make_queue()
        queue.insert(1.0, None)
        queue.pop()
        assert disk.cpu_time > 0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.floats(min_value=0, max_value=1000, allow_nan=False)),
        max_size=400,
    ),
    st.sampled_from([None, 0.05, 2.0, 100.0]),
)
def test_interleaved_matches_reference_heap(ops, rho):
    queue, _ = make_queue(entries=8, rho=rho)
    model: list[float] = []
    for is_push, value in ops:
        if is_push or not model:
            queue.insert(value, None)
            heapq.heappush(model, value)
        else:
            assert queue.pop()[0] == heapq.heappop(model)
    assert len(queue) == len(model)
    while model:
        assert queue.pop()[0] == heapq.heappop(model)
