"""Unit tests for small core building blocks: items, payloads, nodes,
instrumentation."""

import math

import pytest

from repro.core.pairs import OBJECT_LEVEL, Item, PairPayload, ResultPair
from repro.core.stats import Instruments, JoinStats
from repro.geometry.rect import Rect
from repro.rtree.node import Node
from repro.rtree.tree import RTree, TreeAccessor
from repro.storage import serial
from repro.storage.disk import SimulatedDisk


class TestItem:
    def test_object_item(self):
        item = Item.object(Rect(0, 0, 1, 1), 42)
        assert item.is_object
        assert item.ref == 42

    def test_node_item(self):
        item = Item.node(Rect(0, 0, 1, 1), 7, level=2)
        assert not item.is_object
        assert item.level == 2

    def test_negative_node_level_rejected(self):
        with pytest.raises(ValueError):
            Item.node(Rect(0, 0, 1, 1), 7, level=-1)

    def test_payload_object_pair_detection(self):
        obj = Item.object(Rect(0, 0, 1, 1), 1)
        node = Item.node(Rect(0, 0, 1, 1), 2, 0)
        assert PairPayload(obj, obj).is_object_pair
        assert not PairPayload(obj, node).is_object_pair
        assert not PairPayload(node, node).is_object_pair

    def test_result_pair_is_named_tuple(self):
        pair = ResultPair(1.5, 3, 4)
        distance, r, s = pair
        assert (distance, r, s) == (1.5, 3, 4)
        assert pair.distance == 1.5 and pair.ref_r == 3 and pair.ref_s == 4


class TestNode:
    def _node(self) -> Node:
        return Node(
            page_id=9,
            level=1,
            entries=[Item(Rect(0, 0, 1, 1), 10, 0), Item(Rect(2, 2, 3, 3), 11, 0)],
        )

    def test_mbr(self):
        assert self._node().mbr() == Rect(0, 0, 3, 3)

    def test_mbr_of_empty_raises(self):
        with pytest.raises(ValueError):
            Node(page_id=1, level=0).mbr()

    def test_entry_for(self):
        node = self._node()
        assert node.entry_for(11).rect == Rect(2, 2, 3, 3)
        with pytest.raises(KeyError):
            node.entry_for(99)

    def test_remove_ref(self):
        node = self._node()
        removed = node.remove_ref(10)
        assert removed.ref == 10 and len(node) == 1
        with pytest.raises(KeyError):
            node.remove_ref(10)

    def test_replace_entry(self):
        node = self._node()
        node.replace_entry(10, Item(Rect(5, 5, 6, 6), 10, 0))
        assert node.entry_for(10).rect == Rect(5, 5, 6, 6)
        with pytest.raises(KeyError):
            node.replace_entry(99, Item(Rect(0, 0, 1, 1), 99, 0))

    def test_is_leaf(self):
        assert Node(page_id=1, level=0).is_leaf
        assert not Node(page_id=1, level=1).is_leaf

    def test_item_points_at_the_node(self):
        node = self._node()
        assert node.item() == Item(Rect(0, 0, 3, 3), 9, 1)


class TestEntrySerialization:
    def test_record_roundtrip(self):
        # A page decodes into the node's own entry type, each entry one
        # level below its node: objects in a leaf, child nodes above.
        for level, entry_level in ((0, OBJECT_LEVEL), (2, 1)):
            entries = [
                Item(Rect(1.5, -2.0, 3.25, 0.0), 77, entry_level),
                Item(Rect(-1e300, 5e-324, 0.0, 1e300), 3, entry_level),
            ]
            records = [(*e.rect.as_tuple(), e.ref) for e in entries]
            page = serial.pack_node(level, records, 4096)
            assert Node.decode(12, page) == Node(12, level, entries)


class TestInstruments:
    def _instruments(self):
        disk = SimulatedDisk()
        tree = RTree.bulk_load([(Rect(0, 0, 1, 1), 0)])
        acc = TreeAccessor(tree, disk, 4096)
        return Instruments(disk, acc, acc), disk

    def test_real_distance_counts_and_charges(self):
        instr, disk = self._instruments()
        d = instr.real_distance(Rect(0, 0, 1, 1), Rect(4, 0, 5, 1))
        assert d == 3.0
        assert instr.real_distance_computations == 1
        assert disk.cpu_time > 0

    def test_axis_distance_counts(self):
        instr, _ = self._instruments()
        assert instr.axis_dist(Rect(0, 0, 1, 1), Rect(4, 0, 5, 1), 0) == 3.0
        instr.count_axis(5)
        assert instr.axis_distance_computations == 6

    def test_charge_sort_noop_for_tiny(self):
        instr, disk = self._instruments()
        before = disk.cpu_time
        instr.charge_sort(1)
        assert disk.cpu_time == before
        instr.charge_sort(100)
        assert disk.cpu_time > before

    def test_fill_snapshot(self):
        instr, disk = self._instruments()
        instr.real_distance(Rect(0, 0, 1, 1), Rect(2, 0, 3, 1))
        instr.accessor_r.get(instr.accessor_r.tree.root_id)
        stats = JoinStats()
        instr.fill(stats)
        assert stats.real_distance_computations == 1
        # the same accessor serves both sides here, so it is counted twice
        assert stats.node_accesses == 2
        assert stats.node_accesses_unbuffered == 2
        assert math.isclose(stats.response_time, disk.clock)


class TestJoinStatsHelpers:
    def test_as_row_keys(self):
        row = JoinStats(algorithm="x", k=3).as_row()
        assert set(row) >= {"algorithm", "k", "dist_comps", "response_time"}

    def test_as_row_covers_queue_and_adaptive_fields(self):
        row = JoinStats(
            distance_queue_insertions=7,
            queue_peak_size=40,
            queue_splits=2,
            queue_swap_ins=3,
            queue_spilled_entries=100,
            compensation_stages=1,
            compensation_peak=9,
            edmax_initial=12.5,
        ).as_row()
        assert row["distance_queue_insertions"] == 7
        assert row["queue_peak_size"] == 40
        assert row["queue_splits"] == 2
        assert row["queue_swap_ins"] == 3
        assert row["queue_spilled_entries"] == 100
        assert row["compensation_stages"] == 1
        assert row["compensation_peak"] == 9
        assert row["edmax_initial"] == 12.5

    def test_extra_dict_isolated(self):
        a, b = JoinStats(), JoinStats()
        a.extra["x"] = 1.0
        assert "x" not in b.extra

    def test_merge_sums_counters_and_maxes_peaks(self):
        a = JoinStats(results=3, queue_splits=1, queue_peak_size=10,
                      compensation_peak=5, wall_time=1.0, edmax_initial=2.0)
        b = JoinStats(results=4, queue_splits=2, queue_peak_size=7,
                      compensation_peak=9, wall_time=0.5, edmax_initial=3.0)
        a.merge(b)
        assert a.results == 7
        assert a.queue_splits == 3
        assert a.queue_peak_size == 10
        assert a.compensation_peak == 9
        assert a.wall_time == 1.0
        assert a.edmax_initial == 3.0

    def test_merge_into_fresh_record(self):
        fresh = JoinStats(algorithm="parallel-amkdj", k=5)
        worker = JoinStats(algorithm="amkdj", k=5, results=5,
                           real_distance_computations=100, queue_insertions=50)
        worker.extra["obs.result_distance.count"] = 5.0
        fresh.merge(worker)
        assert fresh.algorithm == "parallel-amkdj"  # keeps its own identity
        assert fresh.results == 5
        assert fresh.real_distance_computations == 100
        assert fresh.extra["obs.result_distance.count"] == 5.0

    def test_merge_zero_activity_worker_is_identity(self):
        total = JoinStats(results=9, real_distance_computations=42,
                          queue_peak_size=6, wall_time=2.0)
        total.extra["obs.queue_depth.sum"] = 17.0
        before = dict(total.as_row())
        before_extra = dict(total.extra)
        total.merge(JoinStats())  # a worker whose partition was empty
        assert total.as_row() == before
        assert total.extra == before_extra

    def test_merge_mixed_type_extras(self):
        a = JoinStats()
        a.extra.update({"count": 2.0, "mode": "thread"})
        b = JoinStats()
        b.extra.update({"count": 3.0, "mode": "process", "only_b": 1.0})
        a.merge(b)
        assert a.extra["count"] == 5.0          # numeric: summed
        assert a.extra["mode"] == "process"     # label: other wins
        assert a.extra["only_b"] == 1.0
        # numeric-vs-string conflict: the other record's value replaces
        c = JoinStats()
        c.extra["x"] = 1.0
        d = JoinStats()
        d.extra["x"] = "label"
        c.merge(d)
        assert c.extra["x"] == "label"
