"""Outside-in per-layer spans for the benchmark's traced run.

``Recorder.install`` wraps each layer's public entry points from the
benchmark's side (nothing in ``src/`` changes) and adds a
``gc.callbacks`` hook.  Every call inside a unit (a setup repetition or
an op) becomes a span with a name, start, end, parent and unit id; a
generator entry point is timed across its iteration, one span per
resumption.  A span's *self* time is its duration minus its child spans
and GC pauses, so the self times of one unit add up to the unit's wall
time exactly.

Spans of the coarse entry points (units, tree builds and writes, arena
builds, compensation passes, gen-1/2 GC pauses) are kept one by one.
The fine ones run once per node expansion or per queue entry, millions
of times a run; they are folded per unit into (calls, total, self), so
that the trace's own memory neither swaps nor lengthens the GC pauses
it measures.  All of it lives in ``array`` buffers, which the collector
does not track, and is written out by ``dump`` when the run ends.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import statistics
from array import array
from time import perf_counter_ns

#: (module, class, attribute, layer) of every wrapped entry point.
ENTRY_POINTS = (
    ("repro.rtree.tree", "RTree", "bulk_load", "rtree.build"),
    ("repro.rtree.tree", "RTree", "insert", "rtree.write"),
    ("repro.rtree.tree", "RTree", "delete", "rtree.write"),
    ("repro.core.base", "JoinContext", "children_r", "storage.fetch"),
    ("repro.core.base", "JoinContext", "children_s", "storage.fetch"),
    ("repro.core.base", "JoinContext", "touch_r", "storage.fetch"),
    ("repro.core.base", "JoinContext", "touch_s", "storage.fetch"),
    ("repro.kernels.arena", "TreeArena", "__init__", "kernels.arena"),
    ("repro.core.stats", "Instruments", "mindist_batch", "kernels.batch"),
    ("repro.core.stats", "Instruments", "mindist_within", "kernels.batch"),
    ("repro.core.stats", "Instruments", "mindist_within_items", "kernels.batch"),
    ("repro.core.planesweep", "PlaneSweeper", "expand", "planesweep.expand"),
    ("repro.core.planesweep", "PlaneSweeper", "compensate", "planesweep.compensate"),
    ("repro.queues.main_queue", "MainQueue", "insert", "main_queue.push"),
    ("repro.queues.main_queue", "MainQueue", "push_many", "main_queue.push"),
    ("repro.queues.main_queue", "MainQueue", "pop", "main_queue.pop"),
    ("repro.queues.main_queue", "MainQueue", "pop_heads", "main_queue.pop"),
    ("repro.queues.main_queue", "MainQueue", "peek_head", "main_queue.pop"),
    ("repro.queues.main_queue", "MainQueue", "consume_head", "main_queue.pop"),
    ("repro.queues.main_queue", "MainQueue", "flush_heads", "main_queue.pop"),
    ("repro.queues.main_queue", "MainQueue", "peek_key", "main_queue.pop"),
    ("repro.queues.distance_queue", "DistanceQueue", "insert", "distance_queue.insert"),
    ("repro.queues.distance_queue", "DistanceQueue", "push_many", "distance_queue.insert"),
    ("repro.queues.compensation", "CompensationQueue", "enqueue", "compensation.enqueue"),
    ("repro.queues.external_sort", "ExternalSorter", "sort", "external_sort.sort"),
)
#: Layers whose spans are kept one by one (the rest are folded per unit).
RAW_LAYERS = {"unit", "rtree.build", "rtree.write", "kernels.arena",
              "planesweep.compensate", "gc.gen1", "gc.gen2"}
ITERATING = {"external_sort.sort"}
UNIT, GC_GEN0, GC_GEN1, GC_GEN2 = 0, 1, 2, 3
FIELDS = 5  # name id, start ns, end ns, parent span, unit

_FIXED_ARITY = """
def wrapper({params}):
    if not live[0]:
        return fn({params})
    enter(nid)
    try:
        return fn({params})
    finally:
        leave()
"""


class Recorder:
    """Span recorder for one traced run."""

    def __init__(self, units: int, setup_reps: int) -> None:
        self.names = ["unit", "gc.gen0", "gc.gen1", "gc.gen2"]
        self.layers = ["unit", "gc", "gc", "gc"]
        for _, cls, attr, layer in ENTRY_POINTS:
            self.names.append(f"{cls}.{attr}")
            self.layers.append(layer)
        self.setup_reps = setup_reps
        self._installed: list = []
        n = len(self.names)
        size = (units + setup_reps) * n
        calls = array("q", bytes(8 * size))
        total = array("q", bytes(8 * size))
        selfs = array("q", bytes(8 * size))
        self.calls, self.total, self.selfs = calls, total, selfs
        spans = array("q")
        self.spans = spans
        # state[0]: live flag, [1]: base index of the open unit, [2]: unit id,
        # [3]: start of the running GC pause (0 when none).
        state = [False, 0, 0, 0]
        self._state = state
        stk_nid, stk_start = array("q"), array("q")
        stk_child, stk_span = array("q"), array("q")
        raw_stack = array("q")
        raw_ids = array("b", [1 if layer in RAW_LAYERS or name in RAW_LAYERS else 0
                              for name, layer in zip(self.names, self.layers)])

        def enter(nid):
            stk_nid.append(nid)
            stk_child.append(0)
            if raw_ids[nid]:
                index = len(spans) // FIELDS
                spans.extend((nid, 0, 0, raw_stack[-1] if raw_stack else -1, state[2]))
                raw_stack.append(index)
                stk_span.append(index)
                start = perf_counter_ns()
                spans[index * FIELDS + 1] = start
                stk_start.append(start)
            else:
                stk_span.append(-1)
                stk_start.append(perf_counter_ns())

        def leave():
            end = perf_counter_ns()
            nid = stk_nid.pop()
            duration = end - stk_start.pop()
            child = stk_child.pop()
            span = stk_span.pop()
            if stk_child:
                stk_child[-1] += duration
            i = state[1] + nid
            calls[i] += 1
            total[i] += duration
            selfs[i] += duration - child
            if span >= 0:
                spans[span * FIELDS + 2] = end
                raw_stack.pop()

        def on_gc(phase, info):
            if not state[0]:
                return
            if phase == "start":
                state[3] = perf_counter_ns()
                return
            started = state[3]
            if not started:
                return
            state[3] = 0
            end = perf_counter_ns()
            duration = end - started
            if stk_child:
                stk_child[-1] += duration
            nid = GC_GEN0 + min(info["generation"], 2)
            i = state[1] + nid
            calls[i] += 1
            total[i] += duration
            selfs[i] += duration
            if raw_ids[nid]:
                spans.extend((nid, started, end, raw_stack[-1] if raw_stack else -1, state[2]))

        self._enter, self._leave, self._on_gc = enter, leave, on_gc

    # -- units ----------------------------------------------------------

    def open_unit(self, unit: int) -> None:
        index = unit + self.setup_reps
        n = len(self.names)
        grow = (index + 1) * n - len(self.calls)
        if grow > 0:
            for buf in (self.calls, self.total, self.selfs):
                buf.extend(array("q", bytes(8 * grow)))
        state = self._state
        state[1] = index * n
        state[2] = unit
        state[0] = True
        self._enter(UNIT)

    def close_unit(self) -> None:
        self._leave()
        self._state[0] = False

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point and hook the collector."""
        for module, cls_name, attr, layer in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            nid = self.names.index(f"{cls_name}.{attr}")
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, nid, layer))
            else:
                wrapped = self._wrap(original, nid, layer)
            setattr(cls, attr, wrapped)
            self._installed.append((cls, attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._installed):
            setattr(cls, attr, original)
        self._installed.clear()
        gc.callbacks.remove(self._on_gc)

    def _wrap(self, fn, nid: int, layer: str):
        enter, leave, live = self._enter, self._leave, self._state
        if layer in ITERATING:
            def iterate(iterator):
                iterator = iter(iterator)
                while True:
                    timed = live[0]
                    if timed:
                        enter(nid)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        if timed:
                            leave()
                    yield item

            def wrapper(*args, **kwargs):
                if not live[0]:
                    return fn(*args, **kwargs)
                enter(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    leave()
                return iterate(out)
        else:
            params = inspect.signature(fn).parameters.values()
            if all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
                   for p in params):
                # Same parameter names, no *args tuple: the wrapper adds no
                # allocation the collector counts.
                names = ", ".join(p.name for p in params)
                scope = {"fn": fn, "enter": enter, "leave": leave,
                         "live": live, "nid": nid}
                exec(_FIXED_ARITY.format(params=names), scope)
                wrapper = scope["wrapper"]
            else:
                def wrapper(*args, **kwargs):
                    if not live[0]:
                        return fn(*args, **kwargs)
                    enter(nid)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        leave()
        return functools.update_wrapper(wrapper, fn)

    # -- results ------------------------------------------------------------

    def _sum(self, buf, units, layer=None, name=None) -> int:
        n = len(self.names)
        ids = [i for i in range(n)
               if (layer is None or self.layers[i] == layer)
               and (name is None or self.names[i] == name)]
        return sum(buf[(u + self.setup_reps) * n + i] for u in units for i in ids)

    def layer_metrics(self, units: list[int], unit_stats: dict, settle_s: float) -> dict:
        """Per-layer metrics over ``units`` (the median setup rep plus every op).

        ``settle_s`` is the time of the untimed full collections run
        before the ops, reported beside the pauses inside them.
        """
        ns = 1e-9

        def self_s(layer):
            return self._sum(self.selfs, units, layer=layer) * ns

        def calls(layer=None, name=None):
            return self._sum(self.calls, units, layer=layer, name=name)

        stats = [s for u in units for s in unit_stats.get(u, [])]

        def total(field):
            return sum(getattr(s, field) for s in stats)

        def extra(key):
            return sum(s.extra.get(key, 0.0) for s in stats)

        def ratio(num, den):
            return num / den if den else 0.0

        occupancy = []
        for s in stats:
            gauges = [v for k, v in s.extra.items()
                      if k.startswith("obs.shm.occupancy.w") and isinstance(v, float)]
            if gauges:
                occupancy.append(statistics.fmean(gauges))
        reads, accesses = total("node_accesses"), total("node_accesses_unbuffered")
        insertions, real = total("queue_insertions"), total("real_distance_computations")
        pops = calls(name="MainQueue.pop") + calls(name="MainQueue.consume_head")
        hits = extra("kernels.plan_cache_hits")
        lookups = hits + extra("kernels.plan_cache_misses")
        m = {
            "rtree.build_s": (self_s("rtree.build"), "s"),
            "rtree.write_s": (self_s("rtree.write"), "s"),
            "rtree.writes": (calls("rtree.write"), "count"),
            "storage.fetch_s": (self_s("storage.fetch"), "s"),
            "storage.node_reads": (reads, "count"),
            "storage.node_accesses": (accesses, "count"),
            "storage.buffer_hit_ratio": (ratio(accesses - reads, accesses), "ratio"),
            "sim.io_s": (total("io_time"), "s"),
            "kernels.arena_s": (self_s("kernels.arena"), "s"),
            "kernels.arena_builds": (calls("kernels.arena"), "count"),
            "kernels.batch_s": (self_s("kernels.batch"), "s"),
            "kernels.batches": (extra("kernels.batches"), "count"),
            "kernels.batched_pairs": (extra("kernels.batched_pairs"), "count"),
            "kernels.plan_cache_hit_ratio": (ratio(hits, lookups), "ratio"),
            "planesweep.expand_s": (self_s("planesweep.expand"), "s"),
            "planesweep.compensate_s": (self_s("planesweep.compensate"), "s"),
            "planesweep.expansions": (calls("planesweep.expand"), "count"),
            "planesweep.real_distances": (real, "count"),
            "planesweep.axis_distances": (total("axis_distance_computations"), "count"),
            "planesweep.pass_ratio": (ratio(insertions, real), "ratio"),
            "sim.cpu_s": (total("cpu_time"), "s"),
            "main_queue.push_s": (self_s("main_queue.push"), "s"),
            "main_queue.pop_s": (self_s("main_queue.pop"), "s"),
            "main_queue.insertions": (insertions, "count"),
            "main_queue.pops": (pops, "count"),
            "main_queue.pop_ratio": (ratio(pops, insertions), "ratio"),
            "main_queue.spilled_entries": (total("queue_spilled_entries"), "count"),
            "main_queue.splits": (total("queue_splits"), "count"),
            "main_queue.swap_ins": (total("queue_swap_ins"), "count"),
            "main_queue.peak_size": (max((s.queue_peak_size for s in stats), default=0), "count"),
            "distance_queue.insert_s": (self_s("distance_queue.insert"), "s"),
            "distance_queue.insertions": (total("distance_queue_insertions"), "count"),
            "compensation.enqueue_s": (self_s("compensation.enqueue"), "s"),
            "compensation.stages": (total("compensation_stages"), "count"),
            "compensation.peak": (max((s.compensation_peak for s in stats), default=0), "count"),
            "external_sort.sort_s": (self_s("external_sort.sort"), "s"),
            "engine.self_s": (self_s("unit"), "s"),
            "parallel.occupancy": (statistics.fmean(occupancy) if occupancy else 0.0, "ratio"),
            "parallel.tasks": (extra("obs.shm.tasks"), "count"),
            "parallel.steals": (extra("obs.shm.steals"), "count"),
            "gc.pause_s": (self_s("gc"), "s"),
            "gc.gen2_collections": (calls(name="gc.gen2"), "count"),
            "gc.settle_s": (settle_s, "s"),
        }
        return {name: {"value": float(v), "unit": u} for name, (v, u) in m.items()}

    def dump(self, path: str, record: dict) -> None:
        """Write the kept spans and the per-unit folds as JSON."""
        n = len(self.names)
        folded = []
        for index in range(len(self.calls) // n):
            for nid in range(n):
                i = index * n + nid
                if self.calls[i]:
                    folded.append([index - self.setup_reps, self.names[nid],
                                   self.calls[i], self.total[i], self.selfs[i]])
        spans = self.spans
        out = {
            "workload": record["workload"],
            "seed": record["seed"],
            "names": self.names,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "unit"],
            "spans": [list(spans[i : i + FIELDS]) for i in range(0, len(spans), FIELDS)],
            "folded_fields": ["unit", "name", "calls", "total_ns", "self_ns"],
            "folded": folded,
        }
        with open(path, "w") as handle:
            json.dump(out, handle)
