"""Tests for the observability subsystem (repro.obs) and its wiring.

Covers the tracer/sink/metrics primitives, the trace report renderer,
the engine integration (spans + events land in real runs, sequential and
parallel), and the CLI surface (``join --trace/--json``, ``trace``).
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core.api import JoinConfig, JoinRunner, k_distance_join
from repro.core.stats import JoinStats
from repro.obs.metrics import (
    GAUGE_KEY_SUFFIX,
    Histogram,
    MetricsRegistry,
    histogram_names,
    snapshot_percentiles,
)
from repro.obs.report import collect_spans, load_trace, render_report
from repro.obs.sinks import ChromeTraceSink, CollectSink, JsonlSink, open_sink
from repro.obs.tracer import NULL_TRACER, Tracer


# ----------------------------------------------------------------------
# Tracer primitives
# ----------------------------------------------------------------------


class TestTracer:
    def test_null_tracer_is_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.begin("x", a=1)
        NULL_TRACER.end("x")
        NULL_TRACER.event("y")
        NULL_TRACER.counter("z", v=1.0)
        batch = NULL_TRACER.batcher("b")
        batch.tick(children=3)
        batch.flush()
        with NULL_TRACER.span("s"):
            pass
        NULL_TRACER.close()  # all no-ops, nothing raised

    def test_records_have_normalized_shape(self):
        sink = CollectSink()
        tracer = Tracer([sink])
        tracer.begin("join:x", k=5)
        tracer.event("edmax", old=math.inf, new=3.0, actual=math.inf)
        tracer.counter("stage:one", dist_comps=10.0)
        tracer.end("join:x", results=5)
        tracer.close()
        phases = [record["ph"] for record in sink.records]
        assert phases == ["B", "i", "C", "E"]
        for record in sink.records:
            assert record["track"] == 0
            assert record["ts"] >= 0.0
        assert sink.records[1]["args"]["new"] == 3.0

    def test_timestamps_monotonic(self):
        sink = CollectSink()
        tracer = Tracer([sink])
        for i in range(5):
            tracer.event(f"e{i}")
        stamps = [record["ts"] for record in sink.records]
        assert stamps == sorted(stamps)

    def test_span_context_manager_nests(self):
        sink = CollectSink()
        tracer = Tracer([sink])
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [(r["ph"], r["name"]) for r in sink.records]
        assert names == [("B", "outer"), ("B", "inner"),
                         ("E", "inner"), ("E", "outer")]

    def test_batcher_flushes_every_n_and_sums(self):
        sink = CollectSink()
        tracer = Tracer([sink])
        batch = tracer.batcher("expand", every=3)
        for _ in range(7):
            batch.tick(children=2)
        batch.flush()
        spans = [r for r in sink.records if r["ph"] == "X"]
        assert [s["args"]["count"] for s in spans] == [3, 3, 1]
        assert [s["args"]["children"] for s in spans] == [6.0, 6.0, 2.0]
        assert all(s["dur"] >= 0.0 for s in spans)

    def test_batcher_flush_empty_is_noop(self):
        sink = CollectSink()
        Tracer([sink]).batcher("expand").flush()
        assert sink.records == []

    def test_close_idempotent(self, tmp_path):
        tracer = Tracer([JsonlSink(tmp_path / "t.jsonl")])
        tracer.event("x")
        tracer.close()
        tracer.close()


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------


class TestSinks:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer([JsonlSink(path)])
        tracer.begin("join:x", k=3)
        tracer.event("edmax", old=math.inf, new=1.5)
        tracer.end("join:x")
        tracer.close()
        records = load_trace(path)
        assert [r["ph"] for r in records] == ["B", "i", "E"]
        # inf is not valid JSON; it survives as its repr
        assert records[1]["args"]["old"] == "inf"
        assert records[1]["args"]["new"] == 1.5

    def test_chrome_trace_document(self, tmp_path):
        path = tmp_path / "trace.json"
        tracer = Tracer([ChromeTraceSink(path)])
        tracer.begin("join:x")
        tracer.complete("expand", tracer.now(), 0.001, count=4)
        tracer.event("qdmax", old=9.0, new=8.0)
        tracer.end("join:x")
        tracer.close()
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"
        metadata = [e for e in events if e["ph"] == "M"]
        assert metadata and metadata[0]["args"]["name"] == "main"
        complete = next(e for e in events if e["ph"] == "X")
        assert complete["dur"] == pytest.approx(1000.0)  # seconds -> us
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"
        assert all(e.get("pid", 0) == 0 for e in events)

    def test_open_sink_inference(self, tmp_path):
        assert isinstance(open_sink(tmp_path / "a.json"), ChromeTraceSink)
        assert isinstance(open_sink(tmp_path / "a.jsonl"), JsonlSink)
        assert isinstance(open_sink(tmp_path / "a.trace"), JsonlSink)
        assert isinstance(
            open_sink(tmp_path / "b.jsonl", fmt="chrome"), ChromeTraceSink
        )
        with pytest.raises(ValueError, match="unknown trace format"):
            open_sink(tmp_path / "a.jsonl", fmt="xml")

    def test_load_trace_rejects_bad_jsonl(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ts": 0, "ph": "i", "name": "x", "track": 0}\nnot json\n')
        with pytest.raises(ValueError, match="2: not valid JSONL"):
            load_trace(path)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("spills").inc()
        registry.counter("spills").inc(2.0)
        registry.gauge("delta").set(4.5)
        snap = registry.snapshot()
        assert snap["obs.spills"] == 3.0
        # gauges export under the merge marker so JoinStats.merge maxes
        # them instead of summing point-in-time readings
        assert snap[f"obs.delta{GAUGE_KEY_SUFFIX}"] == 4.5

    def test_histogram_buckets_and_edges(self):
        hist = Histogram("d")
        for value in (0.75, 1.5, 3.0, 0.0, -1.0, math.inf):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["d.count"] == 6.0
        assert snap["d.le_zero"] == 3.0  # zero, negative, non-finite
        assert snap["d.bucket_e0"] == 1.0  # 0.75 in [0.5, 1)
        assert snap["d.bucket_e1"] == 1.0  # 1.5 in [1, 2)
        assert snap["d.bucket_e2"] == 1.0  # 3.0 in [2, 4)
        assert hist.mean == pytest.approx(snap["d.sum"] / 6.0)

    def test_registry_type_conflict(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.histogram("x")

    def test_snapshots_merge_exactly_via_joinstats(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry, values in ((a, [1.0, 8.0]), (b, [2.0, 8.5])):
            hist = registry.histogram("result_distance")
            for value in values:
                hist.observe(value)
        stats_a, stats_b = JoinStats(), JoinStats()
        stats_a.extra.update(a.snapshot())
        stats_b.extra.update(b.snapshot())
        stats_a.merge(stats_b)
        combined = MetricsRegistry()
        hist = combined.histogram("result_distance")
        for value in (1.0, 8.0, 2.0, 8.5):
            hist.observe(value)
        assert stats_a.extra == combined.snapshot()

    def test_gauge_snapshots_merge_as_max_not_sum(self):
        # Regression: gauges are point-in-time readings — two workers at
        # queue depth 7 and 3 have a peak of 7, not a "total" of 10.
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("shm.queue_depth").set(7.0)
        b.gauge("shm.queue_depth").set(3.0)
        a.counter("shm.tasks").inc(2.0)
        b.counter("shm.tasks").inc(5.0)
        stats_a, stats_b = JoinStats(), JoinStats()
        stats_a.extra.update(a.snapshot())
        stats_b.extra.update(b.snapshot())
        stats_a.merge(stats_b)
        key = f"obs.shm.queue_depth{GAUGE_KEY_SUFFIX}"
        assert stats_a.extra[key] == 7.0  # maxed
        assert stats_a.extra["obs.shm.tasks"] == 7.0  # summed

    def test_gauge_key_carries_merge_marker(self):
        registry = MetricsRegistry()
        registry.gauge("occupancy").set(0.5)
        snap = registry.snapshot()
        assert f"obs.occupancy{GAUGE_KEY_SUFFIX}" in snap
        assert "obs.occupancy" not in snap

    def test_histogram_percentiles_interpolate_buckets(self):
        hist = Histogram("d")
        for _ in range(100):
            hist.observe(1.5)  # all mass in [1, 2)
        assert 1.0 <= hist.percentile(0.5) <= 2.0
        assert 1.0 <= hist.percentile(0.99) <= 2.0
        assert hist.percentile(0.5) <= hist.percentile(0.99)
        ps = hist.percentiles()
        assert set(ps) == {"p50", "p95", "p99"}

    def test_histogram_percentile_edge_cases(self):
        empty = Histogram("e")
        assert empty.percentile(0.5) == 0.0
        zeros = Histogram("z")
        for _ in range(10):
            zeros.observe(0.0)
        assert zeros.percentile(0.5) == 0.0

    def test_snapshot_percentiles_from_flat_extras(self):
        registry = MetricsRegistry()
        hist = registry.histogram("result_distance")
        for value in (0.0, 1.5, 1.5, 3.0):
            hist.observe(value)
        extra = registry.snapshot()
        ps = snapshot_percentiles(extra, "obs.result_distance")
        assert ps is not None
        assert ps["p50"] <= ps["p95"] <= ps["p99"]
        assert ps["p99"] <= 4.0  # inside the top bucket [2, 4)
        assert snapshot_percentiles(extra, "obs.missing") is None
        assert histogram_names(extra) == ["obs.result_distance"]


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------


def _run_traced(tmp_path, trees, algorithm, k=40, suffix="jsonl", **config):
    path = tmp_path / f"{algorithm}.{suffix}"
    tree_r, tree_s = trees
    cfg = JoinConfig(trace_path=str(path), **config)
    result = JoinRunner(tree_r, tree_s, cfg).kdj(k, algorithm)
    return result, load_trace(path)


class TestEngineTraces:
    def test_amkdj_trace_has_stages_and_edmax(self, tmp_path, small_trees):
        result, records = _run_traced(tmp_path, small_trees, "amkdj")
        names = {r["name"] for r in records}
        assert {"join:amkdj", "stage:aggressive"} <= names
        edmax_events = [r for r in records if r["name"] == "edmax"]
        assert edmax_events and edmax_events[0]["args"]["reason"] == "init"
        spans = collect_spans(records)
        join_span = next(s for s in spans if s.name == "join:amkdj")
        for span in spans:
            assert join_span.start <= span.start
            assert span.end <= join_span.end
        # tracing implies metrics: the distance histogram reaches extras
        assert result.stats.extra["obs.result_distance.count"] == len(result)

    def test_bkdj_and_hs_traces(self, tmp_path, small_trees):
        for algorithm, join_name in (("bkdj", "join:bkdj"), ("hs", "join:hs-kdj")):
            _, records = _run_traced(tmp_path, small_trees, algorithm)
            names = {r["name"] for r in records}
            assert {join_name, "stage:traversal"} <= names
            # spans closed in order: every B has a matching E
            begins = sum(1 for r in records if r["ph"] == "B")
            ends = sum(1 for r in records if r["ph"] == "E")
            assert begins == ends

    def test_sjsort_and_nlj_traces(self, tmp_path, small_trees):
        _, records = _run_traced(tmp_path, small_trees, "sjsort")
        assert "join:within" in {r["name"] for r in records}
        _, records = _run_traced(tmp_path, small_trees, "nlj")
        assert "join:nlj" in {r["name"] for r in records}

    def test_amidj_stream_closes_spans_on_abandon(self, tmp_path, small_trees):
        tree_r, tree_s = small_trees
        path = tmp_path / "amidj.jsonl"
        config = JoinConfig(trace_path=str(path), initial_k=16)
        stream = JoinRunner(tree_r, tree_s, config).idj("amidj")
        batch = stream.next_batch(10)
        assert len(batch) == 10
        stream.close()
        records = load_trace(path)
        names = {r["name"] for r in records}
        assert "join:amidj" in names
        assert any(name.startswith("stage:") for name in names)
        begins = sum(1 for r in records if r["ph"] == "B")
        ends = sum(1 for r in records if r["ph"] == "E")
        assert begins == ends  # abandoned stream still nests

    def test_queue_events_surface_under_pressure(self, tmp_path, small_trees):
        # A tiny queue memory forces page spills on this workload.
        _, records = _run_traced(
            tmp_path, small_trees, "bkdj", k=200,
            queue_memory=2 * 1024, model_queue_boundaries=False,
        )
        names = {r["name"] for r in records}
        assert "queue_spill" in names or "queue_split" in names

    def test_stage_counters_attribute_work(self, tmp_path, small_trees):
        result, records = _run_traced(tmp_path, small_trees, "amkdj")
        counters = [r for r in records
                    if r["ph"] == "C" and "dist_comps" in r["args"]]
        assert counters, "expected per-stage counter events"
        total = sum(c["args"]["dist_comps"] for c in counters)
        assert total == result.stats.real_distance_computations
        assert result.stats.extra["obs.stage.aggressive.dist_comps"] >= 0

    def test_disabled_tracing_keeps_extras_empty(self, small_trees):
        tree_r, tree_s = small_trees
        result = JoinRunner(tree_r, tree_s, JoinConfig()).kdj(20, "amkdj")
        assert not any(key.startswith("obs.") for key in result.stats.extra)

    def test_collect_metrics_without_tracing(self, small_trees):
        tree_r, tree_s = small_trees
        cfg = JoinConfig(collect_metrics=True)
        result = JoinRunner(tree_r, tree_s, cfg).kdj(20, "amkdj")
        assert result.stats.extra["obs.result_distance.count"] == 20.0


class TestParallelTraces:
    def test_stages_nest_in_the_join_span(self, tmp_path, small_trees):
        tree_r, tree_s = small_trees
        path = tmp_path / "par.jsonl"
        cfg = JoinConfig(parallel=3, parallel_mode="shm-serial",
                         trace_path=str(path))
        result = k_distance_join(tree_r, tree_s, 30, config=cfg)
        records = load_trace(path)
        # The engine's workers do not trace: one track, the parent's.
        assert {r["track"] for r in records} == {0}
        spans = collect_spans(records)
        parent = next(s for s in spans if s.name == "join:parallel-amkdj")
        stages = [s for s in spans if s.name.startswith("stage:parallel-")]
        assert len(stages) == result.stats.extra["parallel_stages"]
        for span in stages:
            assert parent.start <= span.start <= span.end <= parent.end
        sequential = k_distance_join(tree_r, tree_s, 30)
        assert [p.distance for p in result] == [p.distance for p in sequential]


# ----------------------------------------------------------------------
# Report rendering
# ----------------------------------------------------------------------


class TestReport:
    def test_render_report_sections(self, tmp_path, small_trees):
        path = tmp_path / "run.jsonl"
        tree_r, tree_s = small_trees
        JoinRunner(tree_r, tree_s, JoinConfig(trace_path=str(path))).kdj(
            40, "amkdj"
        )
        report = render_report(path)
        assert "stage timeline" in report
        assert "join:amkdj" in report
        assert "eDmax updates" in report
        assert "point events" in report

    def test_render_report_reads_chrome_format(self, tmp_path, small_trees):
        path = tmp_path / "run.json"
        tree_r, tree_s = small_trees
        JoinRunner(tree_r, tree_s, JoinConfig(trace_path=str(path))).kdj(
            40, "amkdj"
        )
        report = render_report(path)
        assert "stage timeline" in report
        assert "stage:aggressive" in report

    def test_collect_spans_closes_truncated_trace(self):
        records = [
            {"ts": 0.0, "ph": "B", "name": "join:x", "track": 0, "args": {}},
            {"ts": 1.0, "ph": "i", "name": "edmax", "track": 0, "args": {}},
        ]
        (span,) = collect_spans(records)
        assert span.end == 1.0  # closed at the last timestamp seen

    def test_empty_trace_renders(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        report = render_report(path)
        assert "no spans recorded" in report
        assert "no final metrics snapshot" in report

    def test_truncated_trace_raises_with_line_number(self, tmp_path):
        # A crash mid-write leaves a cut-off last line; the renderer
        # must point at it instead of silently dropping records.
        path = tmp_path / "cut.jsonl"
        path.write_text(
            '{"ts": 0.0, "ph": "B", "name": "join:x", "track": 0, "args": {}}\n'
            '{"ts": 1.0, "ph": "E", "na'
        )
        with pytest.raises(ValueError, match="2: not valid JSONL"):
            render_report(path)

    def test_mixed_format_sniffed_by_content(self, tmp_path):
        # Chrome-format content behind a .jsonl name: load_trace sniffs
        # the document, not the extension.
        path = tmp_path / "mislabeled.jsonl"
        path.write_text(json.dumps({
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"ts": 0.0, "ph": "B", "name": "join:x", "pid": 0,
                 "tid": 0, "args": {}},
                {"ts": 5_000_000.0, "ph": "E", "name": "join:x", "pid": 0,
                 "tid": 0, "args": {}},
            ],
        }))
        report = render_report(path)
        assert "join:x" in report
        assert "stage timeline" in report

    def test_distributions_section_from_final_metrics(self, tmp_path, small_trees):
        path = tmp_path / "dist.jsonl"
        tree_r, tree_s = small_trees
        JoinRunner(tree_r, tree_s, JoinConfig(trace_path=str(path))).kdj(
            40, "amkdj"
        )
        report = render_report(path)
        assert "distributions" in report
        assert "obs.result_distance" in report
        assert "p99" in report


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    from repro.__main__ import main

    out = tmp_path_factory.mktemp("cli")
    code = main(["generate", "--streets", "400", "--hydro", "200",
                 "--out", str(out)])
    assert code == 0
    return out


class TestCli:
    def test_join_trace_and_json(self, cli_dataset, capsys):
        from repro.__main__ import main

        trace_path = cli_dataset / "run.jsonl"
        code = main([
            "join", str(cli_dataset / "streets.rt"),
            str(cli_dataset / "hydro.rt"),
            "-k", "50", "-a", "amkdj",
            "--trace", str(trace_path), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["algorithm"] == "amkdj"
        assert payload["stats"]["results"] == 50
        assert len(payload["results"]) == 20  # default --show
        assert payload["stats"]["extra"]["obs.result_distance.count"] == 50.0
        # every line of the trace file is valid JSON
        records = load_trace(trace_path)
        assert {"join:amkdj", "edmax"} <= {r["name"] for r in records}

    def test_trace_command_renders(self, cli_dataset, capsys):
        from repro.__main__ import main

        trace_path = cli_dataset / "run2.jsonl"
        main([
            "join", str(cli_dataset / "streets.rt"),
            str(cli_dataset / "hydro.rt"),
            "-k", "30", "--trace", str(trace_path),
        ])
        capsys.readouterr()
        assert main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "stage timeline" in out
        assert "point events" in out

    def test_join_human_output_mentions_trace(self, cli_dataset, capsys):
        from repro.__main__ import main

        trace_path = cli_dataset / "run3.jsonl"
        main([
            "join", str(cli_dataset / "streets.rt"),
            str(cli_dataset / "hydro.rt"),
            "-k", "5", "--trace", str(trace_path),
        ])
        out = capsys.readouterr().out
        assert "trace written to" in out

    def test_trace_flame_emits_collapsed_stacks(self, cli_dataset, capsys):
        from repro.__main__ import main

        trace_path = cli_dataset / "flame.jsonl"
        main([
            "join", str(cli_dataset / "streets.rt"),
            str(cli_dataset / "hydro.rt"),
            "-k", "30", "--trace", str(trace_path),
        ])
        capsys.readouterr()
        assert main(["trace", str(trace_path), "--flame"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.strip().splitlines() if line]
        assert lines
        assert any("join:amkdj" in line for line in lines)
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert stack and int(count) > 0

    def test_join_with_live_flags_and_top(self, cli_dataset, capsys):
        from repro.__main__ import main

        status = cli_dataset / "join.status"
        profile = cli_dataset / "join.folded"
        code = main([
            "join", str(cli_dataset / "streets.rt"),
            str(cli_dataset / "hydro.rt"),
            "-k", "100",
            "--status-file", str(status),
            "--profile", str(profile),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile written to" in out
        assert profile.exists()
        assert main(["top", str(status), "--once"]) == 0
        frame = capsys.readouterr().out
        assert "repro join [amkdj] done" in frame
        assert "100.0%" in frame
