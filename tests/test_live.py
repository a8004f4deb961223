"""Tests for the live observability plane (repro.obs.live and friends).

Covers the progress estimator, the status-file publisher, the Prometheus
exporter + scrape server, the span-aware sampling profiler, per-worker
telemetry, the ``repro top`` renderer, and the engine wiring (status
files during sequential and shm-parallel joins, zero overhead when off).
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.request

import pytest

from repro.core.api import JoinConfig, JoinRunner, k_distance_join
from repro.obs.export import MetricsServer, prometheus_name, render_prometheus
from repro.obs.live import (
    JoinProgress,
    LivePlane,
    LivePublisher,
    ProgressEstimator,
    read_status,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import SamplingProfiler, flame_from_trace, render_collapsed
from repro.obs.top import render_status, run_top
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.shm import WORKER_FIELDS, WorkerTelemetry


# ----------------------------------------------------------------------
# Progress estimation
# ----------------------------------------------------------------------


class TestProgressEstimator:
    def test_fraction_monotone_even_when_signals_regress(self):
        clock = [0.0]
        estimator = ProgressEstimator(clock=lambda: clock[0])
        progress = JoinProgress()
        progress.start("amkdj", 100)
        progress.set_results(50)
        high = estimator.fraction(progress, 80.0, 100.0)
        # A compensation stage re-opens work: raw signals drop...
        progress.set_results(50)
        low_raw = estimator.fraction(progress, 10.0, 100.0)
        # ...but the reported fraction never goes backwards.
        assert low_raw >= high
        progress.finish()
        assert estimator.fraction(progress, 0.0, 0.0) == 1.0

    def test_fraction_clamped_below_one_until_done(self):
        estimator = ProgressEstimator()
        progress = JoinProgress()
        progress.start("amkdj", 10)
        progress.set_results(10)
        progress.set_cutoffs(1.0, 1.0)
        assert estimator.fraction(progress, 100.0, 100.0) <= 0.99

    def test_convergence_signal_uses_edmax_over_qdmax(self):
        assert ProgressEstimator._convergence(1.0, 2.0) == pytest.approx(0.5)
        assert ProgressEstimator._convergence(3.0, 2.0) == 1.0
        assert ProgressEstimator._convergence(1.0, math.inf) == 0.0
        assert ProgressEstimator._convergence(math.inf, 2.0) == 1.0

    def test_report_carries_eta_and_work(self):
        clock = [0.0]
        estimator = ProgressEstimator(clock=lambda: clock[0])
        progress = JoinProgress()
        progress.start("bkdj", 10)
        progress.set_results(5)
        clock[0] = 10.0
        report = estimator.report(progress, 5.0, 10.0)
        assert 0.0 < report["fraction"] < 1.0
        assert report["elapsed_s"] == pytest.approx(10.0)
        assert report["eta_s"] > 0.0
        assert report["work_done"] == 5.0
        assert report["work_total"] == 10.0
        progress.finish()
        done = estimator.report(progress, 10.0, 10.0)
        assert done["fraction"] == 1.0
        assert done["eta_s"] is None


# ----------------------------------------------------------------------
# Publisher and status file
# ----------------------------------------------------------------------


class TestLivePublisher:
    def test_snapshot_written_atomically_and_readable(self, tmp_path):
        path = tmp_path / "status.json"
        publisher = LivePublisher(path, interval_s=0.02)
        publisher.add_source("answer", lambda: {"value": 42})
        publisher.snapshot()
        status = read_status(path)
        assert status["answer"]["value"] == 42
        assert status["seq"] == 0
        assert not (tmp_path / "status.json.tmp").exists()

    def test_failing_source_is_isolated(self, tmp_path):
        path = tmp_path / "status.json"
        publisher = LivePublisher(path)

        def boom():
            raise RuntimeError("sensor on fire")

        publisher.add_source("bad", boom)
        publisher.add_source("good", lambda: 1)
        snap = publisher.snapshot()
        assert snap["good"] == 1
        assert "sensor on fire" in snap["bad"]["error"]

    def test_non_finite_floats_become_null(self, tmp_path):
        path = tmp_path / "status.json"
        publisher = LivePublisher(path)
        publisher.add_source("x", lambda: {"inf": math.inf, "nan": math.nan})
        publisher.snapshot()
        status = json.loads(path.read_text())  # strict JSON must parse
        assert status["x"] == {"inf": None, "nan": None}

    def test_thread_publishes_and_stops(self, tmp_path):
        path = tmp_path / "status.json"
        publisher = LivePublisher(path, interval_s=0.02)
        publisher.start()
        deadline = time.monotonic() + 5.0
        while read_status(path) is None and time.monotonic() < deadline:
            time.sleep(0.01)
        publisher.stop()
        final = read_status(path)
        assert final is not None and final["seq"] >= 1

    def test_read_status_absent_file(self, tmp_path):
        assert read_status(tmp_path / "missing.json") is None


# ----------------------------------------------------------------------
# Prometheus exporter
# ----------------------------------------------------------------------


class TestPrometheus:
    def test_name_mapping(self):
        assert prometheus_name("obs.shm.tasks") == "repro_obs_shm_tasks"
        assert prometheus_name("9lives") == "repro__9lives"

    def test_render_registry_instruments(self):
        registry = MetricsRegistry()
        registry.counter("shm.tasks").inc(3.0)
        registry.gauge("delta").set(1.5)
        hist = registry.histogram("result_distance")
        for value in (0.75, 1.5, 3.0, 0.0):
            hist.observe(value)
        text = render_prometheus(registry=registry)
        assert "# TYPE repro_obs_shm_tasks counter" in text
        assert "repro_obs_shm_tasks 3" in text
        assert "# TYPE repro_obs_delta gauge" in text
        assert "repro_obs_delta 1.5" in text
        assert '_bucket{le="0"} 1' in text
        assert '_bucket{le="+Inf"} 4' in text
        assert "repro_obs_result_distance_count 4" in text
        # every line is either a comment or "name[{labels}] value"
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith("# TYPE repro_")
            else:
                name, value = line.rsplit(" ", 1)
                assert name.startswith("repro_")
                float(value)  # parses

    def test_render_progress_and_workers(self):
        progress = {"fraction": 0.5, "produced": 10, "k": 20,
                    "stages_done": 1, "elapsed_s": 2.0, "done": False}
        workers = [
            {"worker": 0, "heartbeat_age_s": 0.1, "busy": True,
             "tasks_done": 4, "steals": 1, "givebacks": 0, "queue_depth": 2},
            {"worker": 1, "heartbeat_age_s": None, "busy": False,
             "tasks_done": 0, "steals": 0, "givebacks": 0, "queue_depth": 0},
        ]
        text = render_prometheus(progress=progress, workers=workers)
        assert "repro_progress_fraction 0.5" in text
        assert "repro_progress_done 0" in text
        assert 'repro_worker_tasks_done{worker="0"} 4' in text
        assert 'repro_worker_busy{worker="1"} 0' in text
        # a never-beaten heartbeat (None) is simply omitted
        assert 'repro_worker_heartbeat_age_s{worker="1"}' not in text

    def test_server_serves_metrics_and_progress(self):
        plane = LivePlane(status_path=None, metrics_port=0)
        registry = MetricsRegistry()
        registry.counter("queue.insertions").inc(7.0)
        plane.attach_metrics(registry)
        plane.progress.start("amkdj", 10)
        server = MetricsServer(0, plane)
        server.start()
        try:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as resp:
                assert resp.headers["Content-Type"].startswith("text/plain")
                body = resp.read().decode()
            assert "repro_obs_queue_insertions 7" in body
            assert "repro_progress_fraction" in body
            with urllib.request.urlopen(f"{base}/progress", timeout=5) as resp:
                progress = json.loads(resp.read())
            assert progress["progress"]["algorithm"] == "amkdj"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nope", timeout=5)
            assert excinfo.value.code == 404
        finally:
            server.stop()


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------


class TestProfiler:
    def test_samples_attribute_to_tracer_spans(self):
        tracer = Tracer([])
        profiler = SamplingProfiler(tracer=tracer, interval_s=0.002)
        profiler.start()
        try:
            with tracer.span("join:busy"):
                deadline = time.monotonic() + 0.3
                while time.monotonic() < deadline:
                    sum(i * i for i in range(200))
        finally:
            profiler.stop()
        assert profiler.samples > 0
        spanned = [s for s in profiler.counts if s.startswith("join:busy;")]
        assert spanned, f"no span-rooted samples in {list(profiler.counts)[:3]}"

    def test_write_collapsed_file(self, tmp_path):
        profiler = SamplingProfiler()
        profiler.counts = {"a;b": 3, "a": 1}
        out = tmp_path / "prof.folded"
        profiler.write(out)
        assert out.read_text() == "a 1\na;b 3\n"

    def test_null_tracer_span_stack_is_empty(self):
        assert NULL_TRACER.span_stack == ()
        profiler = SamplingProfiler(tracer=NULL_TRACER, interval_s=0.002)
        profiler.start()
        time.sleep(0.02)
        profiler.stop()  # no crash sampling with no spans

    def test_flame_from_trace_nests_by_containment(self):
        records = [
            {"ts": 0.0, "ph": "B", "name": "join:x", "track": 0, "args": {}},
            {"ts": 0.1, "ph": "B", "name": "stage:a", "track": 0, "args": {}},
            {"ts": 0.4, "ph": "E", "name": "stage:a", "track": 0, "args": {}},
            {"ts": 0.4, "ph": "B", "name": "stage:b", "track": 0, "args": {}},
            {"ts": 1.0, "ph": "E", "name": "stage:b", "track": 0, "args": {}},
            {"ts": 1.0, "ph": "E", "name": "join:x", "track": 0, "args": {}},
        ]
        counts = flame_from_trace(records)
        assert counts["track0;join:x;stage:a"] == pytest.approx(300_000, abs=2)
        assert counts["track0;join:x;stage:b"] == pytest.approx(600_000, abs=2)
        # join:x keeps only its self time (1.0 - 0.9 = 0.1s)
        assert counts["track0;join:x"] == pytest.approx(100_000, abs=2)
        text = render_collapsed(counts)
        assert text.endswith("\n")
        assert all(" " in line for line in text.strip().splitlines())


# ----------------------------------------------------------------------
# Worker telemetry
# ----------------------------------------------------------------------


class TestWorkerTelemetry:
    def test_slot_roundtrip_thread_backing(self):
        telemetry = WorkerTelemetry(2)
        slot = telemetry.slot(1)
        slot.beat(busy=True, depth=5)
        slot.task_done()
        slot.stole()
        slot.gave_back()
        rows = telemetry.snapshot()
        assert rows[0]["heartbeat_age_s"] is None  # never beaten
        row = rows[1]
        assert row["busy"] is True
        assert row["queue_depth"] == 5
        assert row["tasks_done"] == 1
        assert row["steals"] == 1
        assert row["givebacks"] == 1
        assert row["heartbeat_age_s"] >= 0.0

    def test_mp_backing_shares_across_processes(self):
        import multiprocessing

        ctx = multiprocessing.get_context()
        telemetry = WorkerTelemetry(2, ctx=ctx)
        proc = ctx.Process(target=_beat_slot_zero, args=(telemetry.arr,))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 0
        rows = telemetry.snapshot()
        assert rows[0]["tasks_done"] == 1
        assert rows[0]["heartbeat_age_s"] is not None

    def test_field_order_is_stable(self):
        # WorkerSlot hard-codes offsets; lock the layout.
        assert WORKER_FIELDS == (
            "heartbeat", "busy", "tasks_done", "steals",
            "givebacks", "queue_depth",
        )


def _beat_slot_zero(arr) -> None:
    from repro.parallel.shm import WorkerSlot

    slot = WorkerSlot(arr, 0)
    slot.beat(busy=True, depth=1)
    slot.task_done()


# ----------------------------------------------------------------------
# top renderer
# ----------------------------------------------------------------------


class TestTop:
    def test_render_status_sections(self):
        status = {
            "elapsed_s": 3.0,
            "progress": {
                "algorithm": "amkdj", "k": 100, "produced": 60,
                "stage": "aggressive", "stages_done": 1,
                "edmax": 1.5, "qdmax": 2.0, "done": False,
                "fraction": 0.6, "elapsed_s": 3.0, "eta_s": 2.0,
                "work_done": 10.0, "work_total": 20.0,
            },
            "workers": [
                {"worker": 0, "heartbeat_age_s": 0.05, "busy": True,
                 "tasks_done": 7, "steals": 2, "givebacks": 1,
                 "queue_depth": 3},
            ],
            "metrics": {"obs.queue.insertions": 123.0},
        }
        text = render_status(status)
        assert "amkdj" in text
        assert "60.0%" in text
        assert "aggressive" in text
        assert "worker" in text and "tasks" in text
        assert "queue.insertions" in text

    def test_run_top_once(self, tmp_path, capsys):
        path = tmp_path / "status.json"
        publisher = LivePublisher(path)
        progress = JoinProgress()
        progress.start("bkdj", 10)
        estimator = ProgressEstimator()
        publisher.add_source(
            "progress", lambda: estimator.report(progress, 0.0, 0.0)
        )
        publisher.snapshot()
        assert run_top(path, once=True) == 0
        assert "bkdj" in capsys.readouterr().out

    def test_run_top_missing_file(self, tmp_path, capsys):
        assert run_top(tmp_path / "nope.json", once=True) == 1


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------


class TestEngineWiring:
    def test_sequential_join_publishes_status(self, tmp_path, small_trees):
        tree_r, tree_s = small_trees
        path = tmp_path / "status.json"
        cfg = JoinConfig(status_path=str(path), status_interval_s=0.02)
        result = JoinRunner(tree_r, tree_s, cfg).kdj(40, "amkdj")
        assert len(result.results) == 40
        status = read_status(path)
        assert status["progress"]["done"] is True
        assert status["progress"]["fraction"] == 1.0
        assert status["progress"]["algorithm"] == "amkdj"
        assert status["progress"]["produced"] == 40
        assert status["metrics"]["obs.result_distance.count"] >= 40.0

    def test_profile_written_for_sequential_join(self, tmp_path, small_trees):
        tree_r, tree_s = small_trees
        path = tmp_path / "prof.folded"
        cfg = JoinConfig(profile_path=str(path))
        JoinRunner(tree_r, tree_s, cfg).kdj(40, "amkdj")
        assert path.exists()  # may be empty on a very fast run

    def test_shm_thread_join_reports_workers(self, tmp_path, par_trees):
        tree_r, tree_s = par_trees
        path = tmp_path / "status.json"
        cfg = JoinConfig(
            parallel=2, parallel_mode="shm-thread",
            status_path=str(path), status_interval_s=0.02,
        )
        result = k_distance_join(tree_r, tree_s, 300, config=cfg)
        assert len(result.results) == 300
        status = read_status(path)
        assert status["progress"]["done"] is True
        assert status["progress"]["fraction"] == 1.0
        workers = status["workers"]
        assert [w["worker"] for w in workers] == [0, 1]
        assert sum(w["tasks_done"] for w in workers) > 0
        assert all(w["heartbeat_age_s"] is not None for w in workers)

    def test_shm_process_join_publishes_status(self, tmp_path, par_trees):
        # Worker processes write their rows into the shared telemetry
        # array; the parent's status file must carry them.
        tree_r, tree_s = par_trees
        path = tmp_path / "status.json"
        cfg = JoinConfig(
            parallel=2, parallel_mode="shm-process",
            status_path=str(path), status_interval_s=0.02,
        )
        result = k_distance_join(tree_r, tree_s, 100, config=cfg)
        assert result.stats.extra["parallel_workers"] == 2
        status = read_status(path)
        assert status["progress"]["done"] is True
        workers = status["workers"]
        assert len(workers) == 2
        assert sum(w["tasks_done"] for w in workers) > 0

    def test_live_fraction_monotone_during_shm_join(self, tmp_path, par_trees):
        tree_r, tree_s = par_trees
        path = tmp_path / "status.json"
        cfg = JoinConfig(
            parallel=2, parallel_mode="shm-thread",
            status_path=str(path), status_interval_s=0.01,
        )
        fractions: list[float] = []
        stop = threading.Event()

        def watch() -> None:
            while not stop.is_set():
                status = read_status(path)
                if status and "fraction" in status.get("progress", {}):
                    fractions.append(status["progress"]["fraction"])
                time.sleep(0.005)

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            k_distance_join(tree_r, tree_s, 500, config=cfg)
        finally:
            stop.set()
            watcher.join()
        # The run may finish before the watcher catches a mid-flight
        # snapshot; the final (post-close) snapshot is always on disk.
        final = read_status(path)
        fractions.append(final["progress"]["fraction"])
        assert fractions, "no status snapshots observed during the join"
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == 1.0

    def test_metrics_port_serves_during_join(self, tmp_path, small_trees):
        # Ephemeral-port plumbing is covered in TestPrometheus; here only
        # check the config plumbs through the runner without breaking it.
        tree_r, tree_s = small_trees
        plane = LivePlane.from_config(JoinConfig(metrics_port=0))
        assert plane is not None
        plane.start()
        try:
            assert plane.server is not None
            port = plane.server.port
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/progress", timeout=5
            ) as resp:
                assert json.loads(resp.read())["progress"]["done"] is False
        finally:
            plane.close()

    def test_plane_none_when_all_knobs_off(self):
        assert LivePlane.from_config(JoinConfig()) is None

    def test_disabled_plane_adds_no_counter_overhead(self, tmp_path, small_trees):
        """Counter invariance: a run with the live plane on must charge
        exactly the same paper metrics as a run with it off."""
        tree_r, tree_s = small_trees
        baseline = JoinRunner(tree_r, tree_s, JoinConfig()).kdj(40, "amkdj")
        observed = JoinRunner(
            tree_r, tree_s,
            JoinConfig(status_path=str(tmp_path / "s.json")),
        ).kdj(40, "amkdj")
        base_row = baseline.stats.as_row()
        live_row = observed.stats.as_row()
        for volatile in ("cpu_time", "response_time", "wall_time"):
            base_row.pop(volatile, None)
            live_row.pop(volatile, None)
        assert base_row == live_row

    def test_metrics_final_counter_in_trace(self, tmp_path, small_trees):
        from repro.obs.report import load_trace

        tree_r, tree_s = small_trees
        path = tmp_path / "run.jsonl"
        cfg = JoinConfig(trace_path=str(path))
        JoinRunner(tree_r, tree_s, cfg).kdj(40, "amkdj")
        records = load_trace(path)
        finals = [r for r in records
                  if r["ph"] == "C" and r["name"] == "metrics:final"]
        assert finals
        assert finals[-1]["args"]["obs.result_distance.count"] >= 40.0


@pytest.fixture(scope="module")
def par_trees():
    """Trees big enough to split into several worker tasks."""
    import random

    from repro.geometry.rect import Rect
    from repro.rtree.tree import RTree

    rng = random.Random(11)

    def build(n: int) -> RTree:
        items = []
        for i in range(n):
            x = rng.random() * 500.0
            y = rng.random() * 500.0
            items.append((Rect(x, y, x + 1.0, y + 1.0), i))
        return RTree.bulk_load(items, page_size=2048, max_entries=32)

    return build(900), build(900)
