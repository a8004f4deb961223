"""Run one workload in this fresh process and print its record as JSON.

Started by ``run.py`` from the root of a checkout; it imports the
library from ``src/``.  The record's last stdout line is the JSON
object ``run.py`` reads.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array

from probe import WINDOW, Probe, scale

#: Passes over the op sequence per run; an op's latency is its median pass.
PASSES = 3
#: Ops whose failure messages the record keeps.
MAX_FAILURES = 5
#: Besides after every collection, the host is probed before an op once
#: this many seconds of ops have run since the last probe (IDJ sessions
#: pull for seconds between collections).
PROBE_EVERY_S = 0.25


#: JoinStats fields that repeat exactly on the sequential workloads.
COUNTERS = (
    "results", "real_distance_computations", "axis_distance_computations",
    "queue_insertions", "distance_queue_insertions", "node_accesses",
    "node_accesses_unbuffered", "queue_peak_size", "queue_splits",
    "queue_swap_ins", "queue_spilled_entries", "compensation_stages",
    "compensation_peak",
)


class Harness:
    """Times setups and ops in a closed loop with one client; digests their answers.

    A run makes passes over the op sequence.  Setup repetitions and ops
    are *units*; with a recorder attached each unit is a root span of
    the trace and wrappers are live only inside units, so untimed
    checks, reference answers and collections are never traced.  A pass
    keeps only latencies and digests of its ops (JoinStats objects only
    on a traced run), so every pass runs its ops among the same live
    objects.
    """

    def __init__(self, recorder=None) -> None:
        self.rec = recorder
        self.passes: list[dict] = []
        self.setup_s: list[float] = []
        self.unit_stats: dict[int, list] = {}
        self.failed: set = set()
        self.failures: list[str] = []
        self.settle_s = 0.0
        #: Host probes in time order; a unit's ``probe`` is the index of the
        #: last probe before it.
        self.prober = Probe()
        self.probes: list[float] = []
        self.setup_probe: list[int] = []
        self.since_probe = 0.0

    def start_pass(self) -> None:
        self.passes.append({"latencies": [], "probe": [], "gen2": 0, "sim": 0.0,
                            "results": hashlib.sha256(), "counters": hashlib.sha256(),
                            "totals": dict.fromkeys(COUNTERS, 0)})

    def timed(self, unit: int, fn, *args):
        """(result or None on exception, seconds) of ``fn(*args)`` as ``unit``."""
        rec = self.rec
        gen2 = gc.get_stats()[2]["collections"]
        if rec is not None:
            rec.open_unit(unit)
        started = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed op is counted, not fatal
            out = None
            self._fail(unit, exc)
        elapsed = time.perf_counter() - started
        if rec is not None:
            rec.close_unit()
        self.passes[-1]["gen2"] += gc.get_stats()[2]["collections"] - gen2
        return out, elapsed

    def setup(self, workload):
        """One timed setup: both indexes and the first answer; the indexes.

        Its inputs are made before and dropped after the timing, and a
        full collection first clears the previous indexes away.
        """
        gc.collect()
        self.probe()
        items = workload.inputs()
        unit = -1 - len(self.setup_s)

        def build_and_answer():
            trees = workload.build(*items)
            return trees, workload.first_answer(*trees)

        out, elapsed = self.timed(unit, build_and_answer)
        self.setup_s.append(elapsed)
        self.setup_probe.append(len(self.probes) - 1)
        if out is None:
            return None
        if self.rec is not None:
            self.unit_stats[unit] = [out[1]]
        return out[0]

    def settle(self) -> None:
        """A full collection outside the timing, before an op or IDJ session.

        Each op then starts from the same collector state in every pass
        and run: it pays for the collections its own allocations trigger,
        not for garbage that the untimed checks and reference answers or
        earlier ops left behind.  The time is kept (``settle_s``, and
        ``gc.settle_s`` on the traced run), so garbage an op leaves
        behind stays visible.
        """
        started = time.perf_counter()
        gc.collect()
        self.settle_s += time.perf_counter() - started
        self.probe()

    def probe(self) -> None:
        self.probes.append(self.prober.ms())
        self.since_probe = 0.0

    def op(self, fn, *args):
        if self.since_probe >= PROBE_EVERY_S:
            self.probe()
        ps = self.passes[-1]
        out, elapsed = self.timed(len(ps["latencies"]), fn, *args)
        ps["latencies"].append(elapsed)
        ps["probe"].append(len(self.probes) - 1)
        self.since_probe += elapsed
        return out

    def stats(self, stats) -> None:
        """Fold the latest op's JoinStats into the pass's digests."""
        ps = self.passes[-1]
        values = [getattr(stats, f) for f in COUNTERS]
        ps["counters"].update(
            repr(values + [stats.response_time, stats.io_time, stats.cpu_time]).encode())
        ps["sim"] += stats.response_time
        for field, value in zip(COUNTERS, values):
            ps["totals"][field] += value
        if self.rec is not None:
            self.unit_stats.setdefault(len(ps["latencies"]) - 1, []).append(stats)

    def answer(self, pairs, check, *args) -> None:
        """Digest an op's answer in output order, then check it (untimed)."""
        sha = self.passes[-1]["results"]
        sha.update(array("d", [p.distance for p in pairs]).tobytes())
        sha.update(array("q", [v for p in pairs for v in p[1:]]).tobytes())
        self.check(check, pairs, *args)

    def check(self, check, *args) -> None:
        try:
            check(*args)
        except Exception as exc:  # includes AssertionError from validate()
            self._fail(len(self.passes[-1]["latencies"]) - 1, exc)

    def _fail(self, unit: int, exc: Exception) -> None:
        self.failed.add((len(self.passes) - 1, unit))
        if len(self.failures) < MAX_FAILURES:
            self.failures.append(f"pass {len(self.passes) - 1} unit {unit}: "
                                 f"{type(exc).__name__}: {exc}")

    def scale(self, probe: int) -> float:
        """Reference seconds per measured second for a unit after probe ``probe``."""
        return scale(self.probes[max(0, probe + 1 - WINDOW) : probe + 1 + WINDOW])

    def op_latencies(self, reference: bool) -> list[float]:
        """Each op's median over the passes, in reference or measured seconds.

        The median, not the fastest: scaled by noisy probes, the fastest
        of several timings is the one whose probes read slowest, and it
        moved the median op of ``kdj-fig10`` by 10-20% between runs.
        """
        n = max(len(ps["latencies"]) for ps in self.passes)
        return [statistics.median(
                    ps["latencies"][i] * (self.scale(ps["probe"][i]) if reference else 1.0)
                    for ps in self.passes if i < len(ps["latencies"]))
                for i in range(n)]

    def median_setup(self, reference: bool) -> tuple[int, float]:
        """(index, seconds) of the median setup repetition (the lower of two)."""
        times = [t * (self.scale(j) if reference else 1.0)
                 for t, j in zip(self.setup_s, self.setup_probe)]
        index = times.index(statistics.median_low(times))
        return index, statistics.median(times)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with 10 ops beyond it.

    Never below the median: with 20 ops or fewer it is the median op
    (the upper one of an even count).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 10, n // 2 + 1)  # 1-based nearest rank
    return 100.0 * rank / n, ordered[rank - 1]


def determinism(ps: dict) -> dict:
    """A pass's exact figures: simulated clock, counters, answers, gen-2 count."""
    return {
        "sim_response_s": ps["sim"],
        "counters": dict(ps["totals"]),
        "counters_sha": ps["counters"].hexdigest(),
        "results_sha": ps["results"].hexdigest(),
        "gen2_collections": ps["gen2"],
    }


def host_stamp(root: str, seed: int, backend) -> dict:
    import numpy

    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                source.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    source.update(handle.read())
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": getattr(backend, "name", type(backend).__name__),
        "seed": seed,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=PASSES, help="passes over the ops")
    parser.add_argument("--spans", help="file the traced run dumps its spans to")
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from repro.kernels import resolve_backend

    from workloads import WORKLOADS

    backend = resolve_backend()
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    recorder = None
    if args.trace:
        from layers import Recorder

        recorder = Recorder(units=workload.describe()["ops_planned"], setup_reps=2 * args.passes)
        recorder.install()
    harness = Harness(recorder)

    for number in range(args.passes):
        harness.start_pass()
        trees = harness.setup(workload)
        if trees is None:
            print(json.dumps({"error": harness.failures}))
            return 1
        if number == 0:
            workload.prepare(*trees)
        workload.run(harness, *trees)
        trees = None
        # A second setup per pass, its indexes dropped at once: setup
        # repetitions are spread over the run.
        if harness.setup(workload) is None:
            print(json.dumps({"error": harness.failures}))
            return 1
    harness.probe()  # the probe after the last setup
    if recorder is not None:
        recorder.uninstall()

    lat = harness.op_latencies(reference=True)
    raw = harness.op_latencies(reference=False)
    percentile, tail_value = tail(lat)
    dets = [determinism(ps) for ps in harness.passes]
    # Every pass repeats the first one's answers, and on the sequential
    # workloads its counters and simulated clock too.
    keys = ["results_sha"] + (["counters_sha", "sim_response_s"] if workload.sequential else [])
    pass_drift = sorted({key for det in dets[1:] for key in keys if det[key] != dets[0][key]})
    median_rep, setup_ref = harness.median_setup(reference=True)
    raw_setup = harness.median_setup(reference=False)[1]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": args.passes,
        "probes_ms": harness.probes,
        "setup_reps_s": harness.setup_s,
        "attempted": sum(len(ps["latencies"]) for ps in harness.passes),
        "failed": len(harness.failed),
        "failures": harness.failures,
        "ops": len(lat),
        "tail_percentile": percentile,
        "latencies_ms": [[x * 1e3 for x in ps["latencies"]] for ps in harness.passes],
        "probe_index": [ps["probe"] for ps in harness.passes],
        "setup_probe_index": harness.setup_probe,
        "settle_s": harness.settle_s,
        # Wall-clock figures in reference seconds (see probe.py) ...
        "metrics": {
            "setup_in_process_s": setup_ref,
            "wall_s": sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail_value * 1e3,
            "sim_response_s": statistics.median(det["sim_response_s"] for det in dets),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        # ... and as measured.
        "measured": {
            "setup_in_process_s": raw_setup,
            "wall_s": sum(raw),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": tail(raw)[1] * 1e3,
        },
        "determinism": dets[0],
        "pass_gen2": [det["gen2_collections"] for det in dets],
        "pass_drift": pass_drift,
        "plan": workload.describe(),
    }
    if not workload.sequential:
        record["parallel"] = {
            "cpus_available": len(os.sched_getaffinity(0)),
            "workers": workload.WORKERS,
            "processes": workload.WORKERS + 1,
            # The workers are the only child processes so far.
            "workers_peak_rss_mb":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "speedup": None,
        }
    record["host"] = host_stamp(root, args.seed, backend)
    if recorder is not None:
        units = [-1 - median_rep] + list(range(len(lat)))
        record["layers"] = recorder.layer_metrics(units, harness.unit_stats, harness.settle_s)
        if args.spans:
            recorder.dump(args.spans, record)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
