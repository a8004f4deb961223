"""End-to-end benchmark of the distance-join library: one workload per call.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kdj-fig10 --seed 1 --seconds 10 --trace 0

It runs the workload in a fresh process (``child.py``) against the
library in ``src/``, checks every answer, writes the run's full record
to ``.bench_out/`` and prints, as the last stdout line,
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one pass of the
workload in two fresh processes, untraced and then traced, and reports
the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: Every call ends within this many seconds, children included.
BUDGET_S = 170.0
#: Where records, span dumps and determinism fingerprints go (in the checkout).
OUT_DIR = ".bench_out"
#: Library imports timed in this many fresh interpreters, half of them
#: before the workload's process and half after (the median counts).
IMPORT_REPS = 4
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import repro; "
    "from repro.kernels import resolve_backend; resolve_backend(); "
    "print(time.perf_counter() - t)"
)
sys.path.insert(0, HERE)

from probe import WINDOW, Probe, scale  # noqa: E402


def import_seconds(reps: int) -> list[tuple[float, float]]:
    """(measured, reference) seconds to import the library and resolve its backend.

    Each fresh interpreter's time is scaled by host probes (``probe.py``)
    taken in this process just before and after it.
    """
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    probe = Probe()
    samples = []
    for _ in range(reps):
        before = [probe.ms() for _ in range(WINDOW)]
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE], env=env, check=True,
            capture_output=True, text=True, timeout=60,
        )
        after = [probe.ms() for _ in range(WINDOW)]
        seconds = float(out.stdout.strip())
        samples.append((seconds, seconds * scale(before + after)))
    return samples


def run_child(args, trace: int, deadline: float, passes: int | None = None) -> dict:
    """One fresh-process run of the workload; its record."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if passes is not None:
        cmd += ["--passes", str(passes)]
    if trace:
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")]
    # The library's defaults, whatever the caller's environment selects;
    # a fixed hash seed keeps runs of one seed identical.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{args.workload}: run exceeded the {BUDGET_S:.0f} s budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"{args.workload}: child exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def drift(a: dict, b: dict, keys) -> list[str]:
    """The keys whose exact values differ between two determinism records."""
    return [key for key in keys if a[key] != b[key]]


def check_fingerprint(args, record: dict) -> list[str]:
    """Compare a sequential run's exact figures with the last run of this seed.

    Runs compare only under the same library and benchmark code.
    """
    code = hashlib.sha256(record["host"]["source_sha256"].encode())
    for name in sorted(os.listdir(HERE)):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name), "rb") as handle:
                code.update(handle.read())
    path = os.path.join(OUT_DIR, "fingerprints", f"{args.workload}-{args.seed}-"
                        f"{args.seconds:g}-{code.hexdigest()[:16]}.json")
    if os.path.exists(path):
        with open(path) as handle:
            previous = json.load(handle)
        return drift(previous, record["determinism"], previous)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(record["determinism"], handle)
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + BUDGET_S

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        sys.exit("run from the root of a checkout: src/repro is missing")
    sys.path.insert(1, os.path.abspath("src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    sequential = WORKLOADS[args.workload].sequential
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.trace:
        # One pass each: the traced process is compared with an untraced
        # one doing exactly the same work.
        plain = run_child(args, 0, deadline, passes=1)
        traced = run_child(args, 1, deadline, passes=1)
        records = [plain, traced]
    else:
        imports = import_seconds(IMPORT_REPS // 2)
        plain = run_child(args, 0, deadline)
        imports += import_seconds(IMPORT_REPS - IMPORT_REPS // 2)
        plain["import_s"] = imports
        records = [plain]
    problems = [f"passes of one run differ: {key}" for r in records for key in r["pass_drift"]]
    if sequential:
        problems += [f"drift from the previous run of this seed: {key}"
                     for key in check_fingerprint(args, plain)]
    if args.trace:
        # The wrappers must change no work: same answers, same counters.
        keys = ["results_sha"] + (["counters_sha", "sim_response_s"] if sequential else [])
        problems += [f"traced run differs from untraced: {key}"
                     for key in drift(plain["determinism"], traced["determinism"], keys)]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = {
            "value": traced["metrics"]["wall_s"] - plain["metrics"]["wall_s"], "unit": "s"}
        probes = [x for r in records for x in r["probes_ms"]]
        metrics["host.probe_ms"] = {"value": statistics.median(probes), "unit": "ms"}
    else:
        values = dict(plain["metrics"])
        values["setup_s"] = (statistics.median(ref for _, ref in imports)
                             + values.pop("setup_in_process_s"))
        measured = plain["measured"]
        measured["setup_s"] = (statistics.median(raw for raw, _ in imports)
                               + measured.pop("setup_in_process_s"))
        units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                 "sim_response_s": "s", "peak_rss_mb": "MB"}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    path = os.path.join(OUT_DIR, f"record-{args.workload}-{args.seed}-t{args.trace}.json")
    with open(path, "w") as handle:
        json.dump({"problems": problems, "metrics": metrics, "records": records},
                  handle, indent=1)
    print(f"record: {path}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
