"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``generate`` — synthesize the TIGER-like dataset and save both R*-tree
  indexes to disk;
- ``join`` — run a k-distance join between two saved indexes with any of
  the four algorithms and print results plus the paper's metrics;
- ``trace`` — render a trace file recorded with ``join --trace`` as a
  stage timeline, eDmax convergence report, and event summary (or a
  collapsed-stack flame profile with ``--flame``);
- ``top`` — terminal view of a running join's live status file;
- ``experiment`` — regenerate one of the paper's tables/figures.

Example session::

    python -m repro generate --streets 20000 --hydro 7000 --out /tmp/az
    python -m repro join /tmp/az/streets.rt /tmp/az/hydro.rt -k 100 -a amkdj
    python -m repro join /tmp/az/streets.rt /tmp/az/hydro.rt -k 100 \
        --trace /tmp/run.jsonl --json
    python -m repro join /tmp/az/streets.rt /tmp/az/hydro.rt -k 5000 \
        --status-file /tmp/join.status --metrics-port 9109 \
        --profile /tmp/join.folded
    python -m repro top /tmp/join.status
    python -m repro trace /tmp/run.jsonl
    python -m repro experiment fig10
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro import JoinConfig, JoinRunner, RTree
from repro.core.api import PARALLEL_MODES
from repro.datagen.tiger import synthetic_tiger
from repro.resilience.errors import JoinInterrupted, ReproError
from repro.resilience.faults import FaultPlan
from repro.workloads import experiments
from repro.workloads.tables import print_table

EXPERIMENTS = {
    "fig10": experiments.experiment_fig10_kdj,
    "table2": experiments.experiment_table2_node_accesses,
    "fig11": experiments.experiment_fig11_planesweep,
    "fig12": experiments.experiment_fig12_idj,
    "fig13": experiments.experiment_fig13_memory,
    "fig14": experiments.experiment_fig14_edmax,
    "fig15": experiments.experiment_fig15_stepwise,
}


def _cmd_generate(args: argparse.Namespace) -> int:
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(f"generating {args.streets:,} streets x {args.hydro:,} hydro objects "
          f"(seed {args.seed})...")
    data = synthetic_tiger(n_streets=args.streets, n_hydro=args.hydro,
                           seed=args.seed)
    for name, items in (("streets", data.streets), ("hydro", data.hydro)):
        tree = RTree.bulk_load(items, page_size=args.page_size)
        path = out / f"{name}.rt"
        tree.save(path)
        print(f"  {path}: {tree.size:,} objects, {tree.node_count():,} nodes, "
              f"height {tree.height}")
    return 0


def _cmd_join(args: argparse.Namespace) -> int:
    tree_r = RTree.load(args.tree_r)
    tree_s = RTree.load(args.tree_s)
    fault_plan = (
        FaultPlan.parse(args.inject_faults) if args.inject_faults else None
    )
    config = JoinConfig(
        queue_memory=args.queue_kb * 1024,
        buffer_memory=args.buffer_kb * 1024,
        parallel=args.parallel,
        parallel_mode=args.parallel_mode,
        spill_dir=pathlib.Path(args.spill_dir) if args.spill_dir else None,
        trace_path=args.trace,
        trace_format=args.trace_format,
        collect_metrics=args.json,
        deadline_s=args.deadline,
        worker_timeout_s=args.worker_timeout,
        fault_plan=fault_plan,
        status_path=args.status_file,
        status_interval_s=args.status_interval,
        metrics_port=args.metrics_port,
        profile_path=args.profile,
        checkpoint_path=args.checkpoint,
        checkpoint_every_pairs=args.checkpoint_every_pairs,
        checkpoint_every_s=args.checkpoint_every_s,
        resume_from=args.resume,
    )
    if args.checkpoint is not None:
        # Graceful shutdown: SIGINT/SIGTERM now request a final
        # checkpoint at the join's next barrier instead of killing the
        # process mid-write.
        from repro.resilience.checkpoint import CheckpointManager

        CheckpointManager.install_signal_handlers()
    runner = JoinRunner(tree_r, tree_s, config)
    try:
        result = runner.kdj(args.k, args.algorithm)
    except JoinInterrupted as exc:
        # Partial-stats JSON on stdout (machine-readable resume handle),
        # one human line on stderr, distinct exit code.
        payload = {
            "interrupted": True,
            "signal": exc.signal_name,
            "checkpoint": exc.checkpoint_path,
            "stats": exc.stats.as_row() if exc.stats is not None else None,
        }
        print(json.dumps(payload, indent=2, default=repr))
        print(f"repro: {exc}", file=sys.stderr)
        return exc.exit_code
    s = result.stats
    if args.json:
        row = s.as_row()
        row["extra"] = s.extra
        payload = {
            "stats": row,
            "results": [
                [pair.distance, pair.ref_r, pair.ref_s]
                for pair in result.results[: args.show]
            ],
        }
        # default=repr: stats extras may carry non-finite floats.
        print(json.dumps(payload, indent=2, default=repr))
        return 0
    shown = result.results[: args.show]
    for rank, pair in enumerate(shown, start=1):
        print(f"{rank:6d}.  r#{pair.ref_r:<8d} s#{pair.ref_s:<8d} "
              f"distance {pair.distance:.4f}")
    if len(result) > len(shown):
        print(f"... and {len(result) - len(shown):,} more")
    print(f"\n[{s.algorithm}] distance computations: "
          f"{s.real_distance_computations:,} | queue insertions: "
          f"{s.queue_insertions:,} | node accesses: {s.node_accesses:,} "
          f"({s.node_accesses_unbuffered:,} unbuffered) | response: "
          f"{s.response_time:.3f}s simulated, {s.wall_time:.3f}s wall")
    if args.trace:
        print(f"trace written to {args.trace} "
              f"(render with: python -m repro trace {args.trace})")
    if args.profile:
        print(f"profile written to {args.profile} (collapsed stacks; feed "
              f"to a flamegraph tool)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.report import render_report

    if args.flame:
        from repro.obs.profiler import flame_from_trace, render_collapsed
        from repro.obs.report import load_trace

        counts = flame_from_trace(load_trace(args.trace_file))
        print(render_collapsed(counts))
        return 0
    print(render_report(args.trace_file, width=args.width))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import run_top

    return run_top(args.status_file, once=args.once, interval_s=args.interval)


def _cmd_experiment(args: argparse.Namespace) -> int:
    driver = EXPERIMENTS[args.name]
    setup = experiments.make_setup()
    rows = driver(setup)
    print_table(rows, title=f"experiment {args.name} on {setup.name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive multi-stage spatial distance joins (SIGMOD 2000)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize data and build indexes")
    gen.add_argument("--streets", type=int, default=60_000)
    gen.add_argument("--hydro", type=int, default=20_000)
    gen.add_argument("--seed", type=int, default=1997)
    gen.add_argument("--page-size", type=int, default=4096)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=_cmd_generate)

    join = sub.add_parser("join", help="k-distance join between saved indexes")
    join.add_argument("tree_r", help="path of the R-side index file")
    join.add_argument("tree_s", help="path of the S-side index file")
    join.add_argument("-k", type=int, default=10, help="stopping cardinality")
    join.add_argument(
        "-a", "--algorithm", default="amkdj",
        choices=["hs", "bkdj", "amkdj", "sjsort", "nlj"],
    )
    join.add_argument("--queue-kb", type=int, default=512)
    join.add_argument("--buffer-kb", type=int, default=512)
    join.add_argument("--show", type=int, default=20,
                      help="result rows to print")
    join.add_argument("--parallel", type=int, default=1,
                      help="worker count of the parallel engine; N > 1 "
                           "runs amkdj on it, the other algorithms run "
                           "sequentially")
    join.add_argument("--parallel-mode", default="shm-process",
                      choices=list(PARALLEL_MODES),
                      help="where the parallel engine's workers run: "
                           "processes on a shared-memory arena "
                           "(shm-process, default), threads (shm-thread) "
                           "or the calling thread (shm-serial)")
    join.add_argument("--spill-dir", metavar="DIR", default=None,
                      help="directory for real main-queue spill files "
                           "(default: simulated spill only)")
    join.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                      help="cooperative wall-clock budget; exceeding it "
                           "aborts the join with exit code 75")
    join.add_argument("--worker-timeout", type=float, default=None,
                      metavar="SECONDS",
                      help="how long a parallel worker may stay silent or "
                           "take to start before its tasks go to the "
                           "survivors (default: no timeout)")
    join.add_argument("--inject-faults", metavar="SPEC", default=None,
                      help="deterministic fault injection, e.g. "
                           "'worker_crash:@1,seed=7' or 'spill_write:@0' "
                           "(sites: worker_crash, worker_kill, worker_stall, "
                           "spill_write, spill_read, checkpoint_write, "
                           "checkpoint_read)")
    join.add_argument("--checkpoint", metavar="PATH", default=None,
                      help="periodically snapshot the join's full state to "
                           "PATH (atomic, checksummed) and turn SIGINT/"
                           "SIGTERM into a final checkpoint + exit 77")
    join.add_argument("--checkpoint-every-pairs", type=int, default=None,
                      metavar="N",
                      help="checkpoint cadence: every N emitted result "
                           "pairs (combinable with --checkpoint-every-s)")
    join.add_argument("--checkpoint-every-s", type=float, default=None,
                      metavar="SECONDS",
                      help="checkpoint cadence: every T seconds (default "
                           "5s when only --checkpoint is given)")
    join.add_argument("--resume", metavar="PATH", default=None,
                      help="resume an interrupted join from a checkpoint "
                           "written by --checkpoint; the remaining result "
                           "stream is byte-identical to an uninterrupted "
                           "run")
    join.add_argument("--trace", metavar="PATH", default=None,
                      help="record a structured event trace (JSONL, or a "
                           "Chrome trace_event JSON for .json paths)")
    join.add_argument("--trace-format", choices=["jsonl", "chrome"],
                      default=None,
                      help="override the trace format inferred from PATH")
    join.add_argument("--json", action="store_true",
                      help="print stats and results as JSON (implies the "
                           "metrics registry; extras land under 'extra')")
    join.add_argument("--status-file", metavar="PATH", default=None,
                      help="publish a live JSON status file (progress, "
                           "ETA, metrics, worker heartbeats) that "
                           "'python -m repro top PATH' tails")
    join.add_argument("--status-interval", type=float, default=0.25,
                      metavar="SECONDS",
                      help="live status publish interval (default 0.25)")
    join.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                      help="serve Prometheus text metrics on "
                           "localhost:PORT/metrics (plus /progress JSON) "
                           "while the join runs")
    join.add_argument("--profile", metavar="PATH", default=None,
                      help="sampling profiler: write collapsed stacks "
                           "(span-aware; Brendan Gregg format) to PATH")
    join.set_defaults(func=_cmd_join)

    trace = sub.add_parser("trace", help="render a recorded join trace")
    trace.add_argument("trace_file", help="file written by join --trace")
    trace.add_argument("--width", type=int, default=48,
                       help="timeline bar width in characters")
    trace.add_argument("--flame", action="store_true",
                       help="emit collapsed stacks (span self-time) "
                            "instead of the report")
    trace.set_defaults(func=_cmd_trace)

    top = sub.add_parser("top", help="watch a running join's status file")
    top.add_argument("status_file", help="file written by join --status-file")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit")
    top.add_argument("--interval", type=float, default=0.5, metavar="SECONDS",
                     help="refresh interval (default 0.5)")
    top.set_defaults(func=_cmd_top)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", choices=sorted(EXPERIMENTS))
    exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into head/less and closed early: not an error.
        sys.stderr.close()
        return 0
    except ReproError as exc:
        # Typed library failures: one clean line, distinct exit code —
        # arbitrary bugs still traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
