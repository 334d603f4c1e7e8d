"""Command-line interface: ``repro-search``.

Subcommands::

    repro-search run -d 4 -s visibility          # generate + verify + metrics
    repro-search table -d 2 4 6 8                # the T1 comparison table
    repro-search figure fig1 -d 6                # re-render a paper figure
    repro-search simulate -d 4 -p clean --seed 3 # async protocol on the engine
    repro-search formulas -d 6                   # every closed form at one d
    repro-search lint --self                     # whole-program static analysis
    repro-search report -d 8 -p clean            # metrics snapshot + sparklines
    repro-search watch -d 4 -p visibility        # stream engine events as JSONL
    repro-search montecarlo -d 8 --trials 5000   # scenario-batch Monte Carlo
    repro-search trace .repro-trace              # render a RunLog span tree
    repro-search metrics --runlog run.jsonl      # Prometheus text exposition

The CLI is a thin veneer over the library; every command routes through
the same public API the examples and benches use.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis import formulas
from repro.analysis.verify import verify_schedule
from repro.core.metrics import compute_metrics
from repro.core.strategy import available_strategies, get_strategy
from repro.topology.hypercube import Hypercube

__all__ = ["main", "build_parser"]

#: Default RunLog directory for ``--trace`` and the ``trace`` subcommand.
DEFAULT_TRACE_DIR = ".repro-trace"


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for the CLI tests)."""
    from repro.lint.cli import add_lint_arguments

    parser = argparse.ArgumentParser(
        prog="repro-search",
        description="Contiguous search in the hypercube (IPPS 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="generate, verify and measure one strategy")
    run.add_argument("-d", "--dimension", type=int, required=True)
    run.add_argument(
        "-s", "--strategy", default="visibility", choices=available_strategies()
    )
    run.add_argument("--show-order", action="store_true", help="print the cleaning order")
    run.add_argument("--watch", action="store_true", help="print one frame per time unit")
    run.add_argument("--homebase", type=int, default=0, help="start node (via XOR automorphism)")
    run.add_argument("--save", metavar="FILE", default=None, help="write the schedule as JSON")

    table = sub.add_parser("table", help="T1 comparison table across dimensions")
    table.add_argument("-d", "--dimensions", type=int, nargs="+", default=[2, 4, 6, 8])

    figure = sub.add_parser("figure", help="re-render a paper figure")
    figure.add_argument(
        "which", choices=["fig1", "fig2", "fig3", "fig4", "profile", "scoreboard"]
    )
    figure.add_argument("-d", "--dimension", type=int, default=None)

    simulate = sub.add_parser("simulate", help="run a protocol on the async engine")
    simulate.add_argument("-d", "--dimension", type=int, required=True)
    simulate.add_argument(
        "-p",
        "--protocol",
        default="visibility",
        choices=["clean", "visibility", "cloning", "synchronous"],
    )
    simulate.add_argument("--delays", default="unit", choices=["unit", "random"])
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--walker-intruder", action="store_true")

    forms = sub.add_parser("formulas", help="print every closed form for one d")
    forms.add_argument("-d", "--dimension", type=int, required=True)

    verify = sub.add_parser("verify", help="verify a schedule JSON file")
    verify.add_argument("file", help="path to a schedule written with --save")

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper artifact (figure/table/theorem)"
    )
    experiment.add_argument(
        "id", nargs="?", default=None, help="experiment id (e.g. E4); omit for all"
    )
    _add_executor_flags(experiment)
    _add_cache_flags(experiment)
    _add_trace_flag(experiment)

    lint = sub.add_parser(
        "lint",
        help="static determinism/concurrency/model-compliance analysis",
    )
    add_lint_arguments(lint)  # same flags and exit codes as `repro-lint`

    report = sub.add_parser(
        "report", help="run a protocol with live metrics and render the snapshot"
    )
    report.add_argument("-d", "--dimension", type=int, required=True)
    report.add_argument(
        "-p",
        "--protocol",
        default="clean",
        choices=["clean", "visibility", "cloning", "synchronous"],
    )
    report.add_argument("--delays", default="unit", choices=["unit", "random"])
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--probes",
        default="lenient",
        choices=["off", "lenient", "strict"],
        help="attach the standard invariant probes (default: lenient)",
    )
    report.add_argument(
        "--json", metavar="FILE", default=None, help="also write the snapshot as JSON"
    )

    watch = sub.add_parser(
        "watch", help="stream engine events as JSONL (manifest as final record)"
    )
    watch.add_argument("-d", "--dimension", type=int, required=True)
    watch.add_argument(
        "-p",
        "--protocol",
        default="visibility",
        choices=["clean", "visibility", "cloning", "synchronous"],
    )
    watch.add_argument("--delays", default="unit", choices=["unit", "random"])
    watch.add_argument("--seed", type=int, default=0)
    watch.add_argument(
        "-o", "--output", metavar="FILE", default=None, help="write JSONL here instead of stdout"
    )
    watch.add_argument(
        "--masks", action="store_true", help="include hex state masks in move records"
    )
    watch.add_argument(
        "--kinds", nargs="+", default=None, help="only stream these event kinds"
    )

    sweep = sub.add_parser("sweep", help="measure strategies across dimensions")
    sweep.add_argument("-d", "--dimensions", type=int, nargs="+", default=[2, 4, 6, 8])
    sweep.add_argument(
        "-s", "--strategies", nargs="+", default=["clean", "visibility", "cloning"]
    )
    sweep.add_argument("--csv", metavar="FILE", default=None, help="also write CSV")
    sweep.add_argument(
        "--chunk-moves",
        type=int,
        default=None,
        metavar="N",
        help="moves per chunk of each cell's chunk stream (default: 65536)",
    )
    _add_executor_flags(sweep)
    _add_cache_flags(sweep)
    _add_trace_flag(sweep)

    montecarlo = sub.add_parser(
        "montecarlo",
        help="scenario-batch Monte Carlo over intruder/delay/homebase scenarios",
    )
    montecarlo.add_argument("-d", "--dimension", type=int, default=6)
    montecarlo.add_argument("-s", "--strategy", default="visibility")
    montecarlo.add_argument("--trials", type=int, default=1000)
    montecarlo.add_argument(
        "--intruder",
        choices=["reachable", "inert", "walker", "walkers"],
        default="inert",
        help="intruder policy scored against the sweep (default: inert)",
    )
    montecarlo.add_argument(
        "--seeds-per-trial",
        type=int,
        default=1,
        help="infection seeds per trial (inert policy only)",
    )
    montecarlo.add_argument(
        "--intruder-count", type=int, default=2, help="walkers in the 'walkers' policy"
    )
    montecarlo.add_argument(
        "--delays",
        choices=["unit", "random", "adversarial"],
        default="unit",
        help="per-unit edge-delay stretch model (default: unit)",
    )
    montecarlo.add_argument("--delay-low", type=int, default=1)
    montecarlo.add_argument("--delay-high", type=int, default=3)
    montecarlo.add_argument("--delay-factor", type=int, default=4)
    montecarlo.add_argument("--delay-period", type=int, default=4)
    montecarlo.add_argument(
        "--rotate-homebase",
        action="store_true",
        help="draw a random homebase per trial (XOR automorphism)",
    )
    montecarlo.add_argument("--seed", type=int, default=0, help="master RNG seed")
    montecarlo.add_argument(
        "--shards",
        type=int,
        default=None,
        help="trial windows for the parallel path (default: --jobs)",
    )
    montecarlo.add_argument(
        "--json", metavar="FILE", default=None, help="write summary + manifest JSON"
    )
    _add_executor_flags(montecarlo)
    _add_trace_flag(montecarlo)

    trace = sub.add_parser(
        "trace", help="render a RunLog span tree (critical path + top self-time)"
    )
    trace.add_argument(
        "path",
        nargs="?",
        default=None,
        help="runlog .jsonl file or trace directory "
        f"(default: latest run under {DEFAULT_TRACE_DIR})",
    )
    trace.add_argument(
        "--top", type=int, default=5, help="rows in the self-time table (default: 5)"
    )
    trace.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="truncate the rendered tree below this depth",
    )

    metrics = sub.add_parser(
        "metrics", help="export metrics in Prometheus text exposition format"
    )
    metrics.add_argument(
        "--runlog",
        metavar="FILE",
        default=None,
        help="export the last metrics sample stored in a RunLog stream",
    )
    metrics.add_argument(
        "-d", "--dimension", type=int, default=None, help="run a protocol live instead"
    )
    metrics.add_argument(
        "-p",
        "--protocol",
        default="clean",
        choices=["clean", "visibility", "cloning", "synchronous"],
    )
    metrics.add_argument("--delays", default="unit", choices=["unit", "random"])
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        default=None,
        help="write the exposition here instead of stdout",
    )

    cache = sub.add_parser("cache", help="inspect or clear the schedule cache")
    cache.add_argument("action", choices=["info", "clear"])
    cache.add_argument(
        "--dir",
        metavar="DIR",
        default=None,
        help="cache directory (default: $REPRO_SCHEDULE_CACHE or .repro-cache/schedules)",
    )
    return parser


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ``repro.exec`` knobs (see docs/EXECUTION.md)."""
    group = parser.add_argument_group("parallel execution")
    group.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; >1 runs cells through the fault-tolerant "
        "executor (default: 1, serial in-process)",
    )
    group.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell attempt budget; a timed-out cell is retried, then FAILED",
    )
    group.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts after a crash or timeout (default: 2)",
    )
    group.add_argument(
        "--resume",
        metavar="FILE",
        default=None,
        help="checkpoint file: finished cells are reloaded from it and new "
        "ones appended, so an interrupted run restarts only unfinished cells "
        "(a merged manifest is written alongside)",
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    """The shared schedule-cache knobs (see docs/EXECUTION.md)."""
    group = parser.add_argument_group("schedule cache")
    group.add_argument(
        "--cache",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="serve schedules from a content-addressed on-disk cache "
        "(compile+store on miss, deserialize on hit); DIR defaults to "
        "$REPRO_SCHEDULE_CACHE or .repro-cache/schedules",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the schedule cache even if $REPRO_SCHEDULE_CACHE is set",
    )


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    """The shared RunLog knob (see docs/OBSERVABILITY.md)."""
    parser.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="record a RunLog trajectory (spans + merged metrics) for this "
        f"run; DIR defaults to {DEFAULT_TRACE_DIR}",
    )


class _TraceSession:
    """Wires a tracer + registry around one CLI command run.

    Entering installs the tracer as the process-wide active tracer (so
    the serial ``Strategy.run`` / ``Engine.run`` paths pick it up);
    exiting restores the previous tracer and writes the RunLog stream —
    ``begin`` (with the run manifest), every finished span, the merged
    metrics snapshot, and the explicit ``end`` marker.
    """

    def __init__(self, root: str, kind: str) -> None:
        from pathlib import Path

        from repro.obs import MetricsRegistry, RunLog, Tracer, new_run_id

        self.runlog = RunLog(Path(root))
        self.run_id = new_run_id()
        self.tracer = Tracer(run_id=self.run_id)
        self.registry = MetricsRegistry()
        self.kind = kind
        self.path = self.runlog.root / f"{self.run_id}.jsonl"
        self._previous = None

    def __enter__(self) -> "_TraceSession":
        from repro.obs import set_active_tracer

        self._previous = set_active_tracer(self.tracer)
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        from repro.obs import build_manifest, set_active_tracer

        set_active_tracer(self._previous)
        with self.runlog.writer(self.run_id) as writer:
            writer.begin(
                manifest=build_manifest(extra={"command": self.kind}),
                command=self.kind,
            )
            writer.write_spans(self.tracer.to_records())
            writer.write_metrics(self.registry.snapshot())
            writer.end(status="ok" if exc_type is None else "error")


def _trace_session(args: argparse.Namespace, kind: str):
    """A :class:`_TraceSession` when ``--trace`` was given, else ``None``."""
    flag = getattr(args, "trace", None)
    if flag is None:
        return None
    return _TraceSession(flag or DEFAULT_TRACE_DIR, kind)


def _trace_epilogue(trace) -> None:
    if trace is not None:
        print(f"trace written to {trace.path} (run {trace.run_id})")


def _resolve_cache_dir(args: argparse.Namespace):
    """The cache directory the flags/environment select, or ``None``.

    ``--no-cache`` beats everything; ``--cache [DIR]`` enables with an
    explicit or default directory; otherwise the cache is on exactly
    when ``$REPRO_SCHEDULE_CACHE`` names a directory.
    """
    import os
    from pathlib import Path

    from repro.fastpath import CACHE_DIR_ENV, default_cache_dir

    if getattr(args, "no_cache", False):
        return None
    flag = getattr(args, "cache", None)
    if flag is None:
        return default_cache_dir() if os.environ.get(CACHE_DIR_ENV) else None
    return Path(flag) if flag else default_cache_dir()


def _cache_epilogue(cache) -> None:
    """One provenance line so cache behaviour is visible in run logs."""
    stats = cache.stats
    print(
        f"schedule cache: {stats.hits} hit(s), {stats.misses} miss(es), "
        f"{stats.corrupt} corrupt in {cache.root}"
    )
    if stats.chunk_hits or stats.chunk_stores:
        print(
            f"schedule cache: {stats.chunk_hits} chunk hit(s), "
            f"{stats.chunk_stores} chunk store(s)"
        )


def _cmd_run(args: argparse.Namespace) -> int:
    strategy = get_strategy(args.strategy)
    schedule = strategy.run(args.dimension)
    if args.homebase:
        schedule = schedule.translated(args.homebase)
    report = verify_schedule(schedule)
    print(compute_metrics(schedule).describe())
    print(report.summary())
    if args.show_order:
        from repro.viz.order_render import render_cleaning_order

        print(render_cleaning_order(schedule))
    if args.watch:
        from repro.viz.state_render import render_frames

        for frame in render_frames(schedule):
            print(frame)
            print()
    if args.save:
        from pathlib import Path

        Path(args.save).write_text(schedule.to_json())
        print(f"schedule written to {args.save}")
    return 0 if report.ok else 1


def _executor_requested(args: argparse.Namespace) -> bool:
    """Whether the parallel-execution flags ask for the executor path."""
    return args.jobs != 1 or args.resume is not None or args.timeout is not None


def _executor_config(args: argparse.Namespace):
    from repro.exec import ExecutorConfig

    return ExecutorConfig(jobs=args.jobs, timeout=args.timeout, retries=args.retries)


def _executor_epilogue(outcomes) -> None:
    """One summary line per retried/failed cell (the failure contract:
    errors surface as table rows plus these notes, never tracebacks)."""
    for outcome in outcomes:
        if not outcome.ok:
            print(f"FAILED {outcome.key} after {outcome.attempts} attempt(s): {outcome.error}")
        elif outcome.attempts > 1:
            print(f"retried {outcome.key}: ok on attempt {outcome.attempts}")


def _write_merged_manifest_for(resume: str, outcomes, kind: str) -> None:
    from pathlib import Path

    from repro.exec import write_merged_manifest

    target = Path(resume).with_suffix(".manifest.json")
    write_merged_manifest(target, outcomes, extra={"batch": kind})
    print(f"merged manifest written to {target}")


def _cmd_experiment(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.errors import ReproError

    cache_dir = _resolve_cache_dir(args)
    trace = _trace_session(args, "experiment")
    if _executor_requested(args):
        from repro.exec import parallel_experiments

        ids = None if args.id is None else [args.id]
        try:
            with trace or nullcontext():
                results, outcomes = parallel_experiments(
                    ids,
                    _executor_config(args),
                    checkpoint=args.resume,
                    cache_dir=cache_dir,
                    metrics=trace.registry if trace else None,
                    tracer=trace.tracer if trace else None,
                )
        except ReproError as exc:
            print(f"repro-search experiment: {exc}", file=sys.stderr)
            return 2
        for result in results:
            print(result.render())
            print()
        _executor_epilogue(outcomes)
        if args.resume:
            _write_merged_manifest_for(args.resume, outcomes, "experiment")
        _trace_epilogue(trace)
        return 0 if all(r.passed for r in results) else 1

    from repro.analysis.experiments import run_all, run_experiment
    from repro.core.strategy import set_active_cache

    cache = None
    if cache_dir is not None:
        from repro.fastpath import ScheduleCache

        cache = ScheduleCache(cache_dir)
        if trace is not None:
            cache.bind_metrics(trace.registry)
            cache.bind_tracer(trace.tracer)
    previous = set_active_cache(cache)
    try:
        with trace or nullcontext():
            results = run_all() if args.id is None else [run_experiment(args.id)]
    finally:
        set_active_cache(previous)
    for result in results:
        print(result.render())
        print()
    if cache is not None:
        _cache_epilogue(cache)
    _trace_epilogue(trace)
    return 0 if all(r.passed for r in results) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.errors import ReproError

    cache_dir = _resolve_cache_dir(args)
    trace = _trace_session(args, "sweep")
    outcomes = None
    cache = None
    if _executor_requested(args):
        from repro.exec import parallel_sweep

        try:
            with trace or nullcontext():
                sweep, rows, outcomes = parallel_sweep(
                    args.strategies,
                    args.dimensions,
                    _executor_config(args),
                    checkpoint=args.resume,
                    cache_dir=cache_dir,
                    metrics=trace.registry if trace else None,
                    tracer=trace.tracer if trace else None,
                    chunk_moves=args.chunk_moves,
                )
        except ReproError as exc:
            print(f"repro-search sweep: {exc}", file=sys.stderr)
            return 2
    else:
        from repro.analysis.sweeps import run_sweep
        from repro.core.chunkstream import DEFAULT_CHUNK_MOVES
        from repro.fastpath import ScheduleCache

        if cache_dir is not None:
            cache = ScheduleCache(cache_dir)
            if trace is not None:
                cache.bind_metrics(trace.registry)
                cache.bind_tracer(trace.tracer)
        try:
            with trace or nullcontext():
                sweep, rows = run_sweep(
                    args.strategies,
                    args.dimensions,
                    cache=cache,
                    chunk_moves=args.chunk_moves or DEFAULT_CHUNK_MOVES,
                )
        except ReproError as exc:
            print(f"repro-search sweep: {exc}", file=sys.stderr)
            return 2
    print(sweep.to_text(rows))
    if cache is not None:
        _cache_epilogue(cache)
    elif cache_dir is not None:
        # parallel path: the counters live in the workers; per-cell
        # provenance lands in the merged manifest instead
        print(f"schedule cache: shared directory {cache_dir}")
    if outcomes is not None:
        _executor_epilogue(outcomes)
        if args.resume:
            _write_merged_manifest_for(args.resume, outcomes, "sweep")
    if args.csv:
        if not _write_text_file(args.csv, sweep.to_csv(rows), "CSV"):
            return 2
    _trace_epilogue(trace)
    return 0 if all(row.ok for row in rows) else 1


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.fastpath.batchsim import BatchScenarioSpec

    try:
        spec = BatchScenarioSpec(
            dimension=args.dimension,
            strategy=args.strategy,
            trials=args.trials,
            intruder=args.intruder,
            seeds_per_trial=args.seeds_per_trial,
            intruder_count=args.intruder_count,
            delay=args.delays,
            delay_low=args.delay_low,
            delay_high=args.delay_high,
            delay_factor=args.delay_factor,
            delay_period=args.delay_period,
            rotate_homebase=args.rotate_homebase,
            rng_seed=args.seed,
        )
    except ReproError as exc:
        print(f"repro-search montecarlo: {exc}", file=sys.stderr)
        return 2

    from contextlib import nullcontext

    trace = _trace_session(args, "montecarlo")
    outcomes = None
    if _executor_requested(args):
        from repro.exec import parallel_montecarlo

        try:
            with trace or nullcontext():
                result, outcomes = parallel_montecarlo(
                    spec,
                    _executor_config(args),
                    shards=args.shards,
                    checkpoint=args.resume,
                    metrics=trace.registry if trace else None,
                    tracer=trace.tracer if trace else None,
                )
        except ReproError as exc:
            print(f"repro-search montecarlo: {exc}", file=sys.stderr)
            return 2
    else:
        from repro.fastpath.batchsim import run_batch
        from repro.obs import MetricsRegistry

        registry = trace.registry if trace else MetricsRegistry()
        try:
            with trace or nullcontext():
                result = run_batch(
                    spec,
                    metrics=registry,
                    tracer=trace.tracer if trace else None,
                )
        except ReproError as exc:
            print(f"repro-search montecarlo: {exc}", file=sys.stderr)
            return 2
    print(result.describe())
    if outcomes is not None:
        _executor_epilogue(outcomes)
        if args.resume:
            _write_merged_manifest_for(args.resume, outcomes, "montecarlo")
    if args.json:
        import json

        from repro.obs import build_manifest

        summary = result.summary()
        payload = {
            "manifest": build_manifest(extra={"montecarlo": summary}),
            "montecarlo": summary,
        }
        if not _write_text_file(
            args.json, json.dumps(payload, indent=2, sort_keys=True), "summary"
        ):
            return 2
    _trace_epilogue(trace)
    missing = result.counters.get("missing_trials", 0)
    return 0 if result.count and not missing else 1


def _write_text_file(target: str, text: str, label: str) -> bool:
    """Write ``text`` (newline-terminated, parents created); ``False`` +
    a clean stderr message instead of a traceback when the path is
    unwritable."""
    from pathlib import Path

    path = Path(target)
    if not text.endswith("\n"):
        text += "\n"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        print(f"repro-search: cannot write {label} to {target}: {exc}", file=sys.stderr)
        return False
    print(f"{label} written to {target}")
    return True


def _cmd_verify(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.schedule import Schedule

    schedule = Schedule.from_json(Path(args.file).read_text())
    report = verify_schedule(schedule)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_table(args: argparse.Namespace) -> int:
    names = ["clean", "visibility", "cloning", "synchronous"]
    header = f"{'d':>3} {'n':>6} | " + " | ".join(f"{s:^24}" for s in names)
    sub = f"{'':>3} {'':>6} | " + " | ".join(f"{'agents/moves/steps':^24}" for _ in names)
    print(header)
    print(sub)
    print("-" * len(header))
    for d in args.dimensions:
        cells = []
        for name in names:
            schedule = get_strategy(name).run(d)
            cells.append(
                f"{schedule.team_size:>7}/{schedule.total_moves:>7}/{schedule.makespan:>6}"
            )
        print(f"{d:>3} {1 << d:>6} | " + " | ".join(f"{c:^24}" for c in cells))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.which == "fig1":
        from repro.viz.tree_render import render_broadcast_tree, render_level_table

        d = args.dimension if args.dimension is not None else 6
        print(render_broadcast_tree(d))
        print()
        print(render_level_table(d))
    elif args.which == "fig3":
        from repro.viz.class_render import render_classes

        d = args.dimension if args.dimension is not None else 4
        print(render_classes(d))
    elif args.which == "profile":
        from repro.viz.profile_render import render_deployment_profile

        d = args.dimension if args.dimension is not None else 5
        for name in ("clean", "visibility"):
            print(render_deployment_profile(get_strategy(name).run(d), max_rows=40))
            print()
    elif args.which == "scoreboard":
        from repro.analysis.lower_bounds import monotone_agents_lower_bound
        from repro.search.harper import harper_sweep_schedule

        d_max = args.dimension if args.dimension is not None else 9
        print(f"{'d':>3} {'LB':>6} {'harper':>7} {'clean':>7} {'visibility':>11}")
        for d in range(1, d_max + 1):
            print(
                f"{d:>3} {monotone_agents_lower_bound(d):>6} "
                f"{harper_sweep_schedule(d).team_size:>7} "
                f"{formulas.clean_peak_agents(d):>7} "
                f"{formulas.visibility_agents(d):>11}"
            )
    else:
        from repro.viz.order_render import render_cleaning_order, render_wave_table

        d = args.dimension if args.dimension is not None else 4
        name = "clean" if args.which == "fig2" else "visibility"
        schedule = get_strategy(name).run(d)
        print(render_cleaning_order(schedule))
        print()
        print(render_wave_table(schedule))
    return 0


def _protocol_runner(name: str):
    """Map a CLI protocol name to its runner function."""
    from repro.protocols import (
        run_clean_protocol,
        run_cloning_protocol,
        run_synchronous_protocol,
        run_visibility_protocol,
    )

    return {
        "clean": run_clean_protocol,
        "visibility": run_visibility_protocol,
        "cloning": run_cloning_protocol,
        "synchronous": run_synchronous_protocol,
    }[name]


def _make_delay(kind: str, seed: int):
    from repro.sim.scheduling import RandomDelay, UnitDelay

    return UnitDelay() if kind == "unit" else RandomDelay(seed=seed)


def _cmd_simulate(args: argparse.Namespace) -> int:
    delay = _make_delay(args.delays, args.seed)
    intruder = "walker" if args.walker_intruder else "reachable"
    runner = _protocol_runner(args.protocol)
    result = runner(args.dimension, delay=delay, intruder=intruder)
    print(result.summary())
    return 0 if result.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import SimMetricsCollector, render_report, standard_probes

    collector = SimMetricsCollector()
    subscribers = [collector]
    probes = []
    if args.probes != "off":
        probes = standard_probes(mode=args.probes)
        subscribers.extend(probes)

    runner = _protocol_runner(args.protocol)
    result = runner(
        args.dimension,
        delay=_make_delay(args.delays, args.seed),
        subscribers=subscribers,
    )
    snapshot = collector.snapshot()
    title = f"{args.protocol} protocol, d={args.dimension} (n={1 << args.dimension})"
    print(render_report(snapshot, title=title))
    print()
    print(result.summary())
    violations = [v for probe in probes for v in probe.violations]
    for violation in violations:
        print(f"PROBE: {violation.describe()}")
    git = result.manifest.get("git") or "unknown"
    print(f"manifest: {result.manifest.get('schema')} @ {git}")
    if args.json:
        import json
        from pathlib import Path

        from repro.obs import report_payload

        payload = {
            "manifest": result.manifest,
            "metrics": snapshot,
            "report": report_payload(snapshot),
        }
        Path(args.json).write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"snapshot written to {args.json}")
    return 0 if result.ok and not violations else 1


def _cmd_watch(args: argparse.Namespace) -> int:
    import contextlib

    from repro.obs import JsonlStreamer

    runner = _protocol_runner(args.protocol)
    with contextlib.ExitStack() as stack:
        if args.output:
            fh = stack.enter_context(open(args.output, "w"))
        else:
            fh = sys.stdout
        streamer = JsonlStreamer(fh, mask_fields=args.masks)
        subscriber = streamer
        if args.kinds:
            wanted = frozenset(args.kinds)

            def subscriber(event, _streamer=streamer, _wanted=wanted):
                if event.kind in _wanted:
                    _streamer(event)

        # events leave via the streamer; keep only a small trace window
        result = runner(
            args.dimension,
            delay=_make_delay(args.delays, args.seed),
            subscribers=[subscriber],
            trace_maxlen=64,
        )
        streamer.write_record({"record": "manifest", **result.manifest})
    if args.output:
        print(f"{streamer.count} events -> {args.output}")
    return 0 if result.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import RunLog, read_runlog, render_trace

    target = Path(args.path) if args.path else Path(DEFAULT_TRACE_DIR)
    if target.is_dir():
        latest = RunLog(target).latest()
        if latest is None:
            print(
                f"repro-search trace: no runs indexed under {target}", file=sys.stderr
            )
            return 2
        target = latest
    try:
        data = read_runlog(target)
    except OSError as exc:
        print(f"repro-search trace: cannot read {target}: {exc}", file=sys.stderr)
        return 2
    status = (data.end or {}).get("status", "incomplete")
    print(f"run {data.run_id or '?'}  [{data.schema or '?'}]  status: {status}")
    if data.manifest:
        git = data.manifest.get("git") or "unknown"
        print(f"manifest: {data.manifest.get('schema')} @ {git}")
    print()
    if data.spans:
        print(render_trace(data.spans, top=args.top, max_depth=args.max_depth))
    else:
        print("(no spans recorded)")
    counters = data.counters
    if counters:
        print()
        print("counters:")
        for name in sorted(counters):
            print(f"  {name} = {counters[name]:g}")
    if data.events:
        print(f"{len(data.events)} event record(s)")
    return 0 if data.complete else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import to_prometheus

    if args.runlog:
        from repro.obs import read_runlog

        try:
            data = read_runlog(args.runlog)
        except OSError as exc:
            print(
                f"repro-search metrics: cannot read {args.runlog}: {exc}",
                file=sys.stderr,
            )
            return 2
        if not data.metrics:
            print(
                f"repro-search metrics: no metrics records in {args.runlog}",
                file=sys.stderr,
            )
            return 2
        snapshot = data.metrics[-1]
    elif args.dimension is not None:
        from repro.obs import SimMetricsCollector

        collector = SimMetricsCollector()
        runner = _protocol_runner(args.protocol)
        runner(
            args.dimension,
            delay=_make_delay(args.delays, args.seed),
            subscribers=[collector],
        )
        snapshot = collector.snapshot()
    else:
        print(
            "repro-search metrics: pass --runlog FILE or -d DIMENSION",
            file=sys.stderr,
        )
        return 2
    text = to_prometheus(snapshot)
    if args.output:
        if not _write_text_file(args.output, text, "metrics"):
            return 2
    else:
        print(text, end="")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import ScheduleCacheError
    from repro.fastpath import ScheduleCache, default_cache_dir

    root = Path(args.dir) if args.dir else default_cache_dir()
    try:
        cache = ScheduleCache(root)
    except ScheduleCacheError as exc:
        print(f"repro-search cache: {exc}", file=sys.stderr)
        return 2
    if args.action == "info":
        info = cache.info()
        print(f"root        : {info['root']}")
        print(f"entries     : {info['entries']}")
        print(f"total bytes : {info['total_bytes']}")
        return 0
    removed = cache.clear()
    print(f"removed {removed} file(s) from {cache.root}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


def _cmd_formulas(args: argparse.Namespace) -> int:
    d = args.dimension
    h = Hypercube(d)
    print(f"H_{d}: n={h.n}, edges={h.num_edges}")
    print(f"CLEAN peak agents (Thm 2)         : {formulas.clean_peak_agents(d)}")
    print(f"CLEAN agent moves (Thm 3)         : {formulas.clean_agent_moves_exact(d)}")
    print(f"CLEAN sync moves upper bound      : {formulas.clean_sync_moves_upper_bound(d)}")
    print(f"visibility agents (Thm 5)         : {formulas.visibility_agents(d)}")
    print(f"visibility steps (Thm 7)          : {formulas.visibility_time_steps(d)}")
    print(f"visibility moves (Thm 8)          : {formulas.visibility_moves_exact(d)}")
    print(f"cloning agents / moves (Sec 5)    : {formulas.cloning_agents(d)} / {formulas.cloning_moves(d)}")
    print(f"CLEAN-with-cloning agents (Sec 5) : {formulas.clean_with_cloning_agents(d)}")
    for level in range(1, d):
        print(
            f"  extras before level {level}->{level + 1} (Lemma 3): "
            f"{formulas.extra_agents_for_level(d, level)}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-search`` console script.

    A downstream pipe closing early (``repro-search trace | head``) is a
    normal way to consume the streaming subcommands, not an error: the
    resulting ``BrokenPipeError`` exits quietly with the conventional
    SIGPIPE status instead of a traceback.
    """
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # reopen stdout on devnull so the interpreter's shutdown flush
        # does not raise a second BrokenPipeError over the first
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13


def _dispatch(argv: Optional[List[str]]) -> int:
    """Parse ``argv`` and invoke the matching subcommand handler."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "table": _cmd_table,
        "figure": _cmd_figure,
        "simulate": _cmd_simulate,
        "formulas": _cmd_formulas,
        "lint": _cmd_lint,
        "verify": _cmd_verify,
        "experiment": _cmd_experiment,
        "sweep": _cmd_sweep,
        "montecarlo": _cmd_montecarlo,
        "cache": _cmd_cache,
        "report": _cmd_report,
        "watch": _cmd_watch,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
