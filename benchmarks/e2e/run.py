"""One end-to-end benchmark for the hypercube-search reproduction.

Usage::

    python3 benchmarks/e2e/run.py --seed 2005 [--out FILE] [--preset smoke]
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload of ``BENCHMARK.json`` runs, each in
a fresh child interpreter (one untraced child, then one traced child), one
after another, so a child's peak RSS belongs to its workload alone.  The
command prints every metric by name with its unit, checks every output,
and writes one ``repro-bench/v1`` record (default
``.e2e-work/record-<seed>.json``) holding the git revision, the python and
numpy versions, the CPUs available, the seed and every raw sample.

With ``--workload`` one workload runs in this process.  Its set-up — the
imports plus, for ``warm-sweep``, the cold cache fill — runs three times
in fresh interpreters and ``setup_s`` is their median; then repetitions
run for ``--seconds``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The traced run
spends a third of its time on untraced repetitions (the baseline of the
tracing overhead) and the rest traced; its spans are written as a
``repro-trace/v1`` RunLog under ``.e2e-work/runlogs/`` that
``repro-search trace FILE`` renders.

Everything the benchmark writes stays under ``.e2e-work/`` in the
checkout, and the program is imported from the checkout's ``src/``: run
anywhere else, the command exits with status 2 before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2e-work"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: fresh-interpreter set-ups per untraced run; ``setup_s`` is their median
SETUP_PROBES = 3

#: window of one run with ``--preset smoke`` (the full preset reads
#: ``run_seconds`` from BENCHMARK.json)
SMOKE_SECONDS = 1.0

#: longest a full-mode child may take before it is killed
CHILD_TIMEOUT_S = 900


def _program_missing() -> Optional[str]:
    """Put this checkout's ``src/`` first on the path; say why it cannot be."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program to measure: {SRC / 'repro'} does not exist"
    if not BENCHMARK_FILE.is_file():
        return f"no benchmark definition: {BENCHMARK_FILE} does not exist"
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        return f"imported repro from {repro.__file__}, not from {SRC}"
    return None


def _confine_to_checkout() -> None:
    """Keep temporary files and git's repository search inside the checkout."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)


def _definition() -> Dict[str, Any]:
    return json.loads(BENCHMARK_FILE.read_text())


def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _peak_rss_mib() -> float:
    """Largest RSS of this process or any child it waited for (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# --------------------------------------------------------------------- #
# one workload, in this process
# --------------------------------------------------------------------- #


def _child_command(args: argparse.Namespace, workload: str, *extra: str) -> List[str]:
    """This script on ``workload``, with ``args``'s seed and preset."""
    return [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(args.seed),
        "--preset", args.preset,
        *extra,
    ]


def _set_up(args: argparse.Namespace, work: Path, probes: int) -> List[float]:
    """Run the workload's set-up ``probes`` times, each in a fresh
    interpreter; returns each one's wall time.  The last one's state stays
    in ``work``."""
    seconds = []
    for _ in range(probes):
        started = perf_counter()
        done = subprocess.run(
            _child_command(args, args.workload, "--setup-only", "--work", str(work)),
            stdout=subprocess.DEVNULL,
            check=False,
        )
        seconds.append(perf_counter() - started)
        if done.returncode != 0:
            raise RuntimeError(f"{args.workload} set-up exited with status {done.returncode}")
    return seconds


def _measure(workload: Any, seconds: float, min_reps: int, tracer: Any = None) -> List[Tuple[float, Any]]:
    """Repetitions until the next would end past ``seconds`` (at least
    ``min_reps``); returns ``(wall seconds, RepOutcome)`` per repetition."""
    samples: List[Tuple[float, Any]] = []
    started = perf_counter()
    while True:
        workload.before_rep()
        rep_started = perf_counter()
        if tracer is None:
            raw = workload.rep()
        else:
            with tracer.span("bench.rep", workload=workload.name, rep=len(samples)):
                raw = workload.rep(tracer)
        wall = perf_counter() - rep_started
        samples.append((wall, workload.judge(raw)))
        if len(samples) >= min_reps and perf_counter() - started + wall > seconds:
            return samples


def _tally(samples: Sequence[Tuple[float, Any]]) -> Dict[str, Any]:
    outcomes = [outcome for _, outcome in samples]
    return {
        "attempted": sum(o.ops for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "problems": [p for o in outcomes for p in o.problems],
    }


def _policy_rates(samples: Sequence[Tuple[float, Any]]) -> Dict[str, List[float]]:
    """Trials per second of each Monte Carlo policy, one value per repetition."""
    rates: Dict[str, List[float]] = {}
    for _, outcome in samples:
        for policy, seconds in outcome.parts.items():
            trials = outcome.counters.get(f"{policy}.trials", 0)
            rates.setdefault(policy, []).append(trials / seconds)
    return rates


def _untraced(args: argparse.Namespace, workload: Any, work: Path) -> Tuple[Dict[str, float], Dict[str, Any]]:
    setup = _set_up(args, work, SETUP_PROBES)
    workload.open(work)
    samples = _measure(workload, args.seconds, workload.min_reps)
    raw = {
        "wall_s": [wall for wall, _ in samples],
        "work_per_s": [outcome.work / wall for wall, outcome in samples],
        "setup_s": setup,
    }
    for policy, rates in _policy_rates(samples).items():
        raw[f"{policy}_trials_per_s"] = rates
    values = {name: statistics.median(series) for name, series in raw.items()}
    values["peak_rss_mib"] = _peak_rss_mib()
    detail = {
        **_tally(samples),
        "samples": raw,
        "quartiles": {name: _quartiles(series) for name, series in raw.items()},
        "counters": samples[0][1].counters,
    }
    return values, detail


def _traced(args: argparse.Namespace, workload: Any, work: Path) -> Tuple[Dict[str, float], Dict[str, Any]]:
    from repro.fastpath import ScheduleCache
    from repro.obs import RunLog, build_manifest
    from repro.obs.trace import Tracer, set_active_tracer

    import tracing

    _set_up(args, work, 1)
    workload.open(work)
    baseline = _measure(workload, args.seconds / 3, 2)
    tracer = Tracer()
    with tracing.Instrumentation():
        previous = set_active_tracer(tracer)
        try:
            traced = _measure(workload, args.seconds * 2 / 3, 2, tracer)
        finally:
            set_active_tracer(previous)
    records = tracing.kept_records(tracer.to_records())
    values, unaccounted = tracing.layer_metrics(records, len(traced))
    traced_wall = statistics.median(wall for wall, _ in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead"] = traced_wall / statistics.median(wall for wall, _ in baseline)
    cache_dir = work / "cache"
    values["fastpath.cache.entry_bytes"] = (
        float(ScheduleCache(cache_dir).info()["total_bytes"]) if cache_dir.is_dir() else 0.0
    )
    rates = _policy_rates(baseline)
    for policy in ("reachable", "inert", "walker"):
        series = rates.get(policy)
        values[f"fastpath.batchsim.{policy}_trials_per_s"] = (
            statistics.median(series) if series else 0.0
        )

    runlogs = RunLog(WORK / "runlogs")
    with runlogs.writer(tracer.run_id) as writer:
        writer.begin(
            build_manifest(
                seed=args.seed,
                extra={"benchmark": "e2e", "workload": workload.name, "preset": args.preset},
            )
        )
        writer.write_spans(records)
        writer.write_metrics({"counters": values})
    detail = {
        **_tally(baseline + traced),
        "runlog": str(writer.path.relative_to(ROOT)),
        "unaccounted": unaccounted,
        "samples": {
            "untraced_wall_s": [wall for wall, _ in baseline],
            "traced_wall_s": [wall for wall, _ in traced],
        },
    }
    return values, detail


def run_workload(args: argparse.Namespace, workload: Any) -> int:
    definition = _definition()
    kind = "per_layer" if args.trace else "end_to_end"
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            values, detail = _traced(args, workload, work)
        else:
            values, detail = _untraced(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in definition[kind]
    }
    for problem in detail["problems"]:
        print(f"{args.workload}: FAILED {problem}")
    for name, metric in metrics.items():
        print(f"{args.workload}: {name} = {metric['value']:.6g} {metric['unit']}")
    if args.trace and values["trace.unaccounted_pct"] > 5.0:
        names = ", ".join(f"{name} ({seconds:.3f} s)" for name, seconds in detail["unaccounted"])
        print(f"{args.workload}: layers cover less than 95% of the traced time; unaccounted: {names}")
    if args.detail:
        Path(args.detail).write_text(json.dumps({"metrics": values, **detail}, indent=1) + "\n")
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------- #
# every workload, each in fresh children
# --------------------------------------------------------------------- #


def _run_child(args: argparse.Namespace, name: str, trace: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One workload in a fresh child; its result line and its detail."""
    detail_path = WORK / f"detail-{name}-{trace}-{os.getpid()}.json"
    command = _child_command(
        args, name, "--seconds", repr(args.seconds), "--trace", str(trace), "--detail", str(detail_path)
    )
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False
    )
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{name} (trace={trace}) exited with status {done.returncode}")
    try:
        detail = json.loads(detail_path.read_text())
    finally:
        detail_path.unlink(missing_ok=True)
    return json.loads(lines[-1]), detail


def run_all(args: argparse.Namespace, names: Sequence[str]) -> int:
    from repro.obs.manifest import git_revision

    record: Dict[str, Any] = {
        "schema": "repro-bench/v1",
        "git": git_revision(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpus_available": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "preset": args.preset,
        "seconds": args.seconds,
        "workloads": {},
    }
    for name in names:
        result, detail = _run_child(args, name, 0)
        traced, traced_detail = _run_child(args, name, 1)
        attempted = result["attempted"] + traced["attempted"]
        failed = result["failed"] + traced["failed"]
        metrics = {}
        for metric, reported in result["metrics"].items():
            q1, q3 = detail["quartiles"].get(metric, (None, None))
            n = len(detail["samples"].get(metric, [reported["value"]]))
            metrics[metric] = {**reported, "q1": q1, "q3": q3, "n": n}
        metrics["ops_failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
        record["workloads"][name] = {
            "correct": result["correct"] and traced["correct"],
            "attempted": attempted,
            "failed": failed,
            "problems": detail["problems"] + traced_detail["problems"],
            "metrics": metrics,
            "samples": {**detail["samples"], **traced_detail["samples"]},
            "counters": detail["counters"],
            "layers": traced["metrics"],
            "trace": {
                "runlog": traced_detail["runlog"],
                "wall_s": traced_detail["metrics"]["trace.wall_s"],
                "overhead": traced_detail["metrics"]["trace.overhead"],
                "unaccounted_pct": traced_detail["metrics"]["trace.unaccounted_pct"],
                "unaccounted": traced_detail["unaccounted"],
            },
        }

    print()
    print(f"{'workload':<16} {'metric':<16} {'median':>14} {'q1':>12} {'q3':>12}  n  unit")
    for name, entry in record["workloads"].items():
        for metric, m in entry["metrics"].items():
            q1 = "" if m.get("q1") is None else f"{m['q1']:.6g}"
            q3 = "" if m.get("q3") is None else f"{m['q3']:.6g}"
            print(
                f"{name:<16} {metric:<16} {m['value']:>14.6g} {q1:>12} {q3:>12} "
                f"{m.get('n', 1):>2}  {m['unit']}"
            )
        trace = entry["trace"]
        print(
            f"{name:<16} traced wall {trace['wall_s']:.4g} s, overhead x{trace['overhead']:.3f}, "
            f"unaccounted {trace['unaccounted_pct']:.2f}%, runlog {trace['runlog']}"
        )
    out = Path(args.out) if args.out else WORK / f"record-{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record written to {out}")
    return 0 if all(entry["correct"] for entry in record["workloads"].values()) else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, help="measuring window of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preset", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="where the full run writes its record")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    problem = _program_missing()
    if problem is not None:
        print(f"run.py: {problem}", file=sys.stderr)
        return 2
    _confine_to_checkout()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.preset == "smoke" else float(_definition()["run_seconds"])
    import workloads

    if args.workload is None:
        return run_all(args, workloads.workload_names())
    if args.workload not in workloads.workload_names():
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.preset, args.seed)
    if args.setup_only:
        workload.setup(Path(args.work))
        return 0
    return run_workload(args, workload)


if __name__ == "__main__":
    sys.exit(main())
