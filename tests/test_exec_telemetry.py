"""Deterministic cross-process telemetry merge (the tentpole contract).

Workers ship their span forest + metrics delta back over the result pipe;
the parent merges in job-definition order.  These drills pin the
determinism claims: shuffled completion order, crash-requeued workers and
resume-from-checkpoint must all produce byte-identical merged counters
and worker-span-tree digests.
"""

import json
import random

import pytest

from repro.exec import (
    CRASH_ENV,
    ExecutorConfig,
    Job,
    ParallelExecutor,
    merge_outcome_telemetry,
    montecarlo_jobs,
)
from repro.fastpath.batchsim import BatchScenarioSpec, run_batch
from repro.obs import MetricsRegistry, Tracer, span_tree_digest

FAST = dict(backoff_base=0.0, backoff_factor=1.0, backoff_max=0.0)

#: Counter families whose merged totals are shard-invariant.  Per-shard
#: memoization counters (``timelines_built``, ``inert_seed_cached``) are
#: legitimately shard-dependent — each worker warms its own caches.
CORE = (
    "fastpath.batchsim.trials",
    "fastpath.batchsim.captures",
    "fastpath.batchsim.escapes",
)


def spec(trials: int = 12) -> BatchScenarioSpec:
    return BatchScenarioSpec(
        strategy="visibility",
        dimension=4,
        trials=trials,
        intruder="inert",
        rng_seed=7,
    )


def run_parallel(jobs: int = 2, shards: int = 3, checkpoint=None, **cfg):
    """(outcomes, merged registry, parent tracer) for a sharded campaign."""
    tracer = Tracer(run_id="fixed-run")
    registry = MetricsRegistry()
    executor = ParallelExecutor(
        ExecutorConfig(jobs=jobs, **cfg), metrics=registry, tracer=tracer
    )
    if checkpoint is not None:
        from repro.exec import Checkpoint

        with Checkpoint(checkpoint) as ckpt:
            outcomes = executor.run(montecarlo_jobs(spec(), shards), checkpoint=ckpt)
    else:
        outcomes = executor.run(montecarlo_jobs(spec(), shards))
    return outcomes, registry, tracer


def counters_of(registry: MetricsRegistry):
    return registry.snapshot()["counters"]


def worker_counters(registry: MetricsRegistry):
    """The worker-merged counter families, canonically serialized.

    Parent-side ``exec.*`` bookkeeping (crashes, retries, cached hits) is
    excluded: a crash-requeued or resumed run *really did* crash or hit
    the checkpoint, and the counters must say so — it is the merged
    worker telemetry that the byte-identity contract pins.
    """
    return json.dumps(
        {k: v for k, v in counters_of(registry).items() if not k.startswith("exec.")},
        sort_keys=True,
    )


def worker_digest(outcomes) -> str:
    """Digest of the worker-shipped span forests only, in job-key order.

    Parent-side ``exec.attempt`` spans legitimately differ under
    crash-requeue (the killed attempt never ships records), so the
    byte-identity contract covers the work the workers *completed*.
    """
    tracer = Tracer(run_id="digest")
    for outcome in sorted(outcomes, key=lambda o: o.key):
        tracer.attach((outcome.telemetry or {}).get("spans") or [])
    return span_tree_digest(tracer.to_records())


class TestWorkerCapture:
    def test_outcomes_carry_spans_and_metrics(self):
        outcomes, _, _ = run_parallel()
        for outcome in outcomes:
            names = [s["name"] for s in outcome.telemetry["spans"]]
            assert names[0] == "worker.job"
            assert "fastpath.run_batch" in names
            assert outcome.telemetry["metrics"]["counters"]["fastpath.batchsim.trials"] == 4

    def test_capture_off_without_sinks(self):
        executor = ParallelExecutor(ExecutorConfig(jobs=2))
        outcomes = executor.run(
            [Job(key=f"echo:{i}", task="echo", payload={"i": i}, index=i) for i in range(2)]
        )
        assert all(o.telemetry is None for o in outcomes)

    def test_parent_tree_nests_worker_spans(self):
        _, _, tracer = run_parallel()
        records = tracer.to_records()
        by_id = {r["span"]: r for r in records}
        roots = [r for r in records if r["parent"] is None]
        assert [r["name"] for r in roots] == ["exec.run"]
        job_spans = [r for r in records if r["name"] == "exec.job"]
        assert len(job_spans) == 3
        for worker_span in (r for r in records if r["name"] == "worker.job"):
            assert by_id[worker_span["parent"]]["name"] == "exec.job"


class TestMergedCounters:
    def test_sharded_matches_serial_campaign(self):
        serial = MetricsRegistry()
        run_batch(spec(), metrics=serial)
        _, merged, _ = run_parallel()
        serial_counters = counters_of(serial)
        merged_counters = counters_of(merged)
        for name in CORE:
            assert merged_counters.get(name, 0) == serial_counters.get(name, 0)

    def test_merge_is_order_insensitive(self):
        outcomes, merged, _ = run_parallel()
        shuffled = list(outcomes)
        random.Random(13).shuffle(shuffled)
        replay = merge_outcome_telemetry(shuffled)
        assert worker_counters(replay) == worker_counters(merged)

    def test_jobs_4_equals_jobs_2(self):
        _, two, _ = run_parallel(jobs=2)
        _, four, _ = run_parallel(jobs=4)
        assert json.dumps(counters_of(two), sort_keys=True) == json.dumps(
            counters_of(four), sort_keys=True
        )


class TestCrashRequeue:
    def test_crashed_worker_telemetry_is_byte_identical(self, monkeypatch):
        baseline, base_reg, _ = run_parallel(retries=2, **FAST)
        monkeypatch.setenv(CRASH_ENV, "montecarlo:visibility:d=4:trials=4..8::1")
        crashed, crash_reg, crash_tracer = run_parallel(retries=2, **FAST)
        by_key = {o.key: o for o in crashed}
        assert by_key["montecarlo:visibility:d=4:trials=4..8"].attempts == 2
        assert worker_counters(base_reg) == worker_counters(crash_reg)
        assert worker_digest(baseline) == worker_digest(crashed)
        # the retry is visible as a distinct attempt span, not hidden
        attempts = [
            r
            for r in crash_tracer.to_records()
            if r["name"] == "exec.attempt" and r["attrs"]["outcome"] == "crash"
        ]
        assert len(attempts) == 1


class TestResume:
    def test_resume_restores_merged_telemetry(self, tmp_path):
        path = tmp_path / "run.jsonl"
        first, first_reg, _ = run_parallel(checkpoint=path)
        second, second_reg, _ = run_parallel(checkpoint=path)
        assert all(o.cached for o in second)
        assert all(o.telemetry is not None for o in second)
        assert worker_counters(first_reg) == worker_counters(second_reg)
        assert worker_digest(first) == worker_digest(second)

    def test_digest_is_replay_invariant_across_modes(self, tmp_path, monkeypatch):
        """One digest for shuffled, crashed and resumed executions."""
        path = tmp_path / "run.jsonl"
        plain, _, _ = run_parallel()
        resumed_seed, _, _ = run_parallel(checkpoint=path)
        resumed, _, _ = run_parallel(checkpoint=path)
        monkeypatch.setenv(CRASH_ENV, "montecarlo:visibility:d=4:trials=0..4::1")
        crashed, _, _ = run_parallel(retries=2, **FAST)
        digests = {
            worker_digest(plain),
            worker_digest(resumed_seed),
            worker_digest(resumed),
            worker_digest(crashed),
        }
        assert len(digests) == 1


class TestMergeHelper:
    def test_accepts_outcomes_without_telemetry(self):
        outcomes, _, _ = run_parallel()
        stripped = [o for o in outcomes[:1]]
        merged = merge_outcome_telemetry(stripped + [])
        assert counters_of(merged)["fastpath.batchsim.trials"] == 4

    def test_folds_into_existing_registry(self):
        outcomes, _, _ = run_parallel()
        registry = MetricsRegistry()
        registry.counter("preexisting").inc()
        merge_outcome_telemetry(outcomes, metrics=registry)
        counters = counters_of(registry)
        assert counters["preexisting"] == 1
        assert counters["fastpath.batchsim.trials"] == 12


class TestCheckpointSchema:
    def test_telemetry_round_trips_through_checkpoint(self, tmp_path):
        from repro.exec import JobOutcome

        outcomes, _, _ = run_parallel(checkpoint=tmp_path / "run.jsonl")
        line = next(
            line
            for line in (tmp_path / "run.jsonl").read_text().splitlines()[1:]
            if json.loads(line).get("key") == outcomes[0].key
        )
        restored = JobOutcome.from_json_dict(json.loads(line))
        assert restored.telemetry["metrics"] == outcomes[0].telemetry["metrics"]
        assert [s["name"] for s in restored.telemetry["spans"]] == [
            s["name"] for s in outcomes[0].telemetry["spans"]
        ]


class TestTraceFlagCli:
    def test_montecarlo_trace_flag_writes_runlog(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main as cli_main
        from repro.obs import read_runlog

        monkeypatch.chdir(tmp_path)
        code = cli_main(
            [
                "montecarlo",
                "-d",
                "4",
                "--trials",
                "8",
                "--jobs",
                "2",
                "--shards",
                "2",
                "--seed",
                "7",
                "--trace",
                "traces",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        runs = list((tmp_path / "traces").glob("*.jsonl"))
        assert len(runs) == 1
        data = read_runlog(runs[0])
        assert data.complete
        assert data.manifest["extra"]["command"] == "montecarlo"
        names = {s["name"] for s in data.spans}
        assert {"exec.run", "exec.job", "worker.job", "fastpath.run_batch"} <= names
        assert data.counters["fastpath.batchsim.trials"] == 8
        assert data.run_id == runs[0].stem

    def test_serial_trace_flag_captures_strategy_spans(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main as cli_main
        from repro.obs import read_runlog

        monkeypatch.chdir(tmp_path)
        assert (
            cli_main(
                ["montecarlo", "-d", "3", "--trials", "4", "--seed", "1", "--trace"]
            )
            == 0
        )
        runs = list((tmp_path / ".repro-trace").glob("*.jsonl"))
        assert len(runs) == 1
        names = {s["name"] for s in read_runlog(runs[0]).spans}
        assert "fastpath.run_batch" in names
        assert "strategy.run_chunks" in names

    def test_trace_subcommand_renders_fresh_runlog(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main as cli_main

        monkeypatch.chdir(tmp_path)
        cli_main(
            [
                "montecarlo", "-d", "4", "--trials", "8", "--jobs", "2",
                "--shards", "2", "--seed", "7", "--trace",
            ]
        )
        capsys.readouterr()
        assert cli_main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "status: ok" in out
        tree = out.split("critical path:")[0]
        assert tree.count("worker.job") == 2  # one per shard, same run id
        assert "critical path:" in out
