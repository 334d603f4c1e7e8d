"""Smoke test of the end-to-end benchmark.

Runs ``run.py --preset smoke`` — all four workloads at d <= 12, untraced
and traced, in well under a minute — and checks that its record carries
every metric of ``BENCHMARK.json``, that no operation failed, and that the
counters which must repeat exactly do.  Run it with
``python -m pytest benchmarks/e2e/test_e2e_smoke.py``.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402 - the benchmark's own directory is not a package

DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def record_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "record.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--preset", "smoke", "--seed", "2005", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return out


@pytest.fixture(scope="module")
def record(record_path):
    return json.loads(record_path.read_text())


def test_record_identifies_the_run(record):
    assert record["schema"] == "repro-bench/v1"
    assert record["seed"] == 2005
    assert record["cpus_available"] >= 1
    assert record["python"] and record["numpy"]


def test_every_metric_is_present_and_finite(record):
    assert list(record["workloads"]) == [w["name"] for w in DEFINITION["workloads"]]
    for entry in record["workloads"].values():
        for kind, section in (("end_to_end", "metrics"), ("per_layer", "layers")):
            for metric in DEFINITION[kind]:
                reported = entry[section][metric["name"]]
                assert reported["unit"] == metric["unit"]
                assert math.isfinite(reported["value"])
        for metric in DEFINITION["end_to_end"]:
            assert entry["metrics"][metric["name"]]["value"] > 0


def test_no_operation_failed(record):
    for name, entry in record["workloads"].items():
        assert entry["correct"], (name, entry["problems"])
        assert entry["attempted"] > 0
        assert entry["metrics"]["ops_failed_frac"]["value"] == 0


def test_exact_counters(record):
    workloads = record["workloads"]

    warm = workloads["warm-sweep"]
    cells = warm["counters"]["cells"]
    assert cells == 5 * 3
    assert warm["counters"]["cache.misses"] == 0
    assert warm["counters"]["cache.hits"] == cells
    layers = {name: m["value"] for name, m in warm["layers"].items()}
    assert layers["fastpath.cache.misses"] == 0
    assert layers["fastpath.cache.hits"] == cells
    assert layers["fastpath.cache.hit_ratio"] == 1
    assert layers["exec.jobs"] == layers["exec.attempts"] == cells
    assert layers["exec.failed"] == 0
    assert layers["core.producer.moves"] == 0

    cold = {name: m["value"] for name, m in workloads["cold-stream"]["layers"].items()}
    assert cold["fastpath.cache.misses"] == cold["fastpath.cache.stores"] == 3
    assert cold["fastpath.cache.chunk_stores"] == cold["core.producer.chunks"]
    assert cold["core.producer.moves"] == cold["fastpath.verify.moves"] > 0
    assert cold["fastpath.verify.violations"] == 0

    mc = {name: m["value"] for name, m in workloads["montecarlo-mix"]["layers"].items()}
    assert mc["fastpath.batchsim.inert_seed_evals"] + mc["fastpath.batchsim.inert_seed_cached"] == 200
    assert mc["fastpath.batchsim.timelines_built"] + mc["fastpath.batchsim.timelines_reused"] == 5205
    assert mc["fastpath.cache.hits"] == mc["exec.jobs"] == mc["sim.engine.moves"] == 0

    engine = {name: m["value"] for name, m in workloads["engine-report"]["layers"].items()}
    assert engine["sim.engine.moves"] > 0 and engine["obs.subscribers.events"] > 0
    assert engine["core.producer.moves"] == engine["fastpath.verify.moves"] == 0


def test_traced_runlogs_render_and_cover_the_wall(record):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name, entry in record["workloads"].items():
        trace = entry["trace"]
        assert trace["unaccounted_pct"] <= 5.0, (name, trace["unaccounted"])
        assert trace["overhead"] > 0
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "trace", str(ROOT / trace["runlog"])],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "bench.rep" in done.stdout


def test_compare_finds_no_change_between_identical_records(record_path, capsys):
    paths = [str(record_path)]
    assert compare.main(["--parent", *paths, "--change", *paths]) == 0
    assert "regression" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([10.0] * 10, [8.0] * 10, "lower", "gain"),
        ([10.0] * 10, [12.0] * 10, "lower", "regression"),
        ([10.0] * 10, [10.5] * 10, "lower", "unchanged"),
        ([8.0, 12.0] * 5, [9.9] * 10, "lower", "unresolved"),
        ([10.0] * 9, [8.0] * 9, "lower", "unchanged"),
        ([100.0] * 10, [120.0] * 10, "higher", "gain"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.08)[0] == expected
