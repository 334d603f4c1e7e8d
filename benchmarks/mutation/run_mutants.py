"""Fast-path, producer and lint mutants that the test suite must keep killing.

Each mutant below is a one-line change to the batch verifier (the
bit-plane kernel or its entry points), to level-sweep's columnar
producer or to the linter's import-layering check.  The verifier mutants
passed every test at some point, and a test was added for each one; the
producer mutants break one of the decisions the producer must share with
its per-``Move`` reference (the pool order and the two clock floors),
which the parity tests must catch; the layering mutants pin the one
check that serves RPR200–RPR230.  This script keeps them all killed.  For
every mutant it copies ``src/``, ``tests/``, ``conftest.py`` and
``pyproject.toml`` to a temporary directory, replaces the one target
line there (matched exactly, leading whitespace aside, and required to
be unique) and runs ``pytest -x`` on the mutant's killing tests against
that copy.  Only a test failure (pytest exit status 1) counts as a
kill.  A control run of every killing test on an unmutated copy goes
first and must pass, so a broken suite cannot pass for a kill.

Standard library only: no mutation framework is a dependency.  It takes
no arguments and runs every mutant in :data:`MUTANTS`; run it from
anywhere::

    python benchmarks/mutation/run_mutants.py

Exit status 0 when every mutant is killed, 1 when one survives, its
target line is missing or not unique, or its tests cannot run.  About
40 s for the whole list on a 2-CPU machine.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Tuple

REPO = Path(__file__).resolve().parents[2]
KERNEL = "src/repro/fastpath/npkernels.py"
ENTRY = "src/repro/fastpath/batchverify.py"
PARITY = "tests/test_npkernels.py::TestVerifierParity"
DECLINED = "tests/test_npkernels.py::TestDeclinedBlocks"
LINT = "src/repro/lint/analyzer.py"
LAYERING = "tests/test_lint.py::TestLayeringMatrix"
SWEEP = "src/repro/search/level_sweep.py"
SWEEP_PARITY = (
    "tests/test_columnar_producers.py::TestProducerParity::"
    "test_chunks_equal_per_move_reference[65536-level-sweep]"
)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    line: str
    mutant: str
    tests: Tuple[str, ...]


MUTANTS = (
    Mutant(
        "chain-strictness",
        KERNEL,
        "chained = (~first[1:]) & ((ss[1:] != sd[:-1]) | (st[1:] <= st[:-1]))",
        "chained = (~first[1:]) & ((ss[1:] != sd[:-1]) | (st[1:] < st[:-1]))",
        (f"{PARITY}::test_every_fault_at_every_row",),
    ),
    Mutant(
        "occupancy-floor",
        KERNEL,
        "if int(guards.min()) < 0:",
        "if int(guards.min()) < -1:",
        (f"{PARITY}::test_header_team_too_small",),
    ),
    Mutant(
        "departures-always-decline",
        KERNEL,
        "if bool((in_region & (nb_max > cu)).any()):",
        "if True:",
        (f"{DECLINED}::test_valid_schedules_never_decline_at_scale",),
    ),
    Mutant(
        "clone-ground-dropped",
        KERNEL,
        "if bool((self.clean_order[s[clones]] >= base + clones).any()):",
        "if False:",
        (f"{PARITY}::test_delayed_suffix_every_row[cloning]",),
    ),
    Mutant(
        "whole-schedule-team-seed",
        ENTRY,
        "team=max(header.team_size, agents_used, 1),",
        "team=max(header.team_size, 1),",
        (f"{PARITY}::test_whole_schedule_team_too_small",),
    ),
    Mutant(
        "level-sweep-pool-order",
        SWEEP,
        "order = np.lexsort((pool_id, pool_ready))",
        "order = np.lexsort((pool_ready, pool_id))",
        (SWEEP_PARITY,),
    ),
    Mutant(
        "level-sweep-dispatch-floor",
        SWEEP,
        "start = np.maximum(ready, clock)",
        "start = ready",
        (SWEEP_PARITY,),
    ),
    Mutant(
        "level-sweep-return-floor",
        SWEEP,
        "home = np.maximum(arrival, clock)",
        "home = arrival",
        (SWEEP_PARITY,),
    ),
    Mutant(
        "layering-relative-level",
        LINT,
        "elif isinstance(node, ast.ImportFrom) and node.level >= 2:",
        "elif isinstance(node, ast.ImportFrom) and node.level >= 1:",
        (LAYERING,),
    ),
    Mutant(
        "layering-prefix-boundary",
        LINT,
        'name == f"repro.{p}" or name.startswith(f"repro.{p}.") for p in layer.forbidden',
        'name == f"repro.{p}" or name.startswith(f"repro.{p}") for p in layer.forbidden',
        (LAYERING,),
    ),
    Mutant(
        "layering-alias-loop-dropped",
        LINT,
        'imports = [(f"repro.{alias.name}", dots + alias.name) for alias in node.names]',
        "imports = []",
        (LAYERING,),
    ),
    Mutant(
        "layering-prom-uncovered",
        LINT,
        '"RPR230", "obs", ("trace", "runlog", "prom"),',
        '"RPR230", "obs", ("trace", "runlog"),',
        (LAYERING,),
    ),
)


def _apply(root: Path, mutant: Mutant) -> str:
    """Write the mutant into the copy under ``root``; '' or the problem."""
    target = root / mutant.path
    lines = target.read_text().splitlines(keepends=True)
    hits = [i for i, text in enumerate(lines) if text.strip() == mutant.line]
    if len(hits) != 1:
        return f"target line found {len(hits)} times in {mutant.path}: {mutant.line!r}"
    text = lines[hits[0]]
    indent = text[: len(text) - len(text.lstrip())]
    lines[hits[0]] = indent + mutant.mutant + "\n"
    target.write_text("".join(lines))
    return ""


def _copy_tree(root: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(REPO / name, root / name, ignore=ignore)
    for name in ("conftest.py", "pyproject.toml"):
        shutil.copy2(REPO / name, root / name)


def _pytest(root: Path, tests: Sequence[str]) -> Tuple[int, str]:
    """Run ``tests`` against the copy under ``root``: exit status and the
    first failing test (or the last line of the report)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines() or [""]
    failed = [line for line in lines if line.startswith("FAILED ")]
    return done.returncode, failed[0] if failed else lines[-1]


def run(mutant: Mutant) -> Tuple[str, str]:
    """One mutant in its own copy: ``("killed" | "survived" | "error", detail)``."""
    with tempfile.TemporaryDirectory(prefix="repro-mutant-") as tmp:
        root = Path(tmp)
        _copy_tree(root)
        problem = _apply(root, mutant)
        if problem:
            return "error", problem
        status, detail = _pytest(root, mutant.tests)
    if status == 1:
        return "killed", detail
    if status == 0:
        return "survived", detail
    return "error", f"pytest exit status {status}: {detail}"


def control(mutants: Sequence[Mutant]) -> Tuple[int, str]:
    """Every killing test on an unmutated copy."""
    tests = sorted({test for m in mutants for test in m.tests})
    with tempfile.TemporaryDirectory(prefix="repro-mutant-") as tmp:
        _copy_tree(Path(tmp))
        return _pytest(Path(tmp), tests)


def main() -> int:
    status, detail = control(MUTANTS)
    print(f"{'passed' if status == 0 else 'FAILED':8s} control run: {detail}", flush=True)
    if status != 0:
        return 1
    failed = 0
    for m in MUTANTS:
        start = time.perf_counter()
        verdict, detail = run(m)
        failed += verdict != "killed"
        print(f"{verdict:8s} {m.name} ({time.perf_counter() - start:.1f} s): {detail}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
