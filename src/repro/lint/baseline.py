"""The findings baseline: land new rules warn-only, then ratchet.

A baseline is a committed JSON file of *accepted* findings.  Applying it
splits a run's findings into new (reported, fail the build) and
baselined (counted, silent) — so a new rule family can land against a
legacy codebase without a flag day, while every *new* violation still
fails immediately.

Entries match on ``(path, code, symbol, message-digest)``, deliberately
**not** on line numbers: unrelated edits move lines constantly, and a
baseline that churns on every edit trains people to regenerate it
blindly — which is how accepted findings quietly multiply.  The ratchet
is enforced in the other direction too: an entry matching no current
finding is reported (RPR011, *stale-baseline-entry*) so the file only
ever shrinks as violations are fixed.

Paths are stored repo-relative (anchored at ``src``/``benchmarks``/
``examples``/``tests``) so the same baseline matches from any checkout
location or a ``pip install -e`` layout.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro._publish import publish_text
from repro.lint.rules import Finding

__all__ = [
    "BASELINE_VERSION",
    "apply_baseline",
    "canonical_path",
    "default_baseline_path",
    "load_baseline",
    "write_baseline",
]

BASELINE_VERSION = 1

#: the conventional committed location, applied automatically when present
DEFAULT_BASELINE_NAME = ".repro-lint-baseline.json"

_ANCHORS = ("src", "benchmarks", "examples", "tests")


def default_baseline_path() -> Path:
    """``./.repro-lint-baseline.json`` (the committed convention)."""
    return Path(DEFAULT_BASELINE_NAME)


def canonical_path(path: str) -> str:
    """A checkout-independent spelling of ``path`` for baseline keys."""
    parts = Path(path).parts
    for anchor in _ANCHORS:
        if anchor in parts:
            index = parts.index(anchor)
            return "/".join(parts[index:])
    try:
        return Path(path).resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return Path(path).as_posix()


def _entry_key(finding: Finding) -> str:
    digest = hashlib.sha256(finding.message.encode("utf-8")).hexdigest()[:12]
    return "|".join((canonical_path(finding.path), finding.code, finding.symbol, digest))


def load_baseline(path: Path) -> Dict[str, int]:
    """``entry key -> accepted count`` (empty on a missing/invalid file)."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict) or data.get("version") != BASELINE_VERSION:
        return {}
    entries = data.get("entries")
    if not isinstance(entries, dict):
        return {}
    return {str(k): int(v) for k, v in entries.items()}


def write_baseline(findings: Sequence[Finding], path: Path) -> Path:
    """Accept the given findings: write them as the new baseline (atomic)."""
    entries = Counter(_entry_key(f) for f in findings)
    payload = (
        json.dumps(
            {"version": BASELINE_VERSION, "entries": dict(sorted(entries.items()))},
            indent=2,
        )
        + "\n"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    publish_text(path, payload)
    return path


def apply_baseline(
    findings: Sequence[Finding], entries: Dict[str, int], baseline_path: Path
) -> Tuple[List[Finding], int]:
    """(surviving findings + RPR011 stale-entry findings, baselined count).

    Each entry absorbs up to its accepted count of matching findings;
    anything beyond the count is a *new* instance of an old problem and
    is reported.  Entries that absorb nothing are reported as RPR011 so
    the committed file must shrink when violations are fixed.
    """
    budget = dict(entries)
    kept: List[Finding] = []
    baselined = 0
    for finding in findings:
        key = _entry_key(finding)
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            baselined += 1
        else:
            kept.append(finding)
    stale = [key for key, remaining in sorted(budget.items()) if remaining == entries.get(key, 0)]
    for key in stale:
        kept.append(
            Finding(
                code="RPR011",
                path=str(baseline_path),
                line=1,
                column=1,
                message=(
                    f"baseline entry `{key}` matches no current finding — the "
                    "violation was fixed; delete the entry (or regenerate the "
                    "file with `--write-baseline`)"
                ),
            )
        )
    return kept, baselined
