"""RPR360: structural fingerprints of the on-disk formats vs a baseline.

Two byte formats cross process and host boundaries: the schedule
cache's chunked entry, whose chunk records hold the
:data:`~repro.fastpath.compiled.COLUMN_NAMES` columns of a
:class:`~repro.core.chunkstream.ScheduleChunk`, and the executor
checkpoint record (:class:`~repro.exec.jobs.JobOutcome` rows
under a ``CHECKPOINT_SCHEMA`` header).  Both carry version tags so that
*incompatible* bytes miss cleanly instead of decoding as garbage — but a
tag only protects if it is actually bumped when the layout changes.

This check extracts the declared layout from the AST (``COLUMN_NAMES``
plus the ``FORMAT_VERSION``/``SCHEMA_VERSION`` tags from
``fastpath/compiled.py``; the ``JobOutcome`` field names from
``exec/jobs.py`` paired with ``CHECKPOINT_SCHEMA`` from
``exec/checkpoint.py``), hashes it, and compares against the committed
baseline (``src/repro/lint/schema_baseline.json``).  Layout hash changed
while the version tag did not → RPR360.  Layout and tag both changed →
clean, and ``repro-lint --update-schema-baseline`` refreshes the
baseline in the same commit.
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro._publish import publish_text
from repro.lint.rules import Finding

__all__ = [
    "check_schema_drift",
    "default_schema_baseline",
    "extract_schemas",
    "write_schema_baseline",
]

#: the committed baseline shipped next to this module
_BASELINE_NAME = "schema_baseline.json"

BASELINE_VERSION = 1


def default_schema_baseline() -> Path:
    """The committed schema baseline (``src/repro/lint/schema_baseline.json``)."""
    return Path(__file__).resolve().parent / _BASELINE_NAME


def _layout_hash(layout: Sequence[str]) -> str:
    blob = json.dumps(list(layout), separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _module_constants(tree: ast.AST) -> Dict[str, object]:
    """Top-level ``NAME = <constant or tuple/list of constants>`` bindings."""
    table: Dict[str, object] = {}
    for node in getattr(tree, "body", []):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if not isinstance(target, ast.Name) or value is None:
            continue
        if isinstance(value, ast.Constant):
            table[target.id] = value.value
        elif isinstance(value, (ast.Tuple, ast.List)) and all(
            isinstance(e, ast.Constant) for e in value.elts
        ):
            table[target.id] = [e.value for e in value.elts]  # type: ignore[union-attr]
    return table


def _constant_line(tree: ast.AST, name: str) -> int:
    for node in getattr(tree, "body", []):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                return node.lineno
    return 1


def _dataclass_fields(tree: ast.AST, class_name: str) -> Tuple[List[str], int]:
    """(annotated field names of ``class_name``, its line)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            fields = [
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
            return fields, node.lineno
    return [], 1


def _match(files: Dict[str, ast.AST], *suffix: str) -> List[Tuple[str, ast.AST]]:
    wanted = tuple(Path(*suffix).parts)
    out = []
    for path, tree in files.items():
        if Path(path).parts[-len(wanted):] == wanted:
            out.append((path, tree))
    return sorted(out)


def extract_schemas(files: Dict[str, ast.AST]) -> List[Dict[str, object]]:
    """Every versioned layout declared by the given ``{path: tree}`` set.

    Returns records ``{"kind", "path", "line", "version_tag",
    "layout", "layout_hash"}`` — one per ``fastpath/compiled.py`` found,
    and one per ``exec/jobs.py`` + ``exec/checkpoint.py`` pair sharing a
    parent ``exec`` directory.
    """
    records: List[Dict[str, object]] = []
    for path, tree in _match(files, "fastpath", "compiled.py"):
        constants = _module_constants(tree)
        columns = constants.get("COLUMN_NAMES")
        if not isinstance(columns, list):
            continue
        tag = f"{constants.get('SCHEMA_VERSION')}+format{constants.get('FORMAT_VERSION')}"
        records.append(
            {
                "kind": "compiled_schedule",
                "path": path,
                "line": _constant_line(tree, "COLUMN_NAMES"),
                "version_tag": tag,
                "layout": [str(c) for c in columns],
                "layout_hash": _layout_hash([str(c) for c in columns]),
            }
        )
    checkpoints = {str(Path(p).parent): (p, t) for p, t in _match(files, "exec", "checkpoint.py")}
    for jobs_path, jobs_tree in _match(files, "exec", "jobs.py"):
        paired = checkpoints.get(str(Path(jobs_path).parent))
        if paired is None:
            continue
        ckpt_path, ckpt_tree = paired
        fields, line = _dataclass_fields(jobs_tree, "JobOutcome")
        if not fields:
            continue
        tag = _module_constants(ckpt_tree).get("CHECKPOINT_SCHEMA")
        records.append(
            {
                "kind": "checkpoint_record",
                "path": jobs_path,
                "line": line,
                "version_tag": str(tag),
                "layout": fields,
                "layout_hash": _layout_hash(fields),
            }
        )
    return records


def _load_baseline(baseline_path: Path) -> Optional[Dict[str, Dict[str, object]]]:
    try:
        data = json.loads(baseline_path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("version") != BASELINE_VERSION:
        return None
    schemas = data.get("schemas")
    return schemas if isinstance(schemas, dict) else None


def check_schema_drift(
    files: Dict[str, ast.AST], baseline_path: Optional[Path] = None
) -> List[Finding]:
    """RPR360 findings for every layout that drifted without a tag bump."""
    baseline_path = baseline_path or default_schema_baseline()
    baseline = _load_baseline(baseline_path)
    findings: List[Finding] = []
    for record in extract_schemas(files):
        kind = str(record["kind"])
        known = (baseline or {}).get(kind)
        if known is None:
            continue  # no committed expectation for this layout kind
        if record["layout_hash"] == known.get("layout_hash"):
            continue
        if record["version_tag"] != known.get("version_tag"):
            continue  # drift with a bump: the correct flow
        old = known.get("layout")
        findings.append(
            Finding(
                code="RPR360",
                path=str(record["path"]),
                line=int(record["line"]),  # type: ignore[call-overload]
                column=1,
                message=(
                    f"{kind} layout changed ({old} -> {record['layout']}) but "
                    f"the format-version tag is still {record['version_tag']!r} "
                    "— stale on-disk blobs would decode under the new layout; "
                    "bump the version tag, then run "
                    "`repro-lint --self --update-schema-baseline`"
                ),
                symbol=kind,
            )
        )
    return findings


def write_schema_baseline(
    files: Dict[str, ast.AST], baseline_path: Optional[Path] = None
) -> Path:
    """Regenerate the baseline from the current declarations (atomically)."""
    baseline_path = baseline_path or default_schema_baseline()
    schemas: Dict[str, Dict[str, object]] = {}
    for record in extract_schemas(files):
        schemas[str(record["kind"])] = {
            "version_tag": record["version_tag"],
            "layout": record["layout"],
            "layout_hash": record["layout_hash"],
        }
    payload = json.dumps({"version": BASELINE_VERSION, "schemas": schemas}, indent=2) + "\n"
    baseline_path.parent.mkdir(parents=True, exist_ok=True)
    publish_text(baseline_path, payload)
    return baseline_path
