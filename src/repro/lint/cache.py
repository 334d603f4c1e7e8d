"""The incremental lint cache: content-addressed, like the schedule cache.

Two granularities, same idiom as :class:`~repro.fastpath.cache.ScheduleCache`
(the key *is* the file name; writes publish via
:func:`repro._publish.publish_text`, so a shared cache directory — CI
restores it between runs — is safe under concurrent linters):

* **file entries** — the per-file findings and suppression table of one
  module, keyed by the SHA-256 of its bytes plus the analyzer
  configuration tag.  Any edit changes the key; the stale entry is
  simply never addressed again.
* **tree entries** — the whole-program results (interprocedural
  determinism walk, schema-drift check), keyed by the hash of every
  file's ``(canonical path, content hash)`` pair.  Warm runs over an
  unchanged tree hit this once and skip building the call graph
  entirely — that is what makes ``repro-lint --self`` cheap enough to
  run on every save.

The configuration tag folds in the analyzer version and the rule
registry, so upgrading the linter orphans every old entry at once
instead of replaying findings computed by older detection logic.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro._publish import publish_text
from repro.lint.rules import RULES, Finding
from repro.lint.suppressions import SuppressionTable

__all__ = ["LintCache", "default_lint_cache_dir", "LINT_CACHE_ENV"]

#: bump to orphan every existing entry at once
ANALYZER_VERSION = "4"

#: environment variable naming the default lint-cache directory
LINT_CACHE_ENV = "REPRO_LINT_CACHE"

_DEFAULT_DIR = Path(".repro-cache") / "lint"


def default_lint_cache_dir() -> Path:
    """``$REPRO_LINT_CACHE`` if set, else ``.repro-cache/lint``."""
    env = os.environ.get(LINT_CACHE_ENV)
    return Path(env) if env else _DEFAULT_DIR


def _config_tag() -> str:
    registry = ",".join(sorted(RULES))
    return f"repro-lint/{ANALYZER_VERSION}|{registry}"


def content_hash(data: bytes) -> str:
    """The content address of one file's bytes under the current config."""
    digest = hashlib.sha256()
    digest.update(_config_tag().encode("utf-8"))
    digest.update(b"\x00")
    digest.update(data)
    return digest.hexdigest()


def tree_hash(files: Sequence[Tuple[str, str]]) -> str:
    """The content address of a whole tree: ``(canonical path, hash)`` pairs."""
    blob = json.dumps(sorted(files), separators=(",", ":"))
    digest = hashlib.sha256()
    digest.update(_config_tag().encode("utf-8"))
    digest.update(b"\x01")
    digest.update(blob.encode("utf-8"))
    return digest.hexdigest()


class LintCache:
    """Content-addressed findings store rooted at one directory."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_lint_cache_dir()
        self.file_hits = 0
        self.file_misses = 0
        self.tree_hits = 0
        self.tree_misses = 0

    # ------------------------------------------------------------------ #
    # low-level entries
    # ------------------------------------------------------------------ #

    def _path_for(self, key: str, kind: str) -> Path:
        return self.root / f"{key}.{kind}.json"

    def _load(self, key: str, kind: str) -> Optional[Dict[str, Any]]:
        try:
            data = json.loads(self._path_for(key, kind).read_text())
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def _store(self, key: str, kind: str, payload: Dict[str, Any]) -> None:
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            publish_text(self._path_for(key, kind), json.dumps(payload, separators=(",", ":")))
        except OSError:
            pass  # a cache that cannot write is a cache that only misses

    # ------------------------------------------------------------------ #
    # file entries
    # ------------------------------------------------------------------ #

    def load_file(
        self, key: str, path: str
    ) -> Optional[Tuple[List[Finding], SuppressionTable, List[int]]]:
        """(findings, suppression table, locally-used lines) or ``None``.

        Finding paths are rewritten to ``path`` — entries are addressed
        by content, not by location.
        """
        data = self._load(key, "file")
        if data is None:
            self.file_misses += 1
            return None
        try:
            findings = [Finding.from_dict(f, path=path) for f in data["findings"]]
            table = SuppressionTable(
                {int(k): frozenset(v) for k, v in data["suppressions"].items()},
                {int(k): int(v) for k, v in data.get("directive_lines", {}).items()},
            )
            used = [int(line) for line in data["used"]]
        except (KeyError, TypeError, ValueError):
            self.file_misses += 1
            return None
        self.file_hits += 1
        return findings, table, used

    def store_file(
        self,
        key: str,
        findings: Sequence[Finding],
        table: SuppressionTable,
        used: Sequence[int],
    ) -> None:
        """Store one file's findings, suppression table, and used lines."""
        self._store(
            key,
            "file",
            {
                "findings": [f.to_dict() for f in findings],
                "suppressions": {str(k): sorted(v) for k, v in table.by_line.items()},
                "directive_lines": {
                    str(k): table.directive_line(k) for k in table.by_line
                },
                "used": sorted(used),
            },
        )

    # ------------------------------------------------------------------ #
    # tree entries
    # ------------------------------------------------------------------ #

    def load_tree(
        self, key: str, path_map: Dict[str, str]
    ) -> Optional[Tuple[List[Finding], Dict[str, List[int]]]]:
        """(whole-program findings, used-suppression lines per canonical path).

        ``path_map`` maps canonical paths back to this invocation's
        spellings so replayed findings anchor to real files.
        """
        data = self._load(key, "tree")
        if data is None:
            self.tree_misses += 1
            return None
        try:
            findings = [
                Finding.from_dict(f, path=path_map.get(str(f["path"]), str(f["path"])))
                for f in data["findings"]
            ]
            used = {
                str(path): [int(line) for line in lines]
                for path, lines in data["used_by_path"].items()
            }
        except (KeyError, TypeError, ValueError):
            self.tree_misses += 1
            return None
        self.tree_hits += 1
        return findings, used

    def store_tree(
        self,
        key: str,
        findings: Sequence[Finding],
        used_by_path: Dict[str, Sequence[int]],
        canonical: Dict[str, str],
    ) -> None:
        """Store whole-program results with canonicalized paths."""
        stored = []
        for finding in findings:
            record = finding.to_dict()
            record["path"] = canonical.get(finding.path, finding.path)
            stored.append(record)
        self._store(
            key,
            "tree",
            {
                "findings": stored,
                "used_by_path": {
                    canonical.get(p, p): sorted(lines) for p, lines in used_by_path.items()
                },
            },
        )

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters for both entry granularities."""
        return {
            "file_hits": self.file_hits,
            "file_misses": self.file_misses,
            "tree_hits": self.tree_hits,
            "tree_misses": self.tree_misses,
        }
