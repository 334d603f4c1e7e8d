"""Resumable on-disk checkpoints for the parallel executor.

A checkpoint is an append-only JSONL file (schema
``repro-exec-checkpoint/v2``): a header record followed by one record
per finished job, flushed as each job completes so an interrupted run
loses at most the jobs still in flight.

The header keys the file to a *specific* piece of work: a fingerprint
over the full job list (keys, task names, payloads) combined with the
identity fields of the run's ``repro-manifest/v1`` record (git revision,
python version).  On resume the fingerprint must match — a checkpoint
from different cells, a different code revision or a different
interpreter is silently *not* reused (the run starts fresh and rewrites
the file), because merging results produced by different code into one
table is exactly the confusion manifests exist to prevent.

Only ``OK`` outcomes are reused on resume: a resumed run re-attempts
cells that previously failed (the operator re-running with ``--resume``
is usually retrying after fixing the cause), while finished cells are
served from disk without re-execution.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Sequence, Union

from repro._publish import publish_text
from repro.errors import CheckpointError
from repro.exec.jobs import Job, JobOutcome, JobStatus
from repro.obs.stream import read_jsonl_records

__all__ = ["CHECKPOINT_SCHEMA", "Checkpoint", "fingerprint_jobs"]

#: Schema identifier stamped into every checkpoint header.  v2 added the
#: per-outcome ``telemetry`` field (worker span tree + metrics delta) so a
#: resumed run restores merged telemetry; v1 files simply fail the header
#: check and the run starts fresh — the usual resume degradation path.
CHECKPOINT_SCHEMA = "repro-exec-checkpoint/v2"

#: Manifest keys that participate in the fingerprint (the volatile keys —
#: metrics, seeds chosen per cell — do not).
_MANIFEST_IDENTITY_KEYS = ("schema", "git", "python")


def fingerprint_jobs(jobs: Sequence[Job], manifest: Optional[Dict[str, Any]] = None) -> str:
    """A stable digest of *what* is being computed and *by which code*."""
    identity: Dict[str, Any] = {
        "jobs": [job.spec() for job in sorted(jobs, key=lambda j: j.key)],
        "manifest": {k: (manifest or {}).get(k) for k in _MANIFEST_IDENTITY_KEYS},
    }
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Checkpoint:
    """One resumable run's on-disk record.

    Usage (the executor drives this)::

        ckpt = Checkpoint(path)
        done = ckpt.open(jobs, manifest)   # {} on a fresh/invalid file
        ...
        ckpt.record(outcome)               # append + flush per finished job
        ckpt.close()
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh: Optional[IO[str]] = None
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def load_reusable(
        self, jobs: Sequence[Job], manifest: Optional[Dict[str, Any]] = None
    ) -> Dict[str, JobOutcome]:
        """Outcomes reusable for ``jobs``: ``OK`` records under a matching
        header fingerprint.  An absent, truncated, corrupt or mismatching
        file yields ``{}`` — resume never fails, it just starts over."""
        records = self._read_records()
        if not records:
            return {}
        header = records[0]
        if header.get("record") != "header" or header.get("schema") != CHECKPOINT_SCHEMA:
            return {}
        if header.get("fingerprint") != fingerprint_jobs(jobs, manifest):
            return {}
        keys = {job.key for job in jobs}
        reusable: Dict[str, JobOutcome] = {}
        for record in records[1:]:
            if record.get("record") != "outcome":
                continue
            try:
                outcome = JobOutcome.from_json_dict(record)
            except (KeyError, ValueError):
                continue  # torn tail write from an interrupted run
            if outcome.key in keys and outcome.status is JobStatus.OK:
                reusable[outcome.key] = outcome
        return reusable

    def _read_records(self) -> List[Dict[str, Any]]:
        # Shared torn-tail-tolerant JSONL reader (also behind the RunLog
        # trajectory store): stop at the first undecodable line, keep the
        # intact prefix.
        try:
            return read_jsonl_records(self.path, missing_ok=True)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {self.path}: {exc}") from exc

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #

    def open(
        self,
        jobs: Sequence[Job],
        manifest: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, JobOutcome]:
        """Load reusable outcomes, then (re)open the file for appending.

        The file is rewritten with a fresh header plus the reused records,
        so it is always a single consistent run — never an interleaving of
        two generations of results.
        """
        reusable = self.load_reusable(jobs, manifest)
        self._fingerprint = fingerprint_jobs(jobs, manifest)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "record": "header",
            "schema": CHECKPOINT_SCHEMA,
            "fingerprint": self._fingerprint,
            "jobs": len(jobs),
            "manifest": manifest,
        }
        records = [header] + [
            {"record": "outcome", **outcome.to_json_dict()} for outcome in reusable.values()
        ]
        # Stage the fresh generation in a sibling tmp file and publish it
        # with one rename: a reader (or a crash) never observes the window
        # between truncating the old run and finishing the new header.
        # Appends after that point are torn-tail tolerant (see load()).
        try:
            publish_text(self.path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
            self._fh = self.path.open("a")
        except OSError as exc:
            raise CheckpointError(f"cannot write checkpoint {self.path}: {exc}") from exc
        return reusable

    def record(self, outcome: JobOutcome) -> None:
        """Append one finished job (flushed immediately for crash safety)."""
        if self._fh is None:
            raise CheckpointError("checkpoint not opened for writing")
        self._append({"record": "outcome", **outcome.to_json_dict()})

    def _append(self, record: Dict[str, Any]) -> None:
        assert self._fh is not None
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Close the append handle (idempotent; records are already flushed)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Checkpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
