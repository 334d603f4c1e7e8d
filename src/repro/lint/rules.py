"""The ``repro-lint`` rule registry: stable codes, one invariant each.

Every rule guards one clause of the engine's model contract (see
:mod:`repro.sim.engine`): capabilities must be declared before they are
used, communication must go through the action vocabulary, and the
``O(log n)``-bit accounting must not be bypassed.  Codes are stable —
reporters, suppressions and CI configuration refer to them — so a rule is
never renumbered, only retired.

The registry is data, not behaviour: the detection logic lives in
:mod:`repro.lint.analyzer`, keyed by these codes.  Keeping them apart
means a later PR can add a rule by registering a code here and one
detection hook there, without touching the reporters or the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = ["Rule", "Finding", "RULES", "rule"]


@dataclass(frozen=True)
class Rule:
    """One checkable clause of the model contract.

    ``code`` is the stable identifier (``RPR`` + number); ``capability``
    names the engine flag involved for the declaration rules (``None``
    for the vocabulary/accounting rules).
    """

    code: str
    name: str
    summary: str
    capability: Optional[str] = None


_RULE_TABLE: Tuple[Rule, ...] = (
    Rule(
        code="RPR010",
        name="unused-suppression",
        summary=(
            "an inline `# repro-lint: disable=...` comment suppresses a rule "
            "that reports nothing on that line — stale suppressions hide "
            "future regressions, so they are removed when the finding is"
        ),
    ),
    Rule(
        code="RPR011",
        name="stale-baseline-entry",
        summary=(
            "a baseline entry matches no current finding — the violation was "
            "fixed, so the entry is deleted (the ratchet only tightens; "
            "regenerate with `--write-baseline` after removing entries)"
        ),
    ),
    Rule(
        code="RPR100",
        name="missing-model-declaration",
        summary=(
            "a module defining behaviour generators must declare its model "
            "with a module-level `MODEL = ProtocolModel(...)`"
        ),
    ),
    Rule(
        code="RPR101",
        name="undeclared-visibility",
        summary=(
            "`See` / `NodeView.neighbor_states` (directly or through a "
            "helper such as `smaller_all_safe`) requires "
            "`MODEL = ProtocolModel(visibility=True)`"
        ),
        capability="visibility",
    ),
    Rule(
        code="RPR102",
        name="undeclared-cloning",
        summary="`CloneSelf` requires `MODEL = ProtocolModel(cloning=True)`",
        capability="cloning",
    ),
    Rule(
        code="RPR103",
        name="undeclared-global-clock",
        summary=(
            "`NodeView.time` / a timed `WaitUntil(wake_at=...)` requires "
            "`MODEL = ProtocolModel(global_clock=True)`"
        ),
        capability="global_clock",
    ),
    Rule(
        code="RPR104",
        name="unused-capability",
        summary=(
            "a capability declared in `MODEL` is never reachable from the "
            "module's behaviours — declare only the power the model grants"
        ),
    ),
    Rule(
        code="RPR110",
        name="whiteboard-mutation-outside-vocabulary",
        summary=(
            "whiteboards may only change through `WriteWhiteboard` / "
            "`UpdateWhiteboard` mutators; mutating a snapshot returned by "
            "`ReadWhiteboard` or `NodeView.wb` changes nothing atomically"
        ),
    ),
    Rule(
        code="RPR120",
        name="non-action-yield",
        summary=(
            "a behaviour generator must yield `Action` values only; the "
            "engine raises `AgentError` on anything else"
        ),
    ),
    Rule(
        code="RPR130",
        name="unaccounted-local-memory-write",
        summary=(
            "agent memory must go through `AgentContext.remember`, which "
            "feeds the `O(log n)`-bit accounting; writing `ctx.memory` or "
            "`ctx.peak_memory_bits` directly defeats `estimate_bits`"
        ),
    ),
    Rule(
        code="RPR200",
        name="obs-imports-sim",
        summary=(
            "observability modules (`repro.obs`) must not import the "
            "simulation layer (`repro.sim`, `repro.protocols`): the engine "
            "imports `obs`, so the reverse direction is an import cycle — "
            "consumers get state via event payloads, not engine objects"
        ),
    ),
    Rule(
        code="RPR210",
        name="exec-imports-frontend",
        summary=(
            "executor modules (`repro.exec`) must not import the CLI or "
            "rendering layers (`repro.cli`, `repro.viz`): the CLI imports "
            "`exec`, so the reverse direction is an import cycle — workers "
            "return JSON-able values and the frontend renders them"
        ),
    ),
    Rule(
        code="RPR220",
        name="fastpath-imports-upper-layer",
        summary=(
            "fast-path modules (`repro.fastpath`) must import only the "
            "core/topology/errors planes — never `repro.sim`, "
            "`repro.protocols`, `repro.analysis`, `repro.exec`, "
            "`repro.obs`, `repro.cli` or `repro.viz`; those layers "
            "consume the fast path, so the reverse direction is an "
            "import cycle"
        ),
    ),
    Rule(
        code="RPR230",
        name="trace-imports-runtime-layer",
        summary=(
            "tracing/trajectory modules (`repro.obs.trace`, "
            "`repro.obs.runlog`, `repro.obs.prom`) must not import the "
            "simulation, executor, fast-path or frontend layers: every "
            "runtime layer reports *into* tracing, so the reverse "
            "direction is an import cycle — tracer handles are injected "
            "(`bind_tracer`, `set_active_tracer`), never imported"
        ),
    ),
    Rule(
        code="RPR240",
        name="cache-params-incomplete",
        summary=(
            "a strategy constructor knob that steers generation must "
            "appear in `cache_params()`: the schedule cache fingerprints "
            "(strategy, version, dimension, cache_params), so an omitted "
            "knob makes two differently-configured instances share one "
            "fingerprint and serves one configuration the other's stale "
            "schedule"
        ),
    ),
    Rule(
        code="RPR300",
        name="nondeterministic-rng",
        summary=(
            "code reachable from a schedule entry point (`Strategy.generate`/"
            "`run`, a `Search`, a registered exec task) draws from the "
            "process-global `random` module or an unseeded `random.Random()` "
            "— two workers would compute different schedules for the same "
            "`ScheduleCache` fingerprint; use `random.Random(seed)` with a "
            "seed derived from the cache-key params"
        ),
    ),
    Rule(
        code="RPR310",
        name="wall-clock-read",
        summary=(
            "code reachable from a schedule entry point reads the wall clock "
            "(`time.time`, `time.time_ns`, bare `datetime.now`/`utcnow`/"
            "`today`) — schedule content must be a pure function of the "
            "cache-fingerprint inputs, never of when it was generated"
        ),
    ),
    Rule(
        code="RPR320",
        name="env-dependent-value",
        summary=(
            "code reachable from a schedule entry point reads `os.environ`/"
            "`os.getenv` — workers with different environments would publish "
            "different blobs under one fingerprint; thread configuration "
            "through explicit parameters that participate in the cache key"
        ),
    ),
    Rule(
        code="RPR330",
        name="unstable-iteration-order",
        summary=(
            "code reachable from a schedule entry point iterates a `set`/"
            "`frozenset` or orders by `id()`/`hash()` — both vary between "
            "interpreter runs (PYTHONHASHSEED, allocation addresses), so "
            "move order would differ per worker; wrap in `sorted(...)` with "
            "a value-based key"
        ),
    ),
    Rule(
        code="RPR340",
        name="bare-shared-write",
        summary=(
            "a `fastpath`/`exec` module writes a whole file with bare "
            "`open(..., 'w')`/`write_bytes`/`write_text` and no "
            "`os.replace` publish in the same function — a crash or a "
            "concurrent reader observes a torn file; write to a "
            "`tempfile.mkstemp` sibling and `os.replace` it into place "
            "(append-mode logs are exempt: they are torn-tail tolerant by "
            "design)"
        ),
    ),
    Rule(
        code="RPR350",
        name="tmpfile-not-colocated",
        summary=(
            "a `fastpath`/`exec` module creates its staging tmp file "
            "without `dir=` next to the `os.replace` destination — "
            "`$TMPDIR` may be another filesystem, where `os.replace` "
            "raises `EXDEV` and any copy fallback is no longer atomic; "
            "pass `dir=<destination directory>`"
        ),
    ),
    Rule(
        code="RPR360",
        name="schema-drift-without-version-bump",
        summary=(
            "the declared cache-entry column layout (`COLUMN_NAMES`) or the "
            "checkpoint record schema changed but its format-version tag "
            "did not — old on-disk blobs would decode under the new layout "
            "(or vice versa) instead of missing cleanly; bump the version "
            "tag, then refresh the committed schema baseline with "
            "`--update-schema-baseline`"
        ),
    ),
)

#: The registry, keyed by stable code.
RULES: Dict[str, Rule] = {r.code: r for r in _RULE_TABLE}


def rule(code: str) -> Rule:
    """Look up a rule by its stable code (raises ``KeyError`` if retired)."""
    return RULES[code]


@dataclass(frozen=True)
class Finding:
    """One rule violation anchored to a source location."""

    code: str
    path: str
    line: int
    column: int
    message: str
    symbol: str = ""

    @property
    def rule(self) -> Rule:
        """The violated :class:`Rule`."""
        return RULES[self.code]

    def anchor(self) -> str:
        """``file:line:col`` — the clickable location prefix."""
        return f"{self.path}:{self.line}:{self.column}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (the lint cache's on-disk record)."""
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "symbol": self.symbol,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any], path: Optional[str] = None) -> "Finding":
        """Rebuild a finding from :meth:`to_dict` output.

        ``path`` overrides the stored path: cache entries are addressed by
        file *content*, so the same entry may be replayed for the same
        bytes reached via a different path spelling.
        """
        return Finding(
            code=str(data["code"]),
            path=path if path is not None else str(data["path"]),
            line=int(data["line"]),
            column=int(data["column"]),
            message=str(data["message"]),
            symbol=str(data.get("symbol", "")),
        )
