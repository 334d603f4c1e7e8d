"""AST analysis behind ``repro-lint``: nothing here executes user code.

The analyzer parses protocol modules, finds their *behaviour generators*
(generator functions yielding engine :class:`~repro.sim.agent.Action`
values, by convention taking a ``ctx`` parameter), infers which engine
capabilities the module's code can reach — directly (``See``,
``CloneSelf``, ``view.time``, ``WaitUntil(wake_at=...)``) or through the
shared helpers of :mod:`repro.protocols.base` (``smaller_all_safe`` needs
visibility) — and cross-checks that against the module's declared
``MODEL = ProtocolModel(...)``.  It also enforces the communication
vocabulary (no out-of-band whiteboard or agent-memory mutation) and that
behaviours only yield actions.

Conventions the inference relies on (all five shipped protocols follow
them, and fixtures/user code must too):

* the :class:`~repro.sim.agent.NodeView` parameter of a wait predicate is
  named ``view``;
* the :class:`~repro.sim.agent.AgentContext` parameter of a behaviour is
  named ``ctx``;
* actions are referenced by their class names (possibly via an aliased
  module attribute, e.g. ``agent.CloneSelf``).

Everything is resolved lexically; the analyzer is deliberately
conservative — a yield of an unresolvable call is assumed fine — so a
clean report is a static guarantee only for the patterns it understands.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.baseline import apply_baseline, canonical_path, load_baseline
from repro.lint.cache import LintCache, content_hash, tree_hash
from repro.lint.callgraph import build_program_graph
from repro.lint.concurrency import check_concurrency
from repro.lint.determinism import check_determinism
from repro.lint.rules import Finding
from repro.lint.schema import check_schema_drift
from repro.lint.suppressions import (
    SuppressionTable,
    apply_suppressions,
    unused_suppression_findings,
)

__all__ = [
    "ACTION_NAMES",
    "LintRun",
    "analyze_source",
    "analyze_path",
    "analyze_paths",
    "collect_files",
    "exec_dir",
    "fastpath_dir",
    "helper_requirements",
    "obs_dir",
    "parse_trees",
    "protocols_dir",
    "run_analysis",
    "self_paths",
]

#: The engine's complete action vocabulary (see :mod:`repro.sim.agent`).
ACTION_NAMES: FrozenSet[str] = frozenset(
    {
        "Move",
        "ReadWhiteboard",
        "WriteWhiteboard",
        "UpdateWhiteboard",
        "See",
        "WaitUntil",
        "CloneSelf",
        "Terminate",
    }
)

#: Builtins that can never produce an ``Action`` — yielded calls to these
#: are reported instead of being given the benefit of the doubt.
_NON_ACTION_BUILTINS: FrozenSet[str] = frozenset(
    {"bool", "dict", "float", "frozenset", "int", "len", "list", "range", "set", "str", "tuple"}
)

#: Method calls that mutate a dict in place (out-of-band board/memory writes).
_MUTATING_METHODS: FrozenSet[str] = frozenset(
    {"clear", "pop", "popitem", "setdefault", "update", "__delitem__", "__setitem__"}
)

#: Module names under which the shared protocol helpers may be imported.
_BASE_MODULE_NAMES: FrozenSet[str] = frozenset(
    {"base", "protocols.base", "repro.protocols.base"}
)

#: Module names that genuinely export the action vocabulary.  A name
#: from :data:`ACTION_NAMES` imported from anywhere else (``Move`` from
#: ``repro.core.schedule`` is the schedule *dataclass*, not the sim
#: action) shadows the action for that module: yielding it is a data
#: pipeline, not a behaviour.
_ACTION_MODULE_NAMES: FrozenSet[str] = frozenset(
    {"agent", "sim.agent", "repro.sim.agent", "repro.sim"}
)

_CAP_TO_CODE = {"visibility": "RPR101", "cloning": "RPR102", "global_clock": "RPR103"}

_FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)
_AnyFunction = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def protocols_dir() -> Path:
    """The installed location of :mod:`repro.protocols` (for ``--self``)."""
    return Path(__file__).resolve().parent.parent / "protocols"


def obs_dir() -> Path:
    """The installed location of :mod:`repro.obs` (for ``--self``)."""
    return Path(__file__).resolve().parent.parent / "obs"


def exec_dir() -> Path:
    """The installed location of :mod:`repro.exec` (for ``--self``)."""
    return Path(__file__).resolve().parent.parent / "exec"


def fastpath_dir() -> Path:
    """The installed location of :mod:`repro.fastpath` (for ``--self``)."""
    return Path(__file__).resolve().parent.parent / "fastpath"


def self_paths() -> List[Path]:
    """Everything ``--self`` scans: all of ``repro`` plus, when running
    from a checkout, ``benchmarks/`` and ``examples/``."""
    package_root = Path(__file__).resolve().parent.parent  # src/repro
    roots = [package_root]
    if package_root.parent.name == "src":
        repo_root = package_root.parent.parent
        for extra in ("benchmarks", "examples"):
            candidate = repo_root / extra
            if candidate.is_dir():
                roots.append(candidate)
    return roots


# --------------------------------------------------------------------- #
# capability triggers
# --------------------------------------------------------------------- #


def _call_name(func: ast.expr) -> Optional[str]:
    """The terminal name of a call target (``See`` for ``agent.See``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _capability_triggers(root: ast.AST) -> Iterator[Tuple[str, ast.AST, str]]:
    """Yield ``(capability, node, why)`` for every direct use under ``root``."""
    for node in ast.walk(root):
        if isinstance(node, ast.Call):
            name = _call_name(node.func)
            if name == "See":
                yield "visibility", node, "yields a `See` action"
            elif name == "CloneSelf":
                yield "cloning", node, "yields a `CloneSelf` action"
            elif name == "WaitUntil":
                for kw in node.keywords:
                    if kw.arg == "wake_at" and not (
                        isinstance(kw.value, ast.Constant) and kw.value.value is None
                    ):
                        yield "global_clock", kw.value, "schedules a timed `WaitUntil` wake-up"
        elif isinstance(node, ast.Attribute):
            if node.attr == "neighbor_states":
                yield "visibility", node, "reads `view.neighbor_states`"
            elif node.attr == "time" and isinstance(node.value, ast.Name) and node.value.id == "view":
                yield "global_clock", node, "reads `view.time`"


@lru_cache(maxsize=1)
def helper_requirements() -> Dict[str, FrozenSet[str]]:
    """Capability needs of each ``repro.protocols.base`` helper, inferred
    from its own AST (so new helpers are picked up without touching lint)."""
    source = (protocols_dir() / "base.py").read_text()
    tree = ast.parse(source)
    table: Dict[str, FrozenSet[str]] = {}
    for node in tree.body:
        if isinstance(node, _FunctionNode):
            caps = frozenset(cap for cap, _, _ in _capability_triggers(node))
            table[node.name] = caps
    return table


# --------------------------------------------------------------------- #
# module analysis
# --------------------------------------------------------------------- #


def _iter_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node``'s subtree, stopping at nested function boundaries."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (*_FunctionNode, ast.Lambda)):
            yield from _iter_scope(child)


def _own_yields(func: _AnyFunction) -> List[ast.expr]:
    """The yield expressions belonging to ``func`` itself."""
    return [n for n in _iter_scope(func) if isinstance(n, (ast.Yield, ast.YieldFrom))]


def _takes_ctx(func: _AnyFunction) -> bool:
    args = func.args
    names = [a.arg for a in (*args.posonlyargs, *args.args)]
    return "ctx" in names


def _is_action_call(
    value: Optional[ast.expr], shadowed: FrozenSet[str] = frozenset()
) -> bool:
    if not isinstance(value, ast.Call):
        return False
    name = _call_name(value.func)
    return name in ACTION_NAMES and name not in shadowed


class _Module:
    """One parsed module plus the lexical facts the rules consume."""

    def __init__(self, source: str, path: str) -> None:
        self.path = path
        self.tree = ast.parse(source, filename=path)
        self.symbols: Dict[ast.AST, str] = {}
        self._map_symbols(self.tree, "")
        self.functions = [n for n in ast.walk(self.tree) if isinstance(n, _FunctionNode)]
        # A *strong* behaviour takes a ``ctx`` parameter or directly yields
        # an action constructor.  ``yield from``-only delegators count as
        # behaviours too, but only in modules that have a strong behaviour
        # — otherwise every plain generator pipeline (topology iterators,
        # the analyzer itself) would be mistaken for a protocol module.
        shadowed = self._find_shadowed_actions()
        strong = [
            f
            for f in self.functions
            if _own_yields(f)
            and (
                _takes_ctx(f)
                or any(
                    _is_action_call(getattr(y, "value", None), shadowed)
                    for y in _own_yields(f)
                )
            )
        ]
        delegators = [
            f
            for f in self.functions
            if f not in strong
            and _own_yields(f)
            and any(isinstance(y, ast.YieldFrom) for y in _own_yields(f))
        ]
        self.behaviours = (
            sorted(strong + delegators, key=lambda f: f.lineno) if strong else []
        )
        self.model_node, self.declared = self._find_model()
        self.helper_aliases, self.base_module_aliases = self._find_imports()

    # -- construction helpers ----------------------------------------- #

    def _map_symbols(self, node: ast.AST, current: str) -> None:
        for child in ast.iter_child_nodes(node):
            self.symbols[child] = current
            if isinstance(child, _FunctionNode):
                self._map_symbols(child, child.name)
            else:
                self._map_symbols(child, current)

    def _find_model(self) -> Tuple[Optional[ast.AST], Optional[FrozenSet[str]]]:
        """The module-level ``MODEL = ProtocolModel(...)`` declaration."""
        for node in self.tree.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            if not (isinstance(target, ast.Name) and target.id == "MODEL"):
                continue
            if isinstance(value, ast.Call) and _call_name(value.func) == "ProtocolModel":
                declared = frozenset(
                    kw.arg
                    for kw in value.keywords
                    if kw.arg is not None
                    and kw.arg in _CAP_TO_CODE
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                )
                return node, declared
            return node, None  # declared, but not statically readable
        return None, None

    def _find_shadowed_actions(self) -> FrozenSet[str]:
        """Action-vocabulary names this module binds to something else.

        ``from repro.core.schedule import Move`` rebinds ``Move`` to the
        schedule dataclass; a local ``class Move`` does the same.  Such
        modules yield these values as *data* (streaming generators,
        column materializers), so the behaviour-detection heuristic must
        not read those yields as sim actions.  Importing from the real
        action module (:data:`_ACTION_MODULE_NAMES`) never shadows, and
        a bare unimported name keeps its action reading.
        """
        shadowed: Set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module in _ACTION_MODULE_NAMES:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    if local in ACTION_NAMES:
                        shadowed.add(local)
            elif isinstance(node, (ast.ClassDef, *_FunctionNode)):
                if node.name in ACTION_NAMES:
                    shadowed.add(node.name)
        return frozenset(shadowed)

    def _find_imports(self) -> Tuple[Dict[str, str], Set[str]]:
        """Local names bound to base helpers, and to the base module itself."""
        helpers: Dict[str, str] = {}
        modules: Set[str] = set()
        known = helper_requirements()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module in _BASE_MODULE_NAMES or (node.level and module == "base"):
                    for alias in node.names:
                        if alias.name in known:
                            helpers[alias.asname or alias.name] = alias.name
                elif module in {"repro.protocols", "protocols"} or (
                    node.level and module == ""
                ):
                    for alias in node.names:
                        if alias.name == "base":
                            modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _BASE_MODULE_NAMES:
                        modules.add(alias.asname or alias.name.split(".")[0])
        return helpers, modules

    # -- shared accessors ---------------------------------------------- #

    def symbol(self, node: ast.AST) -> str:
        """The enclosing function name of ``node`` ("" at module level)."""
        return self.symbols.get(node, "")

    def finding(self, code: str, node: ast.AST, message: str) -> Finding:
        """Anchor a finding at ``node``."""
        return Finding(
            code=code,
            path=self.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
            symbol=self.symbol(node),
        )


# --------------------------------------------------------------------- #
# the rules
# --------------------------------------------------------------------- #


def _capability_usages(mod: _Module) -> List[Tuple[str, ast.AST, str]]:
    """Every reachable capability use: direct triggers plus helper calls."""
    usages = list(_capability_triggers(mod.tree))
    known = helper_requirements()
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        helper: Optional[str] = None
        if isinstance(node.func, ast.Name) and node.func.id in mod.helper_aliases:
            helper = mod.helper_aliases[node.func.id]
        elif (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in mod.base_module_aliases
            and node.func.attr in known
        ):
            helper = node.func.attr
        if helper:
            for cap in sorted(known[helper]):
                usages.append((cap, node, f"calls `{helper}`, which needs {cap}"))
    return usages


def _check_model(mod: _Module) -> List[Finding]:
    """RPR100–RPR104: declaration present, sufficient, and not inflated."""
    findings: List[Finding] = []
    if not mod.behaviours:
        return findings  # a helper module; requirements surface at call sites
    if mod.model_node is None:
        anchor = mod.behaviours[0]
        findings.append(
            mod.finding(
                "RPR100",
                anchor,
                "module defines behaviour generators but no module-level "
                "`MODEL = ProtocolModel(...)` declaration",
            )
        )
        return findings
    if mod.declared is None:
        return findings  # MODEL exists but is not statically readable
    usages = _capability_usages(mod)
    seen: Set[Tuple[str, int]] = set()
    used_caps: Set[str] = set()
    for cap, node, why in usages:
        used_caps.add(cap)
        key = (cap, getattr(node, "lineno", 1))
        if cap not in mod.declared and key not in seen:
            seen.add(key)
            findings.append(
                mod.finding(
                    _CAP_TO_CODE[cap],
                    node,
                    f"{why}, but `MODEL` does not declare `{cap}=True`",
                )
            )
    for cap in sorted(mod.declared - used_caps):
        findings.append(
            mod.finding(
                "RPR104",
                mod.model_node,
                f"`MODEL` declares `{cap}=True` but no behaviour in this "
                "module can reach that capability",
            )
        )
    return findings


def _check_board_mutation(mod: _Module) -> List[Finding]:
    """RPR110: mutating board snapshots instead of yielding mutators."""
    findings: List[Finding] = []
    for func in mod.functions:
        snapshots: Set[str] = set()
        nodes = list(_iter_scope(func))
        for node in nodes:  # first pass: names bound to board reads
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                if not isinstance(target, ast.Name):
                    continue
                if isinstance(value, ast.Yield) and isinstance(value.value, ast.Call):
                    if _call_name(value.value.func) == "ReadWhiteboard":
                        snapshots.add(target.id)
                elif isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
                    if value.func.attr == "wb":
                        snapshots.add(target.id)

        def _is_snapshot(expr: ast.expr) -> bool:
            if isinstance(expr, ast.Name) and expr.id in snapshots:
                return True
            return (
                isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "wb"
            )

        for node in nodes:  # second pass: mutations of those names
            bad: Optional[ast.AST] = None
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript) and _is_snapshot(target.value):
                        bad = target
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATING_METHODS and _is_snapshot(node.func.value):
                    bad = node
            if bad is not None:
                findings.append(
                    mod.finding(
                        "RPR110",
                        bad,
                        "whiteboard snapshot mutated in place; changes are "
                        "invisible to other agents — yield `WriteWhiteboard` "
                        "or `UpdateWhiteboard` instead",
                    )
                )
    return findings


def _check_yields(mod: _Module) -> List[Finding]:
    """RPR120: behaviour generators must yield ``Action`` values."""
    findings: List[Finding] = []
    literal = (
        ast.Constant,
        ast.Tuple,
        ast.List,
        ast.Dict,
        ast.Set,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.BinOp,
        ast.BoolOp,
        ast.Compare,
        ast.UnaryOp,
        ast.JoinedStr,
    )
    for func in mod.behaviours:
        for node in _own_yields(func):
            value = node.value
            if isinstance(node, ast.YieldFrom):
                if isinstance(value, literal):
                    findings.append(
                        mod.finding(
                            "RPR120",
                            node,
                            "`yield from` of a non-generator literal in a "
                            "behaviour; delegate to an action-yielding generator",
                        )
                    )
                continue
            non_action = (
                value is None
                or isinstance(value, literal)
                or (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in _NON_ACTION_BUILTINS
                )
            )
            if non_action:
                what = "a bare `yield`" if value is None else "a non-`Action` value"
                findings.append(
                    mod.finding(
                        "RPR120",
                        node,
                        f"behaviour yields {what}; the engine only accepts "
                        "the `Action` vocabulary and raises `AgentError` on "
                        "anything else",
                    )
                )
    return findings


@dataclass(frozen=True)
class _Layer:
    """One row of :data:`_LAYERS`: the rule ``code`` covers the files in a
    ``package`` directory (only those with one of ``stems``, if given);
    they must not import the ``forbidden`` subpackages of ``repro``, and
    ``message`` names the offending import as ``{imported}``."""

    code: str
    package: str
    stems: Tuple[str, ...]
    forbidden: Tuple[str, ...]
    message: str


#: The package layering, one row per rule.  Each arrow runs against an
#: import the other way: the engine imports ``repro.obs``, the CLI
#: imports ``repro.exec``, the analysis/exec/CLI planes consume
#: ``repro.fastpath``, and every runtime layer reports into the tracing
#: plane through injected handles (``bind_tracer``,
#: ``set_active_tracer``).  A trace module is also an ``obs`` module, so
#: it answers to both RPR200 and RPR230.
_LAYERS: Tuple[_Layer, ...] = (
    _Layer(
        "RPR200", "obs", (), ("sim", "protocols"),
        "`repro.obs` imports `{imported}`: the engine imports the "
        "observability layer, so this is an import cycle — pass "
        "state through event payloads instead",
    ),
    _Layer(
        "RPR210", "exec", (), ("cli", "viz"),
        "`repro.exec` imports `{imported}`: the CLI imports the "
        "executor, so this is an import cycle — return JSON-able "
        "values from tasks and let the frontend render them",
    ),
    _Layer(
        "RPR220", "fastpath", (),
        ("sim", "protocols", "analysis", "exec", "cli", "viz", "obs"),
        "`repro.fastpath` imports `{imported}`: the fast path sits "
        "below the analysis/exec/CLI planes and must stay importable "
        "without them — only `repro.core`, `repro.topology` and "
        "`repro.errors` are allowed",
    ),
    _Layer(
        "RPR230", "obs", ("trace", "runlog", "prom"),
        ("sim", "protocols", "exec", "fastpath", "analysis", "cli", "viz"),
        "tracing module imports `{imported}`: every runtime layer "
        "reports into tracing through injected handles "
        "(`bind_tracer`, `set_active_tracer`), so this is an "
        "import cycle — keep trace/runlog/prom layering-terminal",
    ),
)


def _check_layering(mod: _Module) -> List[Finding]:
    """RPR200–RPR230: every row of :data:`_LAYERS` that covers the file.

    Flags absolute imports of a forbidden package or of its submodules
    (``import repro.sim.x``, ``from repro.sim import y``, but not
    ``repro.simx``) and relative imports that climb out of the covered
    package toward one (``from ..sim import y``, and ``from .. import
    sim``, which names the package as ``..sim``).  ``from .sim import y``
    stays inside the package.
    """
    path = Path(mod.path)
    layers = [
        layer
        for layer in _LAYERS
        if layer.package in path.parts and (not layer.stems or path.stem in layer.stems)
    ]
    if not layers:
        return []
    findings: List[Finding] = []
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            imports = [(alias.name, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imports = [(node.module or "", node.module or "")]
        elif isinstance(node, ast.ImportFrom) and node.level >= 2:
            dots = "." * node.level
            if node.module:
                imports = [(f"repro.{node.module}", dots + node.module)]
            else:  # ``from .. import sim``: each alias is a module
                imports = [(f"repro.{alias.name}", dots + alias.name) for alias in node.names]
        else:
            continue
        for name, imported in imports:
            for layer in layers:
                if any(
                    name == f"repro.{p}" or name.startswith(f"repro.{p}.") for p in layer.forbidden
                ):
                    message = layer.message.format(imported=imported)
                    findings.append(mod.finding(layer.code, node, message))
    return findings


def _check_memory(mod: _Module) -> List[Finding]:
    """RPR130: agent memory writes must go through ``remember``."""
    findings: List[Finding] = []

    def _is_foreign_memory(expr: ast.expr) -> bool:
        """``<obj>.memory`` for any object except ``self`` (the accounted
        implementation inside :class:`AgentContext` itself)."""
        return (
            isinstance(expr, ast.Attribute)
            and expr.attr == "memory"
            and not (isinstance(expr.value, ast.Name) and expr.value.id == "self")
        )

    message = (
        "direct agent-memory write bypasses `AgentContext.remember` and "
        "its `O(log n)`-bit accounting (`estimate_bits`)"
    )
    for node in ast.walk(mod.tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and _is_foreign_memory(target.value):
                    findings.append(mod.finding("RPR130", target, message))
                elif (
                    isinstance(target, ast.Attribute)
                    and target.attr in {"memory", "peak_memory_bits"}
                    and not (isinstance(target.value, ast.Name) and target.value.id == "self")
                ):
                    findings.append(
                        mod.finding(
                            "RPR130",
                            target,
                            f"rebinding `{ast.unparse(target)}` defeats the "
                            "agent-memory bit accounting",
                        )
                    )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATING_METHODS and _is_foreign_memory(node.func.value):
                findings.append(mod.finding("RPR130", node, message))
    return findings


# --------------------------------------------------------------------- #
# public entry points
# --------------------------------------------------------------------- #


def _sort(findings: Sequence[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.column, f.code))


def _self_attr(node: ast.AST) -> Optional[str]:
    """``X`` if ``node`` is ``self.X``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _looks_like_strategy(cls: ast.ClassDef, methods: Dict[str, _AnyFunction]) -> bool:
    """Whether ``cls`` participates in the schedule-cache contract.

    Heuristic on purpose: a base named ``*Strategy``, a ``register``
    decorator, or an own ``cache_params`` override all mark the class as
    fingerprinted by the cache; a random class that merely has a
    ``generate`` method is not.
    """
    for base in cls.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        if name and "Strategy" in name:
            return True
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if _call_name(target) == "register":
            return True
    return "cache_params" in methods


def _check_cache_params(mod: _Module) -> List[Finding]:
    """RPR240: generation-steering constructor knobs must be in
    ``cache_params``.

    The schedule cache fingerprints ``(strategy name, version tag,
    dimension, cache_params())`` — nothing else.  A constructor
    parameter stored on ``self`` and read anywhere in the generation
    closure (``generate``/``generate_chunks``/``stream_moves``/
    ``stream_blocks``/``expected_team_size`` plus every helper method they
    reach through ``self.<m>()``) steers the schedule bytes, so leaving it
    out of ``cache_params`` makes two
    differently-configured instances address the same entry: whichever
    runs second is served the first one's schedule.  Knobs assigned from
    constants (internal state, memo slots) are not configuration and do
    not count.
    """
    findings: List[Finding] = []
    for cls in (n for n in ast.walk(mod.tree) if isinstance(n, ast.ClassDef)):
        methods: Dict[str, _AnyFunction] = {
            m.name: m for m in cls.body if isinstance(m, _FunctionNode)
        }
        roots = [
            name
            for name in (
                "generate",
                "stream_moves",
                "stream_blocks",
                "generate_chunks",
                "expected_team_size",
            )
            if name in methods
        ]
        init = methods.get("__init__")
        if not roots or init is None or not _looks_like_strategy(cls, methods):
            continue
        args = init.args
        params = {
            a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        } - {"self"}
        for star in (args.vararg, args.kwarg):
            if star is not None:
                params.add(star.arg)
        # knobs: ``self.X = <expr mentioning an __init__ parameter>``
        knobs: Dict[str, ast.AST] = {}
        for node in ast.walk(init):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets, value = [node.target], node.value
            else:
                continue
            if value is None or not any(
                isinstance(sub, ast.Name) and sub.id in params
                for sub in ast.walk(value)
            ):
                continue
            for target in targets:
                attr = _self_attr(target)
                if attr is not None:
                    knobs.setdefault(attr, node)
        if not knobs:
            continue
        # the generation closure: methods reachable from the roots
        reached: Set[str] = set()
        frontier = list(roots)
        while frontier:
            name = frontier.pop()
            if name in reached or name not in methods:
                continue
            reached.add(name)
            for node in ast.walk(methods[name]):
                if isinstance(node, ast.Call):
                    callee = _self_attr(node.func)
                    if callee is not None:
                        frontier.append(callee)
        read: Set[str] = set()
        for name in reached:
            for node in ast.walk(methods[name]):
                attr = _self_attr(node)
                if attr is not None and isinstance(node.ctx, ast.Load):
                    read.add(attr)
        hot = sorted(attr for attr in knobs if attr in read)
        if not hot:
            continue
        covered: Set[str] = set()
        cache_params = methods.get("cache_params")
        if cache_params is not None:
            for node in ast.walk(cache_params):
                attr = _self_attr(node)
                if attr is not None:
                    covered.add(attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    covered.add(node.value)
        for attr in hot:
            if {attr, attr.lstrip("_")} & covered:
                continue
            findings.append(
                mod.finding(
                    "RPR240",
                    knobs[attr],
                    f"constructor knob `self.{attr}` steers `{cls.name}` "
                    "generation but `cache_params()` omits it — two "
                    "differently-configured instances share one cache "
                    "fingerprint, so one is served the other's stale "
                    "schedule",
                )
            )
    return findings


def _per_file_findings(mod: _Module) -> List[Finding]:
    """Every single-module rule (RPR100–RPR240, RPR340/RPR350)."""
    return (
        _check_model(mod)
        + _check_board_mutation(mod)
        + _check_yields(mod)
        + _check_memory(mod)
        + _check_cache_params(mod)
        + _check_layering(mod)
        + check_concurrency(mod.tree, mod.path)
    )


def _analyze_module(
    source: str, path: str
) -> Tuple[List[Finding], SuppressionTable, Set[int], ast.AST]:
    """One module's per-file pass: suppressed findings stay out, and the
    suppression table travels with the result so the whole-program pass
    (and the unused-suppression report) can consult it."""
    mod = _Module(source, path)
    table = SuppressionTable.from_source(source)
    findings, used = apply_suppressions(_sort(_per_file_findings(mod)), table, path)
    return findings, table, used, mod.tree


def analyze_source(source: str, path: str = "<string>") -> List[Finding]:
    """Analyze one module given as source text; returns sorted findings.

    Runs the per-file rules plus the whole-program passes restricted to
    this single module (a ``Strategy`` defined here with a reachable
    hazard is still reported), honours inline suppressions, and reports
    unused ones (RPR010).
    """
    findings, table, used, tree = _analyze_module(source, path)
    project = check_determinism(build_program_graph({path: tree}))
    project += check_schema_drift({path: tree})
    kept, project_used = apply_suppressions(_sort(project), table, path)
    findings = findings + kept
    findings += unused_suppression_findings(table, used | project_used, path)
    return _sort(findings)


def analyze_path(path: Path) -> List[Finding]:
    """Analyze one ``.py`` file."""
    return analyze_source(path.read_text(), str(path))


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files and/or directories into ``.py`` files (recursively)."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def parse_trees(paths: Sequence[Path]) -> Dict[str, ast.AST]:
    """``{path: parsed tree}`` for every readable, parseable file."""
    trees: Dict[str, ast.AST] = {}
    for file in collect_files(paths):
        try:
            trees[str(file)] = ast.parse(file.read_text(), filename=str(file))
        except (OSError, SyntaxError, UnicodeDecodeError):
            continue
    return trees


def analyze_paths(paths: Sequence[Path]) -> List[Finding]:
    """Analyze files/directories: per-file rules plus the whole-program
    determinism and schema passes over the combined module set."""
    return run_analysis(paths).findings


@dataclass
class LintRun:
    """One full analysis: findings plus the accounting the CLI reports."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    files_analyzed: int = 0
    files_cached: int = 0
    baselined: int = 0
    tree_cache_hit: bool = False
    #: ``(path, message)`` per unreadable/unparseable input — exit code 2
    errors: List[Tuple[str, str]] = field(default_factory=list)


def run_analysis(
    paths: Sequence[Path],
    *,
    cache: Optional[LintCache] = None,
    baseline_path: Optional[Path] = None,
    schema_baseline: Optional[Path] = None,
) -> LintRun:
    """The full driver behind the CLI: incremental cache, suppressions,
    whole-program passes, findings baseline.

    Per-file results are served from ``cache`` by content hash; the
    whole-program pass is served by the hash of the entire file set, so
    a warm run over an unchanged tree parses nothing at all.
    """
    run = LintRun()
    files = collect_files(paths)
    run.files_scanned = len(files)

    contents: Dict[str, bytes] = {}
    for file in files:
        try:
            contents[str(file)] = file.read_bytes()
        except OSError as exc:
            run.errors.append((str(file), f"cannot read: {exc}"))

    hashes = {path: content_hash(data) for path, data in contents.items()}
    per_file: Dict[str, Tuple[List[Finding], SuppressionTable, Set[int]]] = {}
    trees: Dict[str, ast.AST] = {}
    for path, data in contents.items():
        key = hashes[path]
        if cache is not None:
            hit = cache.load_file(key, path)
            if hit is not None:
                findings, table, used = hit
                per_file[path] = (findings, table, set(used))
                run.files_cached += 1
                continue
        try:
            source = data.decode("utf-8")
            findings, table, used, tree = _analyze_module(source, path)
        except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
            message = getattr(exc, "msg", None) or str(exc)
            lineno = getattr(exc, "lineno", None)
            where = f"line {lineno}: " if lineno else ""
            run.errors.append((path, f"cannot parse: {where}{message}"))
            continue
        run.files_analyzed += 1
        per_file[path] = (findings, table, used)
        trees[path] = tree
        if cache is not None:
            cache.store_file(key, findings, table, sorted(used))

    # ---- whole-program passes (determinism walk + schema drift) ------- #
    canonical = {path: canonical_path(path) for path in per_file}
    tree_key = tree_hash([(canonical[p], hashes[p]) for p in per_file])
    project_findings: List[Finding] = []
    project_used: Dict[str, Set[int]] = {}
    served = None
    if cache is not None:
        reverse = {canon: path for path, canon in canonical.items()}
        served = cache.load_tree(tree_key, reverse)
    if served is not None:
        project_findings, used_by_canon = served
        run.tree_cache_hit = True
        reverse = {canon: path for path, canon in canonical.items()}
        for canon, lines in used_by_canon.items():
            project_used[reverse.get(canon, canon)] = set(lines)
    else:
        for path in per_file:
            if path not in trees:  # per-file cache hit: parse for the graph
                try:
                    trees[path] = ast.parse(contents[path].decode("utf-8"), filename=path)
                except (SyntaxError, UnicodeDecodeError, ValueError):  # pragma: no cover
                    continue  # cached as parseable; racing edit — skip
        graph_trees = {path: tree for path, tree in trees.items() if path in per_file}
        raw = check_determinism(build_program_graph(graph_trees))
        raw += check_schema_drift(graph_trees, schema_baseline)
        for finding in _sort(raw):
            entry = per_file.get(finding.path)
            table = entry[1] if entry else SuppressionTable({})
            kept, used = apply_suppressions([finding], table, finding.path)
            project_findings.extend(kept)
            if used:
                project_used.setdefault(finding.path, set()).update(used)
        if cache is not None:
            cache.store_tree(
                tree_key,
                project_findings,
                {p: sorted(lines) for p, lines in project_used.items()},
                canonical,
            )

    # ---- merge, unused suppressions, baseline ------------------------- #
    findings: List[Finding] = []
    for path, (file_findings, table, used) in per_file.items():
        findings.extend(file_findings)
        findings.extend(
            unused_suppression_findings(
                table, used | project_used.get(path, set()), path
            )
        )
    findings.extend(project_findings)

    if baseline_path is not None:
        entries = load_baseline(baseline_path)
        findings, run.baselined = apply_baseline(findings, entries, baseline_path)

    run.findings = _sort(findings)
    return run
