"""Algorithm 1 as a genuine whiteboard protocol (Section 3 model).

No visibility, no clock, no cloning: one *synchronizer* agent coordinates a
pool of identical *followers* purely by writing orders on whiteboards.  The
paper's informal description leaves the coordination mechanics open ("the
whiteboard is used for any communication between the synchronizer and the
agents"); the concrete realization here keeps every whiteboard at
``O(log n)`` bits:

Root whiteboard:
    ``order_target`` / ``order_remaining`` — a single dispatch order: the
    next ``order_remaining`` idle followers should walk the broadcast-tree
    path to ``order_target``.  The synchronizer waits for the slot to
    drain before posting the next order.  ``idle`` counts followers parked
    at the root; ``done`` ends the protocol.

Node whiteboards:
    ``count`` — settled agents present; ``advance_to`` — a one-shot order
    "one agent move down this tree edge"; ``release`` — the leaf order
    "walk home".

The synchronizer's walk mirrors :class:`~repro.core.clean.CleanStrategy`
exactly (same escort pattern, same meet-routed navigation, same
lexicographic order), so the follower move multiset matches the schedule
plane move-for-move; synchronizer navigation differs only in the final
homeward trip (the protocol synchronizer walks to the last node to release
it and returns to the root to post ``done``).

Asynchrony-safety: every synchronizer step waits on *local* whiteboard
state (it reads only the board of the node it stands on), and followers
wait on their own board — the protocol is correct under any delay model,
which the tests exercise with random and adversarial delays.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.formulas import clean_peak_agents
from repro.protocols.base import (
    ProtocolModel,
    cached_hypercube,
    cached_tree,
    decrement,
    increment,
)
from repro.sim.agent import (
    AgentContext,
    Move,
    NodeView,
    Terminate,
    UpdateWhiteboard,
    WaitUntil,
)
from repro.sim.engine import Engine, SimResult
from repro.sim.scheduling import DelayModel
from repro.topology.hypercube import Hypercube

__all__ = ["MODEL", "synchronizer_agent", "follower_agent", "run_clean_protocol"]

#: Section 3 model: whiteboards only — no visibility, no cloning, no clock.
MODEL = ProtocolModel()


# ---------------------------------------------------------------------- #
# whiteboard mutators
# ---------------------------------------------------------------------- #


def _post_dispatch(target: int, count: int):
    def mutate(wb: Dict) -> None:
        wb["order_target"] = target
        wb["order_remaining"] = count
        return None

    return mutate


def _take_dispatch(wb: Dict) -> Optional[int]:
    remaining = wb.get("order_remaining", 0)
    if remaining <= 0:
        return None
    wb["order_remaining"] = remaining - 1
    return wb["order_target"]


def _post_advance(child: int):
    def mutate(wb: Dict) -> None:
        wb["advance_to"] = child
        return None

    return mutate


def _take_advance(wb: Dict) -> Optional[int]:
    child = wb.get("advance_to")
    if child is None:
        return None
    wb["advance_to"] = None
    return child


def _take_release(wb: Dict) -> bool:
    if wb.get("release"):
        wb["release"] = False
        return True
    return False


# ---------------------------------------------------------------------- #
# follower waits
# ---------------------------------------------------------------------- #
#
# Module-level functions, so every follower waiting at one node yields the
# same predicate object and the engine evaluates their wait once.


def _dispatch_or_done(view: NodeView) -> bool:
    """An idle follower's wait at the root: a dispatch order is posted, or
    the protocol is done."""
    return bool(view.wb("done")) or (view.wb("order_remaining") or 0) > 0


def _advance_or_release(view: NodeView) -> bool:
    """A guard's wait: an advance order or the release is posted here."""
    return view.wb("advance_to") is not None or bool(view.wb("release"))


# ---------------------------------------------------------------------- #
# behaviours
# ---------------------------------------------------------------------- #


def synchronizer_agent(ctx: AgentContext):
    """The coordinator: drives Algorithm 1 through whiteboard orders."""
    d = ctx.dimension
    h = cached_hypercube(d)
    tree = cached_tree(d)

    def walk(path: List[int]):
        for dst in path[1:]:
            yield Move(dst)

    def navigate(dst: int):
        yield from walk(h.path_via_meet(ctx.node, dst))

    def escort_children(node: int):
        """Post one advance order per tree child, escorting each move."""
        for child in tree.children(node):
            # wait for the previous advance order to be consumed
            yield WaitUntil(
                lambda view: view.wb("advance_to") is None,
                description=f"advance slot free at {node}",
            )
            yield UpdateWhiteboard(_post_advance(child))
            yield Move(child)
            yield WaitUntil(
                lambda view: (view.wb("count") or 0) >= 1,
                description=f"agent settled at {child}",
            )
            yield Move(node)

    if d == 0:
        yield UpdateWhiteboard(lambda wb: wb.__setitem__("done", True))
        yield Terminate()
        return

    # ---- step 1: root to level 1 (escort one agent to each child) ----- #
    for child in tree.children(0):
        yield WaitUntil(
            lambda view: (view.wb("idle") or 0) >= 1,
            description="an idle follower at the root",
        )
        yield WaitUntil(
            lambda view: (view.wb("order_remaining") or 0) == 0,
            description="dispatch slot free",
        )
        yield UpdateWhiteboard(_post_dispatch(child, 1))
        yield Move(child)
        yield WaitUntil(
            lambda view: (view.wb("count") or 0) >= 1,
            description=f"agent settled at {child}",
        )
        yield Move(0)

    # ---- step 2: level l to level l + 1 -------------------------------- #
    for level in range(1, d):
        level_nodes = h.level_nodes(level)

        # 2.1: back at the root, dispatch the extra agents
        yield from navigate(0)
        for x in level_nodes:
            k = tree.node_type(x)
            if k >= 2:
                yield WaitUntil(
                    lambda view: (view.wb("order_remaining") or 0) == 0,
                    description="dispatch slot free",
                )
                yield WaitUntil(
                    lambda view, need=k - 1: (view.wb("idle") or 0) >= need,
                    description=f"{k - 1} idle followers for {x}",
                )
                yield UpdateWhiteboard(_post_dispatch(x, k - 1))

        # 2.2 / 2.3: walk the level in lexicographic order
        for x in level_nodes:
            yield from navigate(x)
            k = tree.node_type(x)
            yield WaitUntil(
                lambda view, need=max(1, k): (view.wb("count") or 0) >= need,
                description=f"{max(1, k)} agents assembled at {x}",
            )
            if k == 0:
                yield UpdateWhiteboard(lambda wb: wb.__setitem__("release", True))
            else:
                yield from escort_children(x)

    # ---- final: release the guard of 11...1 and finish ----------------- #
    final_node = (1 << d) - 1
    yield from navigate(final_node)
    yield UpdateWhiteboard(lambda wb: wb.__setitem__("release", True))
    yield from navigate(0)
    yield UpdateWhiteboard(lambda wb: wb.__setitem__("done", True))
    yield Terminate()


def follower_agent(ctx: AgentContext):
    """A pool agent: waits for orders, walks, guards, returns."""
    d = ctx.dimension
    tree = cached_tree(d)

    yield UpdateWhiteboard(increment("idle"))
    while True:
        # parked at the root: wait for a dispatch order or the end
        yield WaitUntil(_dispatch_or_done, description="dispatch order or done")
        order = yield UpdateWhiteboard(_take_dispatch)
        if order is None:
            done = yield UpdateWhiteboard(lambda wb: bool(wb.get("done")))
            if done:
                yield Terminate()
                return
            continue  # lost the race for the order; re-wait

        yield UpdateWhiteboard(decrement("idle"))
        for dst in tree.path_from_root(order)[1:]:
            yield Move(dst)
        yield UpdateWhiteboard(increment("count"))

        # guard duty: advance down tree edges until released
        guarding = True
        while guarding:
            yield WaitUntil(
                _advance_or_release, description=f"advance or release at {ctx.node}"
            )
            child = yield UpdateWhiteboard(_take_advance)
            if child is not None:
                yield UpdateWhiteboard(decrement("count"))
                yield Move(child)
                yield UpdateWhiteboard(increment("count"))
                continue
            released = yield UpdateWhiteboard(_take_release)
            if released:
                yield UpdateWhiteboard(decrement("count"))
                for dst in tree.path_to_root(ctx.node)[1:]:
                    yield Move(dst)
                yield UpdateWhiteboard(increment("idle"))
                guarding = False
            # else: lost a race; re-wait


def run_clean_protocol(
    dimension: int,
    *,
    delay: Optional[DelayModel] = None,
    team_size: Optional[int] = None,
    intruder: Optional[str] = "reachable",
    check_contiguity: bool = True,
    whiteboard_capacity_bits: Optional[int] = None,
    subscribers: Optional[List] = None,
    trace_maxlen: Optional[int] = None,
) -> SimResult:
    """Run Algorithm 1 on the engine (whiteboard model, no visibility).

    ``team_size`` defaults to the Theorem 2 value
    :func:`~repro.analysis.formulas.clean_peak_agents` — the protocol
    deadlocks (reported, not hung: the engine detects quiescence) if given
    fewer agents than some dispatch requires, which the insufficient-team
    test exercises.
    """
    h = Hypercube(dimension)
    team = clean_peak_agents(dimension) if team_size is None else team_size
    behaviors: List = [synchronizer_agent] + [follower_agent] * (team - 1)
    engine = Engine(
        h,
        behaviors,
        delay=delay,
        visibility=False,
        intruder=intruder,
        check_contiguity=check_contiguity,
        whiteboard_capacity_bits=whiteboard_capacity_bits,
        subscribers=subscribers,
        trace_maxlen=trace_maxlen,
    )
    return engine.run()
