"""Algorithm 2 as genuine autonomous agents (Section 4 model).

Every agent runs the identical local rule of the paper:

* register on the local whiteboard (a counter — ``O(log n)`` bits);
* on a node ``x`` of type ``T(k)``: wait until the full squad of
  ``2^{k-1}`` agents is present *and* every smaller neighbour of ``x`` is
  clean or guarded (observed with the visibility capability);
* claim a departure slot from the whiteboard in mutual exclusion — slot
  order determines the destination child (``2^{i-1}`` slots for the
  type-``T(i)`` child, largest first), which is the paper's "which agent
  go to which node is also determined by accessing the whiteboard";
* move, re-register, repeat; terminate on a leaf (and keep guarding it).

The squad-complete condition is made *sticky* via the ``taken`` counter
(once any agent has claimed a slot the rest may follow even though the
live count has dropped) — without it, later agents would wait for a full
squad that can never re-form.  Correctness under arbitrary delay models is
Theorem 6; the tests run this under unit, random and adversarial delays
and check monotonicity, capture, and the exact Theorem 5/7/8 counts.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, Optional

from repro.analysis.formulas import agents_for_type, visibility_agents
from repro.errors import SimulationError
from repro.protocols.base import (
    ProtocolModel,
    cached_tree,
    child_for_slot,
    decrement,
    increment,
    smaller_all_safe,
    take_slot,
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

__all__ = ["MODEL", "visibility_agent", "run_visibility_protocol"]

#: Section 4 model: whiteboards plus neighbour visibility.
MODEL = ProtocolModel(visibility=True)


@lru_cache(maxsize=None)
def _squad_ready(dimension: int, node: int, needed: int) -> Callable[[NodeView], bool]:
    """The squad's wait predicate at ``node``: one function object per
    ``(dimension, node, needed)``, so the squad shares one wait group on
    the engine and the whole squad costs one evaluation per event."""
    safe = smaller_all_safe(dimension, node)

    def ready(view: NodeView) -> bool:
        if (view.wb("taken") or 0) > 0:
            return True  # squad already broke camp; follow it
        return bool(view.wb("count") == needed and safe(view))

    return ready


def visibility_agent(ctx: AgentContext):
    """Behaviour generator implementing the Algorithm 2 local rule."""
    tree = cached_tree(ctx.dimension)
    yield UpdateWhiteboard(increment("count"))  # register at the homebase
    while True:
        node = ctx.node
        k = tree.node_type(node)
        if k == 0:
            # a leaf: nothing bigger to clean; guard it forever
            yield Terminate()
            return
        needed = agents_for_type(k)
        yield WaitUntil(
            _squad_ready(ctx.dimension, node, needed),
            description=f"squad of {needed} at {node}",
        )
        slot = yield UpdateWhiteboard(take_slot(needed))
        if slot is None:
            raise SimulationError(
                f"agent {ctx.agent_id} found no free slot at {node}"
            )
        destination = child_for_slot(ctx.dimension, node, slot)
        yield UpdateWhiteboard(decrement("count"))
        yield Move(destination)
        yield UpdateWhiteboard(increment("count"))


def run_visibility_protocol(
    dimension: int,
    *,
    delay: Optional[DelayModel] = None,
    intruder: Optional[str] = "reachable",
    check_contiguity: bool = True,
    whiteboard_capacity_bits: Optional[int] = None,
    subscribers: Optional[List] = None,
    trace_maxlen: Optional[int] = None,
) -> SimResult:
    """Run Algorithm 2 on the engine with ``n/2`` agents; returns the result.

    ``whiteboard_capacity_bits`` defaults to unlimited; pass e.g.
    ``8 * (dimension + 2)`` to enforce the paper's ``O(log n)`` bound.
    """
    h = Hypercube(dimension)
    team = visibility_agents(dimension)
    behaviors: List = [visibility_agent] * team
    engine = Engine(
        h,
        behaviors,
        delay=delay,
        visibility=True,
        intruder=intruder,
        check_contiguity=check_contiguity,
        whiteboard_capacity_bits=whiteboard_capacity_bits,
        subscribers=subscribers,
        trace_maxlen=trace_maxlen,
    )
    return engine.run()
