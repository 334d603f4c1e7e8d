"""Strategy abstraction and registry.

A :class:`Strategy` turns a hypercube into a complete
:class:`~repro.core.schedule.Schedule` (the deterministic "schedule plane").
Each paper strategy also declares its *model* (what capabilities it
assumes) and its expected complexity figures from
:mod:`repro.analysis.formulas`, so tests and benches can compare measured
vs. predicted uniformly.

The registry maps names to classes; strategies self-register via the
:func:`register` decorator, and :func:`get_strategy` instantiates by name —
this is what the CLI and the benches use.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterator, List, Optional, Type

from repro.core.chunkstream import (
    DEFAULT_CHUNK_MOVES,
    BlockStream,
    ChunkStreamHeader,
    ScheduleChunk,
    assemble_chunks,
    block_rows_for,
    chunk_move_stream,
    chunks_from_schedule,
)
from repro.core.schedule import Move, Schedule
from repro.errors import ReproError
from repro.obs.trace import get_active_tracer
from repro.topology.hypercube import Hypercube

__all__ = [
    "Strategy",
    "register",
    "get_strategy",
    "available_strategies",
    "set_active_cache",
    "get_active_cache",
]

_REGISTRY: Dict[str, Type["Strategy"]] = {}

#: process-wide schedule cache consulted by :meth:`Strategy.run`.
#:
#: Duck-typed on purpose (anything with ``schedule_for(strategy,
#: dimension)`` works) so this module never imports
#: :mod:`repro.fastpath` — the dependency points the other way.
_ACTIVE_CACHE: Optional[object] = None


def set_active_cache(cache: Optional[object]) -> Optional[object]:
    """Install (or clear, with ``None``) the process-wide schedule cache.

    Returns the previous cache so callers can restore it.  The cache is
    consulted by every :meth:`Strategy.run`, which is how sweeps,
    experiments and executor workers all get the warm path without
    threading a cache handle through each call site.
    """
    global _ACTIVE_CACHE
    previous = _ACTIVE_CACHE
    _ACTIVE_CACHE = cache
    return previous


def get_active_cache() -> Optional[object]:
    """The currently installed process-wide schedule cache, if any."""
    return _ACTIVE_CACHE


class Strategy(abc.ABC):
    """Base class for cleaning strategies.

    Subclasses set :attr:`name` (registry key) and :attr:`model` (the
    capability model: ``"whiteboard"``, ``"visibility"``, ``"cloning"`` or
    ``"synchronous"``) and implement :meth:`generate`.
    """

    #: registry key, e.g. ``"clean"``
    name: str = ""
    #: capability model the strategy needs
    model: str = ""
    #: generator version tag; bump whenever :meth:`generate` changes its
    #: output for the same inputs, so content-addressed cache entries
    #: built from the old generator stop matching.
    version: str = "1"
    #: whether agents are created away from the homebase (Section 5);
    #: part of the chunk-stream header, needed before the first move.
    uses_cloning: bool = False

    def cache_params(self) -> Dict[str, object]:
        """Parameters that change the generated schedule (cache key part).

        The base strategies are parameter-free; a parameterised subclass
        must return every knob that affects :meth:`generate` output here,
        or stale cache entries will be served across configurations.
        """
        return {}

    @abc.abstractmethod
    def generate(self, hypercube: Hypercube) -> Schedule:
        """Produce the full cleaning schedule for ``hypercube``."""

    # ------------------------------------------------------------------ #
    # streaming production (the chunk plane)
    # ------------------------------------------------------------------ #

    def stream_moves(self, hypercube: Hypercube) -> Iterator[Move]:
        """Yield the schedule's moves in replay order, incrementally.

        A generator whose ``return`` value is the stream *footer*: a dict
        with the final ``team_size`` and the generator ``metadata`` (both
        only known once generation finishes).  Strategies with a native
        streaming generator override this to run in ``O(frontier)``
        memory; this default materializes via :meth:`generate` and
        replays — correct for every strategy, bounded for none.
        """
        schedule = self.generate(hypercube)
        yield from schedule.moves
        return {  # type: ignore[return-value]
            "team_size": schedule.team_size,
            "metadata": dict(schedule.metadata),
        }

    def stream_blocks(
        self, hypercube: Hypercube, block_rows: int
    ) -> Optional[BlockStream]:
        """The columnar twin of :meth:`stream_moves`, if the strategy has one.

        A generator yielding the schedule's rows in replay order as
        :data:`~repro.core.chunkstream.Block`\\ s of at most
        ``block_rows`` rows — six int64 columns, kinds and roles encoded —
        whose ``return`` value is the same footer :meth:`stream_moves`
        returns.  Its rows must equal :meth:`stream_moves`' byte for
        byte; the per-``Move`` generator stays the reference it is tested
        against.  ``None`` (this default): no columnar producer, so
        :meth:`generate_chunks` packs :meth:`stream_moves` instead.
        """
        return None

    def generate_chunks(
        self, hypercube: Hypercube, chunk_moves: int = DEFAULT_CHUNK_MOVES
    ) -> Iterator[ScheduleChunk]:
        """Produce the schedule as a bounded-memory chunk stream.

        Yields :class:`~repro.core.chunkstream.ScheduleChunk` blocks in
        the compiled columnar layout; concatenated, they are
        byte-identical to compiling :meth:`generate`'s output.  Bounded
        memory requires an exact up-front team prediction
        (:meth:`expected_team_size` — the streaming verifier seeds the
        homebase guards from it); a strategy without one falls back to
        materialize-then-chunk, which is still chunked for consumers but
        not bounded at the producer.  Otherwise the rows come from
        :meth:`stream_blocks` when the strategy has a columnar producer,
        else from :meth:`stream_moves`; either way one assembler
        (:func:`~repro.core.chunkstream.assemble_chunks`) cuts them into
        chunks.  Subclasses plug in a producer, never override this.
        """
        team = self.expected_team_size(hypercube.d)
        if team is None:
            return chunks_from_schedule(self.generate(hypercube), chunk_moves)
        header = ChunkStreamHeader(
            dimension=hypercube.d,
            strategy=self.name,
            homebase=0,
            uses_cloning=self.uses_cloning,
            team_size=team,
        )
        blocks = self.stream_blocks(hypercube, block_rows_for(chunk_moves))
        if blocks is None:
            return chunk_move_stream(header, self.stream_moves(hypercube), chunk_moves)
        return assemble_chunks(header, blocks, chunk_moves)

    def run_chunks(
        self, dimension: int, chunk_moves: int = DEFAULT_CHUNK_MOVES
    ) -> Iterator[ScheduleChunk]:
        """Streaming counterpart of :meth:`run`: chunks, never a Schedule.

        Serves from the process-wide cache when one is installed and
        offers a chunk-streaming accessor (``stream_chunks``); a traced run
        reports its move count from the final chunk's aggregate block,
        so tracing never forces materialization.
        """
        tracer = get_active_tracer()
        if tracer is None:
            yield from self._run_chunks(dimension, chunk_moves)
            return
        with tracer.span(
            "strategy.run_chunks", strategy=self.name, dimension=dimension
        ) as span:
            moves = 0
            for chunk in self._run_chunks(dimension, chunk_moves):
                moves = chunk.stats_so_far.total_moves
                yield chunk
            span.attrs["moves"] = moves
            span.attrs["chunk_moves"] = chunk_moves

    def _run_chunks(
        self, dimension: int, chunk_moves: int
    ) -> Iterator[ScheduleChunk]:
        cache = _ACTIVE_CACHE
        if cache is not None and hasattr(cache, "stream_chunks"):
            return cache.stream_chunks(self, dimension, chunk_moves)  # type: ignore[attr-defined]
        return self.generate_chunks(Hypercube(dimension), chunk_moves)

    # ------------------------------------------------------------------ #
    # predicted complexities (None = the paper gives only a bound)
    # ------------------------------------------------------------------ #

    def expected_team_size(self, d: int) -> Optional[int]:
        """Exact predicted team size for degree ``d``, if the paper gives one."""
        return None

    def expected_total_moves(self, d: int) -> Optional[int]:
        """Exact predicted total move count, if the paper gives one."""
        return None

    def expected_makespan(self, d: int) -> Optional[int]:
        """Exact predicted ideal-time, if the paper gives one."""
        return None

    def run(self, dimension: int) -> Schedule:
        """Convenience: build the hypercube and generate the schedule.

        When a process-wide cache is installed (:func:`set_active_cache`)
        the schedule is served from it — a warm hit skips generation
        entirely, which is what makes repeat sweeps cheap.  When a
        process-wide tracer is active
        (:func:`repro.obs.trace.set_active_tracer`) the call is wrapped in
        a ``strategy.run`` span; disabled tracing costs one global read.
        """
        tracer = get_active_tracer()
        if tracer is None:
            return self._run(dimension)
        with tracer.span(
            "strategy.run", strategy=self.name, dimension=dimension
        ) as span:
            schedule = self._run(dimension)
            # Report from the aggregate block, not len(schedule.moves): a
            # warm cache hit arrives with the stats header pre-attached,
            # and touching the move list here would force decompilation.
            span.attrs["moves"] = schedule.aggregates().total_moves
            return schedule

    def _run(self, dimension: int) -> Schedule:
        cache = _ACTIVE_CACHE
        if cache is not None:
            return cache.schedule_for(self, dimension)  # type: ignore[attr-defined]
        return self.generate(Hypercube(dimension))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def register(cls: Type[Strategy]) -> Type[Strategy]:
    """Class decorator adding a strategy to the registry."""
    if not cls.name:
        raise ReproError(f"{cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ReproError(f"duplicate strategy name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def get_strategy(name: str) -> Strategy:
    """Instantiate a registered strategy by name.

    >>> get_strategy("visibility").model
    'visibility'
    """
    # Import the concrete modules lazily so the registry is populated even
    # when a caller imports only this module.
    import repro.core.clean  # noqa: F401
    import repro.core.cloning  # noqa: F401
    import repro.core.synchronous  # noqa: F401
    import repro.core.visibility  # noqa: F401
    import repro.search.level_sweep  # noqa: F401

    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ReproError(
            f"unknown strategy {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_strategies() -> List[str]:
    """Sorted names of all registered strategies."""
    import repro.core.clean  # noqa: F401
    import repro.core.cloning  # noqa: F401
    import repro.core.synchronous  # noqa: F401
    import repro.core.visibility  # noqa: F401
    import repro.search.level_sweep  # noqa: F401

    return sorted(_REGISTRY)
