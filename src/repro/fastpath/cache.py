"""Content-addressed on-disk cache of schedules as chunk streams.

A :class:`ScheduleCache` maps a *fingerprint* — the SHA-256 of
(cache schema version, on-disk format version tags, strategy name,
strategy version tag, dimension, strategy params) — to one chunked
entry on disk, ``<fingerprint>.rprk``.  The fingerprint is the file
name, so a cache directory is safe to share:

* **between runs** — any input that changes the generated schedule
  (generator code via the strategy ``version`` tag, parameters, the byte
  format itself) changes the fingerprint, so stale entries are never
  *served*, they are simply never addressed again;
* **between processes** — writes go to a unique tmp file in the same
  directory followed by :func:`os.replace`, which is atomic on POSIX and
  Windows, so parallel executor workers racing on the same entry each
  publish a complete entry and the last one wins (they are byte-identical
  anyway: generation is deterministic);
* **against corruption** — the header, every chunk record and the
  footer each carry a length and a CRC, so a torn, truncated or
  bit-flipped entry fails the reader
  (:class:`~repro.errors.CompiledScheduleError`), is deleted, counted as
  ``corrupt`` and regenerated; it never crashes a run and never
  propagates garbage.

An entry is one layout: a header up front, fixed-size column blocks
each in its own length + CRC record, and a metadata/stats footer at the
end.  Every accessor is a view over it.  :meth:`ScheduleCache.stream_chunks`
streams it — chunks come straight off disk, never the whole entry in
memory, never a ``Move`` object, and a corrupt chunk costs one
deterministic regeneration spliced invisibly into the stream; a miss
tees the strategy's producer into a new entry while the consumer
drains it.  :meth:`~ScheduleCache.load` assembles an entry into the
whole schedule as one chunk
(:func:`~repro.core.chunkstream.concat_chunks`),
:meth:`~ScheduleCache.store` slices such a chunk into an entry (the
bytes a streamed entry of the same schedule has), and
:meth:`~ScheduleCache.schedule_for` turns the stream into a
:class:`~repro.core.schedule.Schedule`.  Files of the older monolithic
layout (``.rprc``) are never read; :meth:`~ScheduleCache.clear` removes
them.

Hit/miss/corrupt counts are mirrored into the process-wide
:class:`~repro.obs.metrics.MetricsRegistry` (``fastpath.cache.*``
counters) for run manifests, without this module importing any
higher layer — the registry is injected by the caller via
:meth:`ScheduleCache.bind_metrics`.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import tempfile
import zlib
from array import array
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.chunkstream import (
    DEFAULT_CHUNK_MOVES,
    KIND_CODE,
    KINDS,
    ROLE_CODE,
    ROLES,
    AggregateScanner,
    ChunkStreamHeader,
    ScheduleChunk,
    chunks_to_schedule,
    concat_chunks,
    rechunk,
)
from repro.core.schedule import MoveKind, Schedule, ScheduleAggregates
from repro.core.states import AgentRole
from repro.core.strategy import Strategy
from repro.errors import CompiledScheduleError, ScheduleCacheError, ScheduleError
from repro.fastpath.compiled import (
    COLUMN_NAMES,
    FORMAT_VERSION,
    SCHEMA_VERSION,
    decode_metadata,
    encode_metadata,
)

__all__ = ["ScheduleCache", "CacheStats", "default_cache_dir", "fingerprint"]

#: bump to orphan every existing cache entry at once
CACHE_SCHEMA = "schedule-cache/v2"

#: magic prefix of a cache entry
CHUNK_MAGIC = b"RPRK"

# entry layout (version = FORMAT_VERSION, schema tag = SCHEMA_VERSION):
#   CHUNK_MAGIC | version u16 | header_len u32 | crc32(header JSON) u32 |
#   header JSON |
#   chunk records: n_rows u32 | crc32(payload) u32 | payload |
#   footer record: 0xFFFFFFFF u32 | crc32(footer JSON) u32 |
#                  footer_len u32 | footer JSON
# The header holds everything known before the first move (the chunk
# stream header fields + enum value tables + the stored block size);
# the footer holds what only the end of generation knows (metadata,
# final aggregate stats).  Each chunk payload is the six int64 columns
# of the block, concatenated in COLUMN_NAMES order, little-endian, and
# is independently CRC-protected: one flipped bit costs one chunk's
# regeneration, not the whole entry's trust.
_CHUNK_PREAMBLE = struct.Struct("<4sHII")
_CHUNK_RECORD = struct.Struct("<II")
_FOOTER_SENTINEL = 0xFFFFFFFF

#: file suffix of an entry; entries of the older monolithic layout used
#: ``.rprc`` and are only ever deleted
_SUFFIX = ".rprk"
_LEGACY_SUFFIX = ".rprc"

#: environment variable naming the default cache directory
CACHE_DIR_ENV = "REPRO_SCHEDULE_CACHE"

_DEFAULT_DIR = Path(".repro-cache") / "schedules"


def _native(arr: "array[int]") -> "array[int]":
    """The array with little-endian byte order (no-op on LE hosts)."""
    if sys.byteorder == "big":  # pragma: no cover - LE-only CI
        arr = array("q", arr)
        arr.byteswap()
    return arr


def default_cache_dir() -> Path:
    """``$REPRO_SCHEDULE_CACHE`` if set, else ``.repro-cache/schedules``."""
    # The variable picks WHERE entries live, never WHAT they contain —
    # content is keyed by the fingerprint alone, so this read cannot
    # leak host state into schedule bytes.
    env = os.environ.get(CACHE_DIR_ENV)  # repro-lint: disable=RPR320
    return Path(env) if env else _DEFAULT_DIR


def fingerprint(
    strategy_name: str,
    strategy_version: str,
    dimension: int,
    params: Optional[Dict[str, object]] = None,
) -> str:
    """Content address of one (strategy, dimension, params) cell.

    Hashes the canonical JSON of every input that determines generator
    output, plus both format versions, so any incompatibility surfaces
    as a clean miss.
    """
    key = json.dumps(
        {
            "cache_schema": CACHE_SCHEMA,
            "format_version": FORMAT_VERSION,
            "blob_schema": SCHEMA_VERSION,
            "strategy": strategy_name,
            "strategy_version": strategy_version,
            "dimension": dimension,
            "params": params or {},
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


class CacheStats:
    """Mutable hit/miss/corrupt counters, optionally mirrored to a
    :class:`~repro.obs.metrics.MetricsRegistry`."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stores = 0
        # chunk-level counters of the streaming path: one ``chunk_hits``
        # per chunk served to a consumer from a warm on-disk entry, one
        # ``chunk_stores`` per chunk record persisted while streaming
        self.chunk_hits = 0
        self.chunk_stores = 0
        self._metrics: Optional[Any] = None

    def bind(self, metrics: Any) -> None:
        """Mirror every future count into ``metrics`` counters."""
        self._metrics = metrics

    def count(self, what: str) -> None:
        """Bump counter ``what`` (``hits``/``misses``/``corrupt``/
        ``stores``/``chunk_hits``/``chunk_stores``)."""
        setattr(self, what, getattr(self, what) + 1)
        if self._metrics is not None:
            self._metrics.counter(f"fastpath.cache.{what}").inc()

    def as_dict(self) -> Dict[str, int]:
        """The six counters as a JSON-able dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "stores": self.stores,
            "chunk_hits": self.chunk_hits,
            "chunk_stores": self.chunk_stores,
        }


class ScheduleCache:
    """Content-addressed schedule store rooted at one directory.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first store).  Safe to share
        between concurrent processes; see the module docstring.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        if self.root.exists() and not self.root.is_dir():
            raise ScheduleCacheError(f"cache root {self.root} is not a directory")
        self.stats = CacheStats()
        self._tracer: Optional[Any] = None

    def bind_metrics(self, metrics: Any) -> None:
        """Mirror the counters into ``metrics`` (``fastpath.cache.*``)."""
        self.stats.bind(metrics)

    def bind_tracer(self, tracer: Any) -> None:
        """Wrap every load/store in spans on ``tracer`` (duck-typed —
        anything with a ``span(name, **attrs)`` context manager works, so
        this module never imports ``repro.obs``; ``None`` unbinds)."""
        self._tracer = tracer

    # ------------------------------------------------------------------ #
    # addressing
    # ------------------------------------------------------------------ #

    def path_for(self, fp: str) -> Path:
        """On-disk location of the entry for ``fp``."""
        if len(fp) != 64 or not all(c in "0123456789abcdef" for c in fp):
            raise ScheduleCacheError(f"malformed fingerprint {fp!r}")
        return self.root / f"{fp}{_SUFFIX}"

    @staticmethod
    def fingerprint_of(strategy: Strategy, dimension: int) -> str:
        """Fingerprint of one strategy instance at one dimension."""
        return fingerprint(
            strategy.name, strategy.version, dimension, strategy.cache_params()
        )

    # ------------------------------------------------------------------ #
    # load / store: whole-schedule views of one entry
    # ------------------------------------------------------------------ #

    def load(self, fp: str) -> Optional[ScheduleChunk]:
        """The cached schedule for ``fp`` as one whole chunk, or ``None``.

        A missing entry counts as a miss; an unreadable or corrupt entry
        is deleted, counted as both ``corrupt`` and a miss, and reported
        as ``None`` so the caller regenerates.
        """
        tracer = self._tracer
        if tracer is None:
            return self._load(fp)
        with tracer.span("fastpath.cache.load", fingerprint=fp[:16]) as span:
            whole = self._load(fp)
            span.attrs["outcome"] = "hit" if whole is not None else "miss"
            return whole

    def _load(self, fp: str) -> Optional[ScheduleChunk]:
        path = self.path_for(fp)
        try:
            whole = concat_chunks(self._read_chunk_entry(path))
        except FileNotFoundError:
            self.stats.count("misses")
            return None
        except (CompiledScheduleError, ScheduleError, OSError):
            self._discard(path)
            return None
        self.stats.count("hits")
        return whole

    def _discard(self, path: Path) -> None:
        """Count a corrupt entry (and the miss it becomes) and delete it."""
        self.stats.count("corrupt")
        self.stats.count("misses")
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing unlink
            pass

    def store(self, fp: str, whole: ScheduleChunk) -> Path:
        """Atomically publish the whole-schedule chunk ``whole`` under
        fingerprint ``fp``.

        The columns are sliced into :data:`DEFAULT_CHUNK_MOVES` chunks
        (``rechunk``, so the bytes are those of the streamed entry) and
        written as one entry: tmp-file + :func:`os.replace` in the same
        directory, so concurrent writers each publish a complete entry
        and readers never observe a torn one.
        """
        tracer = self._tracer
        if tracer is None:
            return self._store(fp, whole)
        with tracer.span("fastpath.cache.store", fingerprint=fp[:16]):
            return self._store(fp, whole)

    def _store(self, fp: str, whole: ScheduleChunk) -> Path:
        chunks = rechunk((whole,), DEFAULT_CHUNK_MOVES)
        for _ in self._write_chunk_stream(fp, chunks, DEFAULT_CHUNK_MOVES):
            pass
        return self.path_for(fp)

    # ------------------------------------------------------------------ #
    # entry I/O
    # ------------------------------------------------------------------ #

    def _read_chunk_entry(
        self,
        path: Path,
        expect_strategy: Optional[str] = None,
        expect_dimension: Optional[int] = None,
    ) -> Iterator[ScheduleChunk]:
        """Stream the chunks of an entry off disk.

        Bounded memory: one chunk record is resident at a time (plus a
        one-chunk lookahead so the final record can be flagged
        ``is_last`` when the footer arrives).  Raises
        :class:`~repro.errors.CompiledScheduleError` on any
        malformation — bad magic, header CRC failure, truncated record,
        per-chunk CRC failure, footer stats disagreeing with the
        payloads — which the callers translate into
        delete-and-regenerate.
        """
        with path.open("rb") as fh:
            pre = fh.read(_CHUNK_PREAMBLE.size)
            if len(pre) != _CHUNK_PREAMBLE.size:
                raise CompiledScheduleError(f"cache entry too short ({len(pre)} bytes)")
            magic, version, header_len, header_crc = _CHUNK_PREAMBLE.unpack(pre)
            if magic != CHUNK_MAGIC:
                raise CompiledScheduleError(f"bad cache entry magic {magic!r}")
            if version != FORMAT_VERSION:
                raise CompiledScheduleError(
                    f"unsupported cache entry format version {version}"
                )
            header_bytes = fh.read(header_len)
            if len(header_bytes) != header_len:
                raise CompiledScheduleError("truncated cache entry header")
            if zlib.crc32(header_bytes) != header_crc:
                raise CompiledScheduleError("header CRC mismatch")
            try:
                raw = json.loads(header_bytes.decode("utf-8"))
                dimension = int(raw["dimension"])
                strategy = str(raw["strategy"])
                columns = list(raw["columns"])
                kind_values = [MoveKind(v) for v in raw["kind_values"]]
                role_values = [AgentRole(v) for v in raw["role_values"]]
                header = ChunkStreamHeader(
                    dimension=dimension,
                    strategy=strategy,
                    homebase=int(raw["homebase"]),
                    uses_cloning=bool(raw["uses_cloning"]),
                    team_size=int(raw["team_size"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise CompiledScheduleError(
                    f"undecodable cache entry header: {exc}"
                ) from exc
            if columns != list(COLUMN_NAMES):
                raise CompiledScheduleError(f"unexpected column set {columns}")
            # the fingerprint already binds content, so a mismatch here
            # means a hash collision or a renamed file: treat as corrupt
            if expect_strategy is not None and strategy != expect_strategy:
                raise CompiledScheduleError(
                    f"entry holds strategy {strategy!r}, expected {expect_strategy!r}"
                )
            if expect_dimension is not None and dimension != expect_dimension:
                raise CompiledScheduleError(
                    f"entry holds d={dimension}, expected d={expect_dimension}"
                )
            scanner = AggregateScanner()
            pending: Optional[ScheduleChunk] = None
            index = 0
            start = 0
            while True:
                head = fh.read(_CHUNK_RECORD.size)
                if len(head) != _CHUNK_RECORD.size:
                    raise CompiledScheduleError(
                        "truncated cache entry (no footer record)"
                    )
                n_rows, crc = _CHUNK_RECORD.unpack(head)
                if n_rows == _FOOTER_SENTINEL:
                    lenb = fh.read(4)
                    if len(lenb) != 4:
                        raise CompiledScheduleError("truncated footer record")
                    (footer_len,) = struct.unpack("<I", lenb)
                    footer_bytes = fh.read(footer_len)
                    if len(footer_bytes) != footer_len:
                        raise CompiledScheduleError("truncated footer record")
                    if zlib.crc32(footer_bytes) != crc:
                        raise CompiledScheduleError("footer CRC mismatch")
                    try:
                        footer = json.loads(footer_bytes.decode("utf-8"))
                        stats = ScheduleAggregates.from_dict(footer["stats"])
                        metadata = decode_metadata(footer["metadata"])
                    except (KeyError, TypeError, ValueError) as exc:
                        raise CompiledScheduleError(
                            f"undecodable cache entry footer: {exc}"
                        ) from exc
                    break
                payload = fh.read(n_rows * len(COLUMN_NAMES) * 8)
                if len(payload) != n_rows * len(COLUMN_NAMES) * 8:
                    raise CompiledScheduleError(f"truncated chunk {index}")
                if zlib.crc32(payload) != crc:
                    raise CompiledScheduleError(
                        f"chunk {index} CRC mismatch (corrupt entry)"
                    )
                cols: List["array[int]"] = []
                for c in range(len(COLUMN_NAMES)):
                    col = array("q", bytes(0))
                    col.frombytes(payload[c * n_rows * 8 : (c + 1) * n_rows * 8])
                    cols.append(_native(col))
                # re-map stored enum codes if declaration order changed
                if kind_values != list(KINDS):  # pragma: no cover - enum reorder
                    cols[4] = array("q", (KIND_CODE[kind_values[v]] for v in cols[4]))
                if role_values != list(ROLES):  # pragma: no cover - enum reorder
                    cols[5] = array("q", (ROLE_CODE[role_values[v]] for v in cols[5]))
                try:
                    scanner.fold(cols[0], cols[1], cols[4], cols[5])
                except ScheduleError as exc:
                    raise CompiledScheduleError(
                        f"chunk {index} holds malformed moves: {exc}"
                    ) from exc
                chunk = ScheduleChunk(
                    header=header,
                    index=index,
                    start_move=start,
                    times=cols[0],
                    agents=cols[1],
                    srcs=cols[2],
                    dsts=cols[3],
                    kinds=cols[4],
                    roles=cols[5],
                    stats_so_far=scanner.snapshot(),
                )
                if pending is not None:
                    yield pending
                pending = chunk
                index += 1
                start += n_rows
            if pending is None:
                raise CompiledScheduleError("cache entry has no chunk records")
            if pending.stats_so_far != stats:
                raise CompiledScheduleError(
                    "footer stats disagree with chunk payloads (corrupt entry)"
                )
            pending.is_last = True
            pending.metadata = dict(metadata) if isinstance(metadata, dict) else {}
            yield pending

    def _write_chunk_stream(
        self, fp: str, chunks: Iterable[ScheduleChunk], chunk_moves: int
    ) -> Iterator[ScheduleChunk]:
        """Tee a chunk stream to a new entry while yielding it.

        Store-while-streaming: each chunk is appended to a tmp file the
        moment it is yielded, and the entry is published atomically
        (:func:`os.replace`) as soon as the final chunk — and therefore
        the footer — has been written, *before* that chunk is handed to
        the consumer.  An abandoned or torn stream leaves no entry
        behind, only a tmp file that is unlinked on the way out.
        """
        path = self.path_for(fp)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=f".{fp[:16]}.", suffix=".tmp", dir=self.root
            )
        except OSError as exc:
            raise ScheduleCacheError(f"cannot write cache entry {path}: {exc}") from exc
        published = False
        handle = os.fdopen(fd, "wb")
        try:
            wrote_preamble = False
            for chunk in chunks:
                try:
                    if not wrote_preamble:
                        head = chunk.header
                        header_bytes = json.dumps(
                            {
                                "schema": SCHEMA_VERSION,
                                "dimension": head.dimension,
                                "strategy": head.strategy,
                                "team_size": head.team_size,
                                "homebase": head.homebase,
                                "uses_cloning": head.uses_cloning,
                                "chunk_moves": chunk_moves,
                                "columns": list(COLUMN_NAMES),
                                "kind_values": [k.value for k in KINDS],
                                "role_values": [r.value for r in ROLES],
                            },
                            separators=(",", ":"),
                        ).encode("utf-8")
                        handle.write(
                            _CHUNK_PREAMBLE.pack(
                                CHUNK_MAGIC,
                                FORMAT_VERSION,
                                len(header_bytes),
                                zlib.crc32(header_bytes),
                            )
                        )
                        handle.write(header_bytes)
                        wrote_preamble = True
                    payload = b"".join(
                        _native(col).tobytes() for col in chunk.columns().values()
                    )
                    handle.write(_CHUNK_RECORD.pack(len(chunk), zlib.crc32(payload)))
                    handle.write(payload)
                    self.stats.count("chunk_stores")
                    if chunk.is_last:
                        footer_bytes = json.dumps(
                            {
                                "metadata": encode_metadata(chunk.metadata),
                                "stats": chunk.stats_so_far.as_dict(),
                                "total_moves": chunk.start_move + len(chunk),
                                "num_chunks": chunk.index + 1,
                            },
                            separators=(",", ":"),
                        ).encode("utf-8")
                        handle.write(
                            _CHUNK_RECORD.pack(
                                _FOOTER_SENTINEL, zlib.crc32(footer_bytes)
                            )
                        )
                        handle.write(struct.pack("<I", len(footer_bytes)))
                        handle.write(footer_bytes)
                        handle.close()
                        os.replace(tmp, path)
                        published = True
                        self.stats.count("stores")
                except OSError as exc:
                    raise ScheduleCacheError(
                        f"cannot write cache entry {path}: {exc}"
                    ) from exc
                yield chunk
        finally:
            if not handle.closed:
                try:
                    handle.close()
                except OSError:  # pragma: no cover - close of broken fd
                    pass
            if not published:
                try:
                    os.unlink(tmp)
                except OSError:  # pragma: no cover - racing unlink
                    pass

    # ------------------------------------------------------------------ #
    # strategy-keyed views
    # ------------------------------------------------------------------ #

    def load_compiled(
        self, strategy: Strategy, dimension: int
    ) -> Tuple[str, Optional[ScheduleChunk]]:
        """(fingerprint, cached whole-schedule chunk or ``None``)."""
        fp = self.fingerprint_of(strategy, dimension)
        return fp, self.load(fp)

    def schedule_for(self, strategy: Strategy, dimension: int) -> Schedule:
        """The strategy's schedule: :meth:`stream_chunks`, materialized.

        This is the hook :meth:`repro.core.strategy.Strategy.run`
        consults when this cache is installed as the process-wide active
        cache.  ``run``'s contract is a materialized :class:`Schedule`,
        so this accessor necessarily builds one ``Move`` object per row;
        columnar consumers use :meth:`stream_chunks` instead.
        """
        return chunks_to_schedule(self.stream_chunks(strategy, dimension))

    # ------------------------------------------------------------------ #
    # the stream: the one way a schedule leaves the cache
    # ------------------------------------------------------------------ #

    def stream_chunks(
        self,
        strategy: Strategy,
        dimension: int,
        chunk_moves: int = DEFAULT_CHUNK_MOVES,
    ) -> Iterator[ScheduleChunk]:
        """The strategy's schedule as a bounded-memory chunk stream.

        This is also the hook :meth:`repro.core.strategy.Strategy.run_chunks`
        consults when this cache is the process-wide active cache.

        A warm entry streams straight off disk, re-sliced to
        ``chunk_moves`` if the stored block size differs, with one
        ``chunk_hits`` count per chunk served.  A miss runs the
        strategy's producer, teed to a new entry while the consumer
        drains it (store-while-streaming) and published atomically at
        the final chunk.

        A chunk that fails its CRC mid-stream is handled without
        disturbing the consumer: the entry is deleted and counted
        ``corrupt``, generation restarts (deterministic, same block
        size), already-delivered chunks are skipped, and the stream
        continues seamlessly while the entry is re-published.
        """
        if chunk_moves < 1:
            raise ScheduleCacheError(f"chunk_moves must be >= 1, got {chunk_moves}")
        fp = self.fingerprint_of(strategy, dimension)
        inner = self._stream_chunks(fp, strategy, dimension, chunk_moves)
        if self._tracer is None:
            return inner
        return self._traced_chunks(inner, fp)

    def _traced_chunks(
        self, inner: Iterator[ScheduleChunk], fp: str
    ) -> Iterator[ScheduleChunk]:
        with self._tracer.span(  # type: ignore[union-attr]
            "fastpath.cache.stream", fingerprint=fp[:16]
        ) as span:
            chunks = 0
            moves = 0
            for chunk in inner:
                chunks += 1
                moves = chunk.stats_so_far.total_moves
                yield chunk
            span.attrs["chunks"] = chunks
            span.attrs["moves"] = moves

    def _stream_chunks(
        self, fp: str, strategy: Strategy, dimension: int, chunk_moves: int
    ) -> Iterator[ScheduleChunk]:
        from repro.topology.hypercube import Hypercube

        path = self.path_for(fp)
        delivered = 0  # moves already handed over (complete chunks only)
        if path.exists():
            warm = False
            try:
                source = self._read_chunk_entry(path, strategy.name, dimension)
                for chunk in rechunk(source, chunk_moves):
                    if not warm:
                        self.stats.count("hits")
                        warm = True
                    self.stats.count("chunk_hits")
                    yield chunk
                    delivered += len(chunk)
                return
            except (CompiledScheduleError, ScheduleError, OSError):
                self._discard(path)
        else:
            self.stats.count("misses")
        # regenerate deterministically at the same block size; every
        # chunk yielded before a failure was a complete chunk_moves block
        # (rechunk only emits its final, possibly-short chunk after a
        # clean source), so the replacement chunks line up exactly and
        # the consumer never notices the splice
        regen = strategy.generate_chunks(Hypercube(dimension), chunk_moves)
        for chunk in self._write_chunk_stream(fp, regen, chunk_moves):
            if chunk.start_move < delivered and not chunk.is_last:
                continue
            yield chunk

    # ------------------------------------------------------------------ #
    # maintenance (the ``repro-search cache`` subcommand)
    # ------------------------------------------------------------------ #

    def entries(self) -> Iterator[Path]:
        """Every entry file in the cache dir."""
        if not self.root.is_dir():
            return iter(())
        return iter(sorted(self.root.glob(f"*{_SUFFIX}")))

    def info(self) -> Dict[str, object]:
        """Summary of the on-disk state plus this process's counters."""
        paths = list(self.entries())
        total = 0
        for p in paths:
            try:
                total += p.stat().st_size
            except OSError:  # pragma: no cover - racing delete
                pass
        return {
            "root": str(self.root),
            "entries": len(paths),
            "total_bytes": total,
            "stats": self.stats.as_dict(),
        }

    def clear(self) -> int:
        """Delete every entry, every leftover of the older monolithic
        layout and every stray tmp file; returns the count."""
        removed = 0
        if not self.root.is_dir():
            return removed
        doomed = [
            path
            for pattern in (f"*{_SUFFIX}", f"*{_LEGACY_SUFFIX}", "*.tmp")
            for path in self.root.glob(pattern)
        ]
        for path in doomed:
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing delete
                pass
        return removed
