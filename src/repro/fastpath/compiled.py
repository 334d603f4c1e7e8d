"""The schedule cache's on-disk layout tags and its metadata codec.

A schedule reaches disk only as the schedule cache's chunked entry
(:mod:`repro.fastpath.cache`): its chunk records are the six int64
columns of a :class:`~repro.core.chunkstream.ScheduleChunk` in
:data:`COLUMN_NAMES` order, and the version tags below name that layout
(lint rule RPR360 reads all three from this module).  The entry's
footer carries the generator metadata through :func:`encode_metadata`,
which round-trips what plain JSON cannot: the generators record
int-keyed dicts and tuples.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import CompiledScheduleError

__all__ = [
    "COLUMN_NAMES",
    "FORMAT_VERSION",
    "SCHEMA_VERSION",
    "encode_metadata",
    "decode_metadata",
]

#: version of the chunked on-disk layout (the cache entry's preamble
#: carries it); bump on any incompatible change to that byte layout
FORMAT_VERSION = 3
#: logical schema tag of the on-disk layout; part of every cache
#: fingerprint, so a bump orphans every existing entry
SCHEMA_VERSION = "compiled-schedule-chunked/v3"

#: column order of every chunk record's payload (each an int64 array)
COLUMN_NAMES: Tuple[str, ...] = ("time", "agent", "src", "dst", "kind", "role")

_TAG = "__repro__"


def encode_metadata(obj: object) -> object:
    """JSON-encodable form of a metadata value, losslessly.

    Plain JSON stringifies dict keys and turns tuples into lists, so the
    generators' metadata (int-keyed ``extras_per_level`` / ``wave_sizes``
    dicts, tuple-valued extras) would not round-trip.  Non-string-keyed
    dicts and tuples are wrapped in ``{"__repro__": ...}`` marker objects
    instead; everything else passes through.
    """
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj) and _TAG not in obj:
            return {k: encode_metadata(v) for k, v in obj.items()}
        return {
            _TAG: "dict",
            "items": [[encode_metadata(k), encode_metadata(v)] for k, v in obj.items()],
        }
    if isinstance(obj, tuple):
        return {_TAG: "tuple", "items": [encode_metadata(v) for v in obj]}
    if isinstance(obj, list):
        return [encode_metadata(v) for v in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise CompiledScheduleError(
        f"metadata value of type {type(obj).__name__} is not serializable"
    )


def decode_metadata(obj: object) -> object:
    """Inverse of :func:`encode_metadata`."""
    if isinstance(obj, dict):
        tag = obj.get(_TAG)
        if tag == "dict":
            return {decode_metadata(k): decode_metadata(v) for k, v in obj["items"]}
        if tag == "tuple":
            return tuple(decode_metadata(v) for v in obj["items"])
        return {k: decode_metadata(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [decode_metadata(v) for v in obj]
    return obj
