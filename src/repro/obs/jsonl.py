"""JSONL event streams: the ``repro-trace/1`` schema, writer, validator.

One record per line.  The first line is a header::

    {"type": "meta", "schema": "repro-trace/1"}

and every subsequent line is one event record as produced by
:func:`repro.obs.events.to_json`: its ``type`` is one of the twelve event
kinds and its remaining fields are the event dataclass's fields, so the
schema below is derived from :data:`repro.obs.events.EVENT_TYPES`.  A new
kind or a new omittable field is a pure extension: streams that never
use it are byte-identical to, and validate exactly like, streams written
before it existed.  The CI ``trace-smoke`` and ``serve-smoke`` jobs
round-trip real experiments through this schema with
:func:`validate_jsonl`.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any, Dict, Iterable

from .events import EVENT_KINDS, EVENT_TYPES, json_key, to_json
from .sinks import Sink

SCHEMA = "repro-trace/1"

#: JSON types a declared field type admits.  JSON has one number type,
#: so a float field also takes a whole number (a whole-millisecond
#: latency serializes without a fraction); bool never passes as a number.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}

#: record type -> {key: (field type, required)}.  ``Any`` payloads are
#: unconstrained; omittable fields may be absent but must type-check
#: when present.
_FIELDS = {
    cls.kind: {
        json_key(f.name): (f.type, f.name not in cls.omit_default)
        for f in fields(cls) if f.type is not Any
    }
    for cls in EVENT_TYPES
}


class JSONLSink(Sink):
    """Writes the event stream to a file, one JSON record per line."""

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "w")
        self._fh.write(json.dumps({"type": "meta", "schema": SCHEMA}) + "\n")

    def handle(self, event) -> None:
        self._fh.write(json.dumps(to_json(event)) + "\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def merge_jsonl_shards(shards: Iterable[str], out_path: str) -> int:
    """Stitch per-task ``repro-trace/1`` shards into one valid stream.

    Parallel sweep workers each write their own JSONL shard (one meta
    header plus that task's events).  This concatenates the shards'
    event records under a single header, in shard order, so the merged
    file passes :func:`validate_jsonl` exactly like a one-process trace.
    Event order *within* a shard is preserved; shards are separated
    streams, so no cross-shard interleaving is lost.

    Each shard is validated as it is read: a shard with a missing or
    mismatched schema header is an error (it would silently poison the
    merged stream otherwise).

    Returns the number of event records written (excluding the header).
    """
    written = 0
    with open(out_path, "w") as out:
        out.write(json.dumps({"type": "meta", "schema": SCHEMA}) + "\n")
        for shard in shards:
            with open(shard) as fh:
                header = fh.readline().strip()
                try:
                    meta = json.loads(header) if header else None
                except json.JSONDecodeError:
                    meta = None
                if (
                    not isinstance(meta, dict)
                    or meta.get("type") != "meta"
                    or meta.get("schema") != SCHEMA
                ):
                    raise ValueError(
                        f"{shard}: not a {SCHEMA!r} stream (bad header "
                        f"{header!r})"
                    )
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    out.write(line + "\n")
                    written += 1
    return written


def validate_jsonl(path: str) -> Dict[str, int]:
    """Validate a ``repro-trace/1`` stream; return record counts by type.

    Raises:
        ValueError: on a malformed line, a missing/mis-typed field, an
            unknown record type, or a missing/mismatched schema header.
    """
    counts: Dict[str, int] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}")
            if not isinstance(record, dict) or "type" not in record:
                raise ValueError(f"{path}:{lineno}: record missing 'type'")
            rtype = record["type"]
            if lineno == 1:
                if rtype != "meta" or record.get("schema") != SCHEMA:
                    raise ValueError(
                        f"{path}:1: expected meta header with schema "
                        f"{SCHEMA!r}, got {record!r}"
                    )
                counts["meta"] = 1
                continue
            if rtype not in EVENT_KINDS:
                raise ValueError(f"{path}:{lineno}: unknown type {rtype!r}")
            for key, (ftype, required) in _FIELDS[rtype].items():
                if key not in record:
                    if not required:
                        continue
                    raise ValueError(
                        f"{path}:{lineno}: {rtype} record missing {key!r}"
                    )
                value = record[key]
                if (
                    not isinstance(value, _JSON_TYPES[ftype])
                    or isinstance(value, bool)
                ):
                    raise ValueError(
                        f"{path}:{lineno}: field {key!r} should be "
                        f"{ftype.__name__}, got {value!r}"
                    )
            counts[rtype] = counts.get(rtype, 0) + 1
    if counts.get("meta") != 1:
        raise ValueError(f"{path}: empty stream (no meta header)")
    return counts
