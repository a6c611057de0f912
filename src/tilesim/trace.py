"""Run trace: an append-only, replay-complete record stream.

Records are JSON-lines friendly; serialization is canonical (sorted keys,
no whitespace variance) so identical runs give byte-identical files.
Writing and reading a trace pays only for the stdlib's C encoder and
decoder: the encoder is built once, and the reader decodes each stripped
line without the decoder's whitespace scans.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Iterable, NamedTuple

# Canonical JSON for all of tilesim, the bytes of json.dumps(doc,
# sort_keys=True, separators=(",", ":")). JSONEncoder.encode builds a new C
# encoder, a markers dict and a float formatter on every call, about a
# quarter of the cost of writing a trace record, so the C encoder is built
# once here. Its markers are None (no circular-reference check): a dict
# kept across calls could hold stale ids after an exception, and every
# document tilesim encodes is a tree. `default` raises the stdlib's
# TypeError for a value JSON cannot encode. Without the _json accelerator,
# JSONEncoder.encode is the only path, and it gives the same bytes.
if c_make_encoder is None:
    encode_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
else:
    _iterencode = c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None,
        ":", ",", True, False, True)  # key and item separators, sort_keys, skipkeys, allow_nan

    def encode_canonical(doc) -> str:
        return "".join(_iterencode(doc, 0))

_decoder = json.JSONDecoder()


def decode_utf8(data: bytes) -> str:
    """`data`, the bytes of a file, as UTF-8 text. Bytes that are not UTF-8
    raise a ValueError naming the 1-based line and column of the first one,
    and its byte offset in the file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = exc.start
        line_start = data.rfind(b"\n", 0, at) + 1
        line = data.count(b"\n", 0, at) + 1
        column = len(data[line_start:at].decode("utf-8")) + 1
        raise ValueError(f"line {line}, column {column}: byte 0x{data[at]:02x} "
                         f"at offset {at} is not UTF-8") from None


class TraceRecord(NamedTuple):
    at: int
    actor: str
    kind: str
    payload: dict


class Trace:
    def __init__(self):
        self.records: list[TraceRecord] = []
        self._last_at = 0

    def emit(self, at: int, actor: str, kind: str, payload: dict):
        # The payload is one dict, which the record keeps: a call passing a
        # dict display skips the keyword-argument path, 0.2 us of a 0.7 us
        # call. Each call site builds its own, and no key may be at, actor
        # or kind, which to_jsonl writes beside the payload's keys.
        if at < self._last_at:
            raise ValueError(f"trace time went backwards: {at} after {self._last_at}")
        self._last_at = at
        # tuple.__new__ takes 0.3 us, TraceRecord(...) 0.6 us, a frozen dataclass 1.7 us
        self.records.append(tuple.__new__(TraceRecord, (at, actor, kind, payload)))

    def of_kind(self, *kinds: str) -> list[TraceRecord]:
        return [r for r in self.records if r.kind in kinds]

    def to_jsonl(self) -> str:
        return "".join([encode_canonical({"at": at, "actor": actor, "kind": kind, **payload}) + "\n"
                        for at, actor, kind, payload in self.records])


def read_jsonl(lines: Iterable[str]) -> list[TraceRecord]:
    """The records of a JSONL trace. A line that is not a record, or whose
    `at` is not an integer or `actor` or `kind` not a string, raises a
    ValueError naming its 1-based line number."""
    records = []
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        try:
            doc, end = _decoder.raw_decode(line)
            if end != len(line):
                _decoder.decode(line)  # raises the decoder's own "Extra data" error
            at = doc.pop("at")
            actor = doc.pop("actor")
            kind = doc.pop("kind")
        except json.JSONDecodeError as exc:
            # the column counts in the line as read, blanks before the record included
            column = exc.colno + len(raw) - len(raw.lstrip())
            raise ValueError(f"line {number}, column {column}: {exc.msg}") from None
        except KeyError as exc:
            raise ValueError(f"line {number}: record has no {exc.args[0]!r} field") from None
        except (AttributeError, TypeError):
            raise ValueError(f"line {number}: a record must be a JSON object") from None
        if type(at) is not int or type(actor) is not str or type(kind) is not str:
            raise ValueError(f"line {number}: a record's 'at' must be an integer "
                             "and its 'actor' and 'kind' strings")
        records.append(tuple.__new__(TraceRecord, (at, actor, kind, doc)))
    return records
