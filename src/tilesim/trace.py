"""Run trace: an append-only, replay-complete record stream.

Records are JSON-lines friendly; serialization is canonical (sorted keys,
no whitespace variance) so identical runs give byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class TraceRecord:
    at: int
    actor: str
    kind: str
    payload: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {"at": self.at, "actor": self.actor, "kind": self.kind, **self.payload}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class Trace:
    def __init__(self):
        self.records: list[TraceRecord] = []
        self._last_at = 0

    def emit(self, at: int, actor: str, kind: str, **payload):
        if at < self._last_at:
            raise ValueError(f"trace time went backwards: {at} after {self._last_at}")
        self._last_at = at
        self.records.append(TraceRecord(at=at, actor=actor, kind=kind, payload=payload))

    def of_kind(self, *kinds: str) -> list[TraceRecord]:
        return [r for r in self.records if r.kind in kinds]

    def to_jsonl(self) -> str:
        return "".join(rec.to_json() + "\n" for rec in self.records)


def read_jsonl(lines: Iterable[str]) -> list[TraceRecord]:
    records = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        doc = json.loads(line)
        at = doc.pop("at")
        actor = doc.pop("actor")
        kind = doc.pop("kind")
        records.append(TraceRecord(at=at, actor=actor, kind=kind, payload=doc))
    return records
