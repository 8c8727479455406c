"""Structured campaign event stream.

A campaign narrates itself as a sequence of typed events — one
``campaign_start``, a ``seed_start``/outcome pair per seed (the
outcome is ``seed_done``, ``crash`` or ``budget_exceeded``;
checkpoint-replayed seeds emit ``checkpoint_replayed`` instead),
``finding`` events as the differential layer surfaces them,
``reduction.round``/``reduction.commit`` progress when findings are
reduced, and one ``campaign_end``.  The :class:`EventBus` fans each event out to
subscribers (the JSONL writer behind ``campaign --events-out``, the
live dashboard behind ``--dashboard``, the plain progress printer
behind ``--progress``).

Determinism is a hard contract: the stream (sequence numbers, types
and attributes — everything except wall-clock timestamps) is
byte-identical between ``jobs=1`` and ``jobs=N``.  Seed analysis
therefore never writes to the bus directly; each fresh seed's events
are recorded into its :class:`~repro.core.corpus.SeedEnvelope` (in
process or in a pool worker) and the campaign's seed loop emits them
in seed order, assigning fresh sequence numbers and timestamps.  Event attributes carry counts and names only, never
durations — wall time lives solely in the ``ts`` field so "equal
modulo timestamps" is a per-line field drop, not a heuristic.

The JSONL file format mirrors the checkpoint journal's crash
tolerance: :func:`read_events_jsonl` skips blank and torn trailing
lines (an interrupt mid-write loses at most the event in flight).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, TextIO

# -- event types -----------------------------------------------------------

CAMPAIGN_START = "campaign_start"
SEED_START = "seed_start"
SEED_DONE = "seed_done"
FINDING = "finding"
CRASH = "crash"
BUDGET_EXCEEDED = "budget_exceeded"
CHECKPOINT_REPLAYED = "checkpoint_replayed"
#: finding reduction progress (one per delta round / committed shrink;
#: emitted in finding order when the campaign drains its reduction
#: queue, so the stream stays deterministic at any --reduce-jobs)
REDUCTION_ROUND = "reduction.round"
REDUCTION_COMMIT = "reduction.commit"
CAMPAIGN_END = "campaign_end"

#: every event type the campaign engine emits, in no particular order
EVENT_TYPES = frozenset({
    CAMPAIGN_START,
    SEED_START,
    SEED_DONE,
    FINDING,
    CRASH,
    BUDGET_EXCEEDED,
    CHECKPOINT_REPLAYED,
    REDUCTION_ROUND,
    REDUCTION_COMMIT,
    CAMPAIGN_END,
})

# -- service event types (PR 10) -------------------------------------------
# The campaign *service* narrates job and case-lifecycle progress on its
# own bus, separate from the per-campaign stream above (which stays
# byte-identical to non-service runs by contract).

JOB_SUBMITTED = "job.submitted"
JOB_STARTED = "job.started"
JOB_RETRIED = "job.retried"
JOB_DONE = "job.done"
JOB_FAILED = "job.failed"
CASE_FOUND = "case.found"
CASE_ADVANCED = "case.advanced"

#: every event type the campaign service emits
SERVICE_EVENT_TYPES = frozenset({
    JOB_SUBMITTED,
    JOB_STARTED,
    JOB_RETRIED,
    JOB_DONE,
    JOB_FAILED,
    CASE_FOUND,
    CASE_ADVANCED,
})


@dataclass(frozen=True)
class Event:
    """One campaign event: a type, a bus-assigned sequence number, a
    wall-clock timestamp, and JSON-serializable attributes."""

    seq: int
    ts: float
    type: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "type": self.type,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Event":
        return cls(
            seq=data["seq"],
            ts=data["ts"],
            type=data["type"],
            attrs=dict(data.get("attrs", {})),
        )


Subscriber = Callable[[Event], None]


class EventBus:
    """Thread-safe fan-out of campaign events to subscribers.

    ``emit`` assigns the sequence number and timestamp under the bus
    lock, so concurrent emitters (the metrics mirror thread, a
    subscriber re-entering) still observe a gap-free, strictly
    increasing ``seq``.  Subscriber exceptions propagate to the
    emitter — a broken sink should fail the campaign loudly rather
    than silently drop telemetry.
    """

    def __init__(self) -> None:
        self._subscribers: list[Subscriber] = []
        self._seq = 0
        self._lock = threading.Lock()

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        with self._lock:
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        with self._lock:
            self._subscribers.remove(subscriber)

    def emit(self, type: str, **attrs: Any) -> Event:
        import time

        with self._lock:
            event = Event(self._seq, time.time(), type, attrs)
            self._seq += 1
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            subscriber(event)
        return event

    def emit_all(self, records: Iterable[tuple[str, dict[str, Any]]]) -> None:
        """Re-emit recorded ``(type, attrs)`` pairs (the campaign's
        seed loop replaying a seed's recorded events in seed order);
        each gets a fresh seq/ts from this bus."""
        for type_, attrs in records:
            self.emit(type_, **attrs)


# -- per-seed event records ------------------------------------------------


def report_status(report) -> str:
    """The journal-compatible status string for a
    :class:`~repro.core.resilience.SeedReport`."""
    if report.budget_exceeded:
        return "budget"
    if report.crash is not None:
        return "crash"
    if report.outcome is None:
        return "skipped"
    return "ok"


def seed_outcome_records(report) -> list[tuple[str, dict[str, Any]]]:
    """The outcome events for one finished
    :class:`~repro.core.resilience.SeedReport`, as ``(type, attrs)``
    records.

    Every seed's outcome events come from here — fresh analyses
    record them into their :class:`~repro.core.corpus.SeedEnvelope`
    and stored seeds replay them — so every path produces identical
    streams.
    """
    if report.budget_exceeded:
        return [(BUDGET_EXCEEDED, {"seed": report.seed})]
    if report.crash is not None:
        crash = report.crash
        return [(CRASH, {
            "seed": report.seed,
            "phase": crash.phase,
            "exc_type": crash.exc_type,
            "bucket": crash.bucket,
        })]
    if report.outcome is None:
        return [(SEED_DONE, {"seed": report.seed, "status": "skipped"})]
    attrs: dict[str, Any] = {
        "seed": report.seed,
        "status": "ok",
        "markers": report.outcome.marker_count,
        "dead": report.outcome.dead_count,
    }
    if report.degraded:
        attrs["degraded"] = True
    return [(SEED_DONE, attrs)]


def seed_event_records(report) -> list[tuple[str, dict[str, Any]]]:
    """``seed_start`` plus the outcome events for one seed, as the
    campaign's seed loop emits them."""
    return [
        (SEED_START, {"seed": report.seed}),
        *seed_outcome_records(report),
    ]


# -- JSONL sink / source ---------------------------------------------------


class JsonlEventWriter:
    """Bus subscriber appending one JSON object per event.

    Lines are flushed per event (mirroring the checkpoint journal's
    interruption safety), and keys are sorted so equal events
    serialize to equal bytes.
    """

    def __init__(self, path_or_file: str | TextIO) -> None:
        if isinstance(path_or_file, str):
            self._file: TextIO = open(path_or_file, "w")
            self._owns_file = True
        else:
            self._file = path_or_file
            self._owns_file = False
        self.written = 0

    def __call__(self, event: Event) -> None:
        self._file.write(json.dumps(event.to_dict(), sort_keys=True))
        self._file.write("\n")
        self._file.flush()
        self.written += 1

    def close(self) -> None:
        if self._owns_file and not self._file.closed:
            self._file.close()

    def __enter__(self) -> "JsonlEventWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_events_jsonl(path_or_file: str | TextIO) -> list[Event]:
    """Parse an events JSONL file, skipping blank and torn lines.

    A campaign interrupted mid-write leaves at most one truncated
    trailing line; like the checkpoint journal loader, the reader
    drops anything that fails to parse instead of failing the whole
    file.
    """
    if isinstance(path_or_file, str):
        with open(path_or_file) as handle:
            return read_events_jsonl(handle)
    events: list[Event] = []
    for line in path_or_file:
        line = line.strip()
        if not line:
            continue
        try:
            events.append(Event.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError):
            continue  # torn tail write; drop the partial event
    return events


def strip_timestamps(events: Iterable[Event]) -> list[dict[str, Any]]:
    """Events as dicts with the ``ts`` field removed — the
    determinism contract ("byte-identical modulo timestamps") in
    comparable form."""
    out = []
    for event in events:
        data = event.to_dict()
        del data["ts"]
        out.append(data)
    return out
