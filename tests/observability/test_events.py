"""Event bus, per-seed event records, and the JSONL sink/source."""

import json
from types import SimpleNamespace

import pytest

from repro.observability import (
    Event,
    EventBus,
    JsonlEventWriter,
    read_events_jsonl,
    strip_timestamps,
)
from repro.observability.events import (
    BUDGET_EXCEEDED,
    CRASH,
    SEED_DONE,
    SEED_START,
    report_status,
    seed_event_records,
    seed_outcome_records,
)


def test_bus_assigns_gapfree_increasing_seq():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    bus.emit("campaign_start", programs=3)
    bus.emit_all([("seed_start", {"seed": 1}), ("seed_done", {"seed": 1})])
    bus.emit("campaign_end")
    assert [e.seq for e in seen] == [0, 1, 2, 3]
    assert [e.type for e in seen] == [
        "campaign_start", "seed_start", "seed_done", "campaign_end",
    ]
    assert seen[0].attrs == {"programs": 3}
    assert all(e.ts > 0 for e in seen)


def test_bus_fans_out_and_unsubscribes():
    bus = EventBus()
    a, b = [], []
    bus.subscribe(a.append)
    sub_b = bus.subscribe(b.append)
    bus.emit("seed_start", seed=7)
    bus.unsubscribe(sub_b)
    bus.emit("seed_done", seed=7)
    assert len(a) == 2 and len(b) == 1


def test_bus_propagates_subscriber_errors():
    bus = EventBus()

    def broken(event):
        raise RuntimeError("sink died")

    bus.subscribe(broken)
    with pytest.raises(RuntimeError, match="sink died"):
        bus.emit("campaign_start")


def _report(**over):
    base = dict(
        seed=5, outcome=None, crash=None,
        budget_exceeded=False,
    )
    base.update(over)
    return SimpleNamespace(**base)


def test_seed_outcome_records_budget_and_crash():
    assert seed_outcome_records(_report(budget_exceeded=True)) == [
        (BUDGET_EXCEEDED, {"seed": 5})
    ]
    crash = SimpleNamespace(
        phase="compile", exc_type="ValueError", bucket="ValueError@x.py:3"
    )
    assert seed_outcome_records(_report(crash=crash)) == [
        (CRASH, {
            "seed": 5, "phase": "compile", "exc_type": "ValueError",
            "bucket": "ValueError@x.py:3",
        })
    ]
    assert report_status(_report(budget_exceeded=True)) == "budget"
    assert report_status(_report(crash=crash)) == "crash"
    assert report_status(_report()) == "skipped"


def test_seed_outcome_records_ok():
    outcome = SimpleNamespace(marker_count=12, dead_count=9)
    records = seed_outcome_records(_report(outcome=outcome))
    assert records == [
        (SEED_DONE, {"seed": 5, "status": "ok", "markers": 12, "dead": 9})
    ]
    assert seed_event_records(_report(outcome=outcome))[0] == (
        SEED_START, {"seed": 5}
    )
    assert report_status(_report(outcome=outcome)) == "ok"


def test_jsonl_writer_reader_round_trip(tmp_path):
    path = str(tmp_path / "events.jsonl")
    bus = EventBus()
    with JsonlEventWriter(path) as writer:
        bus.subscribe(writer)
        bus.emit("campaign_start", programs=1, seed_base=0)
        bus.emit("seed_done", seed=0, status="ok", markers=3, dead=2)
        bus.emit("campaign_end", completed=1)
        assert writer.written == 3
    events = read_events_jsonl(path)
    assert [e.type for e in events] == [
        "campaign_start", "seed_done", "campaign_end",
    ]
    assert events[1].attrs == {
        "seed": 0, "status": "ok", "markers": 3, "dead": 2,
    }
    # key-sorted serialization: equal events give equal bytes
    line = open(path).readline()
    assert line == json.dumps(json.loads(line), sort_keys=True) + "\n"


def test_jsonl_reader_tolerates_torn_tail(tmp_path):
    path = tmp_path / "events.jsonl"
    good = [
        Event(0, 1.0, "campaign_start", {"programs": 2}),
        Event(1, 2.0, "seed_done", {"seed": 0}),
    ]
    lines = [json.dumps(e.to_dict(), sort_keys=True) for e in good]
    # a campaign killed mid-write leaves a truncated trailing line
    torn = json.dumps(
        Event(2, 3.0, "campaign_end", {}).to_dict(), sort_keys=True
    )[:25]
    path.write_text("\n".join(lines) + "\n\n" + torn)
    events = read_events_jsonl(str(path))
    assert [e.seq for e in events] == [0, 1]
    assert events[0].attrs == {"programs": 2}


def test_strip_timestamps_drops_only_ts():
    events = [Event(0, 123.456, "seed_start", {"seed": 1})]
    stripped = strip_timestamps(events)
    assert stripped == [{"seq": 0, "type": "seed_start", "attrs": {"seed": 1}}]
    assert events[0].ts == 123.456  # original untouched
