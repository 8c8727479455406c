"""Parallel campaign engine: jobs=N must be indistinguishable from
the sequential run (except wall time)."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.corpus import run_campaign
from repro.core.parallel import MAX_SHARD_SIZE, WINDOW_FACTOR, shard_seeds
from repro.observability import (
    EventBus,
    MetricsRegistry,
    Tracer,
    strip_timestamps,
)

PROGRAMS = 4
SEED_BASE = 100
#: the event types that close one seed's story
TERMINAL_SEED_EVENTS = {"seed_done", "crash", "budget_exceeded"}


@pytest.fixture(scope="module")
def sequential():
    metrics = MetricsRegistry()
    events = []
    bus = EventBus()
    bus.subscribe(events.append)
    result = run_campaign(
        n_programs=PROGRAMS, seed_base=SEED_BASE,
        keep_analyses=True, metrics=metrics, events=bus,
    )
    return result, metrics, events


@pytest.fixture(scope="module")
def parallel():
    metrics = MetricsRegistry()
    tracer = Tracer()
    ticks = []
    events = []
    bus = EventBus()
    bus.subscribe(events.append)
    bus.subscribe(
        lambda e: e.type in TERMINAL_SEED_EVENTS and ticks.append(e)
    )
    result = run_campaign(
        n_programs=PROGRAMS, seed_base=SEED_BASE,
        keep_analyses=True, metrics=metrics, tracer=tracer,
        jobs=4, events=bus,
    )
    return result, metrics, tracer, ticks, events


@pytest.fixture(scope="module")
def streamed():
    """jobs=2 at the smallest legal window (1): every shard waits for
    the previous completion before submission, the maximal-churn case
    for the streaming scheduler's top-up path."""
    events = []
    bus = EventBus()
    bus.subscribe(events.append)
    result = run_campaign(
        n_programs=PROGRAMS, seed_base=SEED_BASE, keep_analyses=True,
        jobs=2, window=1, events=bus,
    )
    return result, events


def test_parallel_equals_sequential_result(sequential, parallel):
    seq = sequential[0]
    par = parallel[0]
    assert par.seeds == seq.seeds
    assert par.skipped == seq.skipped
    assert par.total_markers == seq.total_markers
    assert par.total_dead == seq.total_dead
    assert par.total_alive == seq.total_alive
    assert par.by_level == seq.by_level
    assert par.cross_compiler == seq.cross_compiler
    assert par.cross_level == seq.cross_level
    assert par.findings == seq.findings
    assert par.soundness_violations == seq.soundness_violations


def test_parallel_keep_analyses_in_seed_order(sequential, parallel):
    seq = sequential[0]
    par = parallel[0]
    assert [o.seed for o in par.analyses] == [o.seed for o in seq.analyses] == seq.seeds
    # findings stay homogeneous triage dicts; analyses live on their own field
    assert all("seed" in f and "kind" in f for f in par.findings)
    for ours, theirs in zip(par.analyses, seq.analyses):
        assert ours.marker_count == theirs.marker_count
        assert ours.dead_count == theirs.dead_count
        for spec, outcome in theirs.analysis.outcomes.items():
            assert par_alive(ours, spec) == outcome.alive


def par_alive(outcome, spec):
    return outcome.analysis.outcomes[spec].alive


def test_parallel_merges_metric_tallies(sequential, parallel):
    seq_metrics = sequential[1]
    par_metrics = parallel[1]
    seq_snap, par_snap = seq_metrics.to_dict(), par_metrics.to_dict()
    assert seq_snap.keys() == par_snap.keys()
    for name, seq_value in seq_snap.items():
        par_value = par_snap[name]
        if seq_value["type"] == "histogram":
            # observation counts merge exactly; latencies differ by run
            assert par_value["count"] == seq_value["count"], name
        elif seq_value["type"] == "counter":
            assert par_value["value"] == seq_value["value"], name
        else:  # campaign gauges mirror the result, which is identical
            assert par_value["value"] == pytest.approx(
                seq_value["value"]
            ) or name == "campaign.programs_per_sec", name


def test_parallel_progress_ticks_in_seed_order(parallel):
    ticks = parallel[3]
    assert [t.attrs["seed"] for t in ticks] == list(
        range(SEED_BASE, SEED_BASE + PROGRAMS)
    )
    assert [t.seq for t in ticks] == sorted(t.seq for t in ticks)
    assert parallel[4][0].attrs["programs"] == PROGRAMS


def test_parallel_spans_reparent_under_campaign(parallel):
    tracer = parallel[2]
    campaigns = tracer.find("campaign")
    assert len(campaigns) == 1
    assert campaigns[0].attrs["jobs"] == 4
    programs = tracer.find("campaign.program")
    assert len(programs) == PROGRAMS
    assert {s.parent_id for s in programs} == {campaigns[0].span_id}
    assert sorted(s.attrs["seed"] for s in programs) == list(
        range(SEED_BASE, SEED_BASE + PROGRAMS)
    )
    # worker subtrees came over intact: every program span has compile
    # children, and ids never collide
    ids = [s.span_id for s in tracer.spans]
    assert len(ids) == len(set(ids))
    for program in programs:
        child_names = {s.name for s in tracer.children(program)}
        assert "compile" in child_names
        assert "ground_truth" in child_names
    assert tracer.roots() == campaigns


def test_parallel_event_stream_identical_modulo_timestamps(sequential, parallel):
    """The telemetry determinism contract: jobs=4 narrates the exact
    same story as jobs=1, timestamps aside."""
    seq_events, par_events = sequential[2], parallel[4]
    assert strip_timestamps(par_events) == strip_timestamps(seq_events)
    types = [e.type for e in seq_events]
    assert types[0] == "campaign_start"
    assert types[-1] == "campaign_end"
    assert types.count("seed_start") == PROGRAMS
    # scheduling must not leak into the stream
    assert "jobs" not in par_events[0].attrs
    assert [e.seq for e in par_events] == list(range(len(par_events)))


def test_parallel_event_jsonl_bytes_identical_modulo_ts(sequential, parallel):
    """Golden-file form of the contract: serialized JSONL streams are
    byte-identical once the ``ts`` field is dropped per line."""

    def golden(events):
        return "\n".join(
            json.dumps(record, sort_keys=True)
            for record in strip_timestamps(events)
        ).encode()

    assert golden(parallel[4]) == golden(sequential[2])


def test_streaming_small_window_equals_sequential(sequential, streamed):
    """The bounded-window scheduler preserves the determinism contract
    even when the window throttles submission to one shard at a time."""
    seq, par = sequential[0], streamed[0]
    assert par.seeds == seq.seeds
    assert par.by_level == seq.by_level
    assert par.findings == seq.findings
    assert [o.seed for o in par.analyses] == [o.seed for o in seq.analyses]


def test_streaming_small_window_event_stream_identical(sequential, streamed):
    """Golden contract at window=1: the serialized event stream is
    byte-identical to sequential modulo timestamps — window size, like
    jobs, must not leak into the story."""

    def golden(events):
        return "\n".join(
            json.dumps(record, sort_keys=True)
            for record in strip_timestamps(events)
        ).encode()

    assert golden(streamed[1]) == golden(sequential[2])
    assert "window" not in streamed[1][0].attrs


def test_parallel_by_shape_matches_sequential(sequential, parallel):
    seq, par = sequential[0], parallel[0]
    assert par.by_shape == seq.by_shape
    assert sum(s.programs for s in seq.by_shape.values()) == len(seq.seeds)
    assert sum(s.markers for s in seq.by_shape.values()) == seq.total_markers


@given(
    shards=st.lists(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9,
                      allow_nan=False, allow_infinity=False),
            max_size=30,
        ),
        max_size=6,
    ),
    p=st.sampled_from([0, 10, 25, 50, 75, 90, 99, 100]),
)
def test_merged_worker_histograms_match_sequential_percentiles(shards, p):
    """Histogram merging keeps every observation, so any percentile of
    the merged distribution equals the sequential one exactly."""
    sequential = MetricsRegistry()
    worker_dumps = []
    for shard in shards:
        worker = MetricsRegistry()
        for value in shard:
            sequential.histogram("h").observe(value)
            worker.histogram("h").observe(value)
        worker_dumps.append(worker.dump())
    merged = MetricsRegistry()
    for dump in worker_dumps:
        merged.merge(dump)
    assert merged.histogram("h").percentile(p) == sequential.histogram(
        "h"
    ).percentile(p)
    assert merged.histogram("h").summary() == sequential.histogram(
        "h"
    ).summary()


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        run_campaign(n_programs=1, jobs=0)


def test_default_window_scales_with_jobs():
    # the scheduler's backpressure bound: in-flight shards per pool
    assert WINDOW_FACTOR >= 2  # workers must never starve on merge lag


def test_shard_seeds_contiguous_and_complete():
    seeds = list(range(17))
    shards = shard_seeds(seeds, jobs=4)
    assert [s for shard in shards for s in shard] == seeds
    assert all(len(shard) <= MAX_SHARD_SIZE for shard in shards)
    # ~4 waves per worker keeps stragglers from serializing the tail
    assert len(shards) >= 4

    assert shard_seeds([], jobs=4) == []
    assert shard_seeds([1, 2, 3], jobs=8) == [[1], [2], [3]]
    assert shard_seeds(list(range(100)), jobs=2, shard_size=40) == [
        list(range(40)), list(range(40, 80)), list(range(80, 100)),
    ]
