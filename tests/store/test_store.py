"""Unit tests for the persistent content-addressed artifact store.

Covers the storage layer in isolation: program round-trips, the three
memo tables, seed-analysis persistence, session/delta semantics,
cacheability policy, stats/gc maintenance, and — the part campaigns
rely on — the degrade-to-cold failure policy: a corrupt or unwritable
store must turn itself off, never raise into the analysis loop.
"""

import sqlite3

import pytest

from repro.core.resilience import CrashEnvelope, SeedReport
from repro.observability import MetricsRegistry
from repro.store import (
    ArtifactStore,
    StoreDelta,
    open_store,
    program_text_key,
    seed_scope_fingerprint,
)
from repro.store.artifact import report_is_cacheable
from repro.testing import chaos


@pytest.fixture
def store(tmp_path):
    with ArtifactStore(str(tmp_path / "store.sqlite")) as st:
        yield st


SCOPE = "a" * 16


def _ok_report(seed: int) -> SeedReport:
    # outcome only needs to be picklable for the storage layer
    return SeedReport(seed=seed, outcome=("outcome", seed))


# -- content-addressed programs -------------------------------------------


def test_program_round_trip(store):
    text = "int main(void) { return 42; }\n"
    key = program_text_key(text)
    delta = StoreDelta(programs={key: text})
    store.apply_delta(delta)
    store.commit()
    assert store.get_program(key) == text
    assert store.get_program("0" * 64) is None
    assert [h for h, _ in store.program_hashes()] == [key]


def test_program_key_is_sha256_of_text():
    import hashlib

    text = "void f(void) {}\n"
    assert program_text_key(text) == hashlib.sha256(text.encode()).hexdigest()


# -- memo tables -----------------------------------------------------------


def test_compile_memo_round_trip(store):
    delta = StoreDelta(
        compile_memo={("modfp", "cfgfp"): ("DCEMarker1", "DCEMarker0")}
    )
    store.apply_delta(delta)
    store.commit()
    # the raw read returns a sorted tuple; sessions frozenset it
    assert store.get_compile("modfp", "cfgfp") == (
        "DCEMarker0", "DCEMarker1",
    )
    assert store.get_compile("modfp", "other") is None
    assert store.get_compile("other", "cfgfp") is None


def test_truth_memo_round_trip(store):
    record = {"status": "ok", "exit_code": 0, "steps": 7,
              "marker_hits": {"DCEMarker0": 1}}
    store.apply_delta(StoreDelta(truth_memo={("h" * 64, 100): record}))
    store.commit()
    assert store.get_truth("h" * 64, 100) == record
    # the step limit is part of the key: a different budget re-runs
    assert store.get_truth("h" * 64, 200) is None


def test_oracle_entries_round_trip(store):
    store.record_oracle_entries({"key1": True, "key2": False})
    assert store.oracle_entries() == {"key1": True, "key2": False}
    # INSERT OR IGNORE: first verdict wins, re-recording is a no-op
    store.record_oracle_entries({"key1": False, "key3": True})
    assert store.oracle_entries() == {
        "key1": True, "key2": False, "key3": True,
    }


# -- seed analyses ---------------------------------------------------------


def test_seed_report_round_trip(store):
    report = _ok_report(5)
    store.record_seed_report(SCOPE, report)
    store.commit()
    loaded = store.load_seed_reports(SCOPE, 0, 10)
    assert set(loaded) == {5}
    assert loaded[5].seed == 5
    assert loaded[5].outcome == ("outcome", 5)
    # range and scope are both part of the key
    assert store.load_seed_reports(SCOPE, 6, 10) == {}
    assert store.load_seed_reports("b" * 16, 0, 10) == {}


def test_uncacheable_reports_are_not_recorded(store):
    crash = CrashEnvelope(seed=1, phase="compile", exc_type="ValueError",
                          message="boom", bucket="b")
    for report in (
        SeedReport(seed=1, crash=crash),
        SeedReport(seed=2, budget_exceeded=True),
        SeedReport(seed=4),  # neither outcome nor skipped
    ):
        store.record_seed_report(SCOPE, report)
    store.commit()
    assert store.load_seed_reports(SCOPE, 0, 10) == {}


def test_report_is_cacheable_policy():
    crash = CrashEnvelope(seed=1, phase="p", exc_type="E",
                          message="m", bucket="b")
    assert report_is_cacheable(_ok_report(1))
    assert report_is_cacheable(SeedReport(seed=1, skipped=True))
    assert not report_is_cacheable(SeedReport(seed=1, crash=crash))
    assert not report_is_cacheable(SeedReport(seed=1, budget_exceeded=True))
    assert not report_is_cacheable(SeedReport(seed=1))
    # an injected step-limit skip is a fault, not a result
    chaos.install_plan(chaos.FaultPlan((
        chaos.Fault(site="ground_truth", kind="skip", seeds=frozenset({1})),
    )))
    try:
        assert not report_is_cacheable(SeedReport(seed=1, skipped=True))
        assert report_is_cacheable(SeedReport(seed=2, skipped=True))
    finally:
        chaos.clear_plan()


# -- sessions and deltas ---------------------------------------------------


def test_session_prefers_delta_then_store(store):
    store.apply_delta(
        StoreDelta(compile_memo={("m", "c"): ("DCEMarker0",)})
    )
    store.commit()
    metrics = MetricsRegistry()
    session = store.session(metrics)
    # store-backed lookup counts a hit
    assert session.lookup_compile("m", "c") == frozenset({"DCEMarker0"})
    assert metrics.counter("store.compile_hits").value == 1
    # a recorded entry resolves from the delta before touching disk
    session.record_compile("m2", "c2", frozenset({"DCEMarker1"}))
    assert session.lookup_compile("m2", "c2") == frozenset({"DCEMarker1"})
    assert session.delta.compile_memo[("m2", "c2")] == ("DCEMarker1",)
    # misses return None and count nothing
    assert session.lookup_compile("nope", "nope") is None


def test_session_truth_records_program_text(store):
    session = store.session()
    text = "int main(void) { return 0; }\n"
    key = program_text_key(text)
    session.record_truth(key, 50, {"status": "ok"}, text)
    assert session.lookup_truth(key, 50) == {"status": "ok"}
    store.apply_delta(session.delta)
    store.commit()
    assert store.get_truth(key, 50) == {"status": "ok"}
    assert store.get_program(key) == text


def test_delta_bool_and_apply_is_idempotent(store):
    assert not StoreDelta()
    delta = StoreDelta(compile_memo={("m", "c"): ()})
    assert delta
    store.apply_delta(delta)
    store.apply_delta(delta)  # INSERT OR IGNORE
    store.commit()
    assert store.get_compile("m", "c") == ()


# -- failure policy --------------------------------------------------------


def test_open_store_on_garbage_returns_none(tmp_path):
    path = tmp_path / "garbage.sqlite"
    path.write_bytes(b"this is not a sqlite database at all")
    assert open_store(str(path)) is None


def test_corrupt_store_degrades_instead_of_raising(tmp_path):
    path = str(tmp_path / "store.sqlite")
    with ArtifactStore(path) as st:
        st.record_oracle_entries({"k": True})
    # valid sqlite file, wrong schema: opens, then every op degrades
    with open(path, "wb") as fh:
        fh.write(b"\0" * 64)
    store = open_store(path)
    assert store is None
    # a store whose tables vanish mid-run also degrades quietly
    path2 = str(tmp_path / "store2.sqlite")
    store = ArtifactStore(path2)
    store._con.executescript("DROP TABLE compile_memo; DROP TABLE programs;")
    assert store.get_compile("m", "c") is None
    assert store.disabled
    assert store.errors >= 1
    # everything after the trip is a silent no-op / miss
    store.apply_delta(StoreDelta(compile_memo={("a", "b"): ()}))
    assert store.get_compile("a", "b") is None
    assert store.oracle_entries() == {}
    assert store.load_seed_reports(SCOPE, 0, 10) == {}
    store.close()


def test_store_error_counter(tmp_path):
    metrics = MetricsRegistry()
    store = ArtifactStore(
        str(tmp_path / "s.sqlite"), metrics=metrics
    )
    store._con.executescript("DROP TABLE compile_memo;")
    assert store.get_compile("m", "c") is None
    assert metrics.counter("store.errors").value >= 1
    store.close()


def test_unreadable_seed_report_is_a_miss(store):
    store.record_seed_report(SCOPE, _ok_report(7))
    store.commit()
    store._con.execute(
        "UPDATE seed_analyses SET report = ?", (b"not a pickle",)
    )
    store._con.commit()
    assert store.load_seed_reports(SCOPE, 0, 10) == {}


def test_read_only_store_rejects_writes(tmp_path):
    path = str(tmp_path / "store.sqlite")
    with ArtifactStore(path) as st:
        st.record_oracle_entries({"k": True})
    ro = ArtifactStore(path, read_only=True)
    assert ro.read_only
    assert ro.oracle_entries() == {"k": True}
    # writes are no-ops, not errors
    ro.record_oracle_entries({"k2": True})
    ro.apply_delta(StoreDelta(compile_memo={("m", "c"): ()}))
    ro.record_seed_report(SCOPE, _ok_report(1))
    ro.commit()
    assert ro.oracle_entries() == {"k": True}
    assert not ro.disabled
    ro.close()


def test_open_store_read_only_missing_file(tmp_path):
    assert open_store(str(tmp_path / "absent.sqlite"), read_only=True) is None


# -- maintenance -----------------------------------------------------------


def test_stats_and_gc(store):
    text = "int main(void) { return 1; }\n"
    key = program_text_key(text)
    session = store.session()
    session.record_truth(key, 10, {"status": "ok"}, text)
    orphan = "void orphan(void) {}\n"
    session.delta.programs[program_text_key(orphan)] = orphan
    store.apply_delta(session.delta)
    store.record_oracle_entries({"k": True})
    store.record_seed_report(SCOPE, _ok_report(3))
    store.commit()

    stats = store.stats()
    assert stats["programs"] == 2
    assert stats["truth_memo"] == 1
    assert stats["oracle_memo"] == 1
    assert stats["seed_analyses"] == 1
    assert stats["seed_scopes"] == 1
    # tiny fixtures can compress larger than raw; both must be tracked
    assert stats["program_bytes"] > 0
    assert stats["compressed_bytes"] > 0

    outcome = store.gc()
    assert outcome["removed"] == 1  # the orphan; the truth-referenced stays
    assert store.get_program(key) == text
    assert store.stats()["programs"] == 1


def test_scope_fingerprint_stability():
    from repro.generator import GeneratorConfig

    base = seed_scope_fingerprint(None, None)
    assert base == seed_scope_fingerprint(None, None)
    assert len(base) == 16
    # version and generator shape both split the scope
    assert seed_scope_fingerprint(3, None) != base
    assert seed_scope_fingerprint(None, GeneratorConfig(max_depth=2)) != base
    # a config equal to the default still fingerprints like the default
    assert seed_scope_fingerprint(None, GeneratorConfig()) == (
        seed_scope_fingerprint(None, GeneratorConfig())
    )


def test_schema_version_recorded(store):
    con = sqlite3.connect(store.path)
    row = con.execute(
        "SELECT value FROM meta WHERE key = 'schema_version'"
    ).fetchone()
    con.close()
    assert row is not None
