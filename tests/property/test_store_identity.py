"""Warm-vs-cold byte-identity of store-backed campaigns.

The artifact store's contract: a campaign run against a warm store
produces *exactly* what the cold run produced — the same
:class:`CampaignResult`, the same event stream modulo timestamps, and
the same result-derived counters — at any jobs count.  The only
permitted difference is wall time (and the ``store.*`` hit counters,
which are observability, not results).
"""

import pytest

from repro.core.corpus import run_campaign
from repro.generator import GeneratorConfig
from repro.observability import EventBus, MetricsRegistry, strip_timestamps
from repro.store import ArtifactStore
from repro.testing import chaos

#: small programs keep a 4-run matrix affordable on one CPU
CONFIG = GeneratorConfig(
    min_globals=1, max_globals=3, min_functions=2, max_functions=3,
    max_depth=3, min_block_stmts=1, max_block_stmts=4, max_expr_depth=2,
)
PROGRAMS = 6
SEED_BASE = 210


def _run(store=None, jobs=1):
    metrics = MetricsRegistry()
    events = []
    bus = EventBus()
    bus.subscribe(events.append)
    result = run_campaign(
        n_programs=PROGRAMS, seed_base=SEED_BASE,
        generator_config=CONFIG, metrics=metrics, events=bus,
        jobs=jobs, store=store,
    )
    return result, metrics.to_dict(), strip_timestamps(events)


def _counter(snapshot, name):
    return snapshot.get(name, {}).get("value", 0)


@pytest.fixture(scope="module")
def baseline():
    """The no-store reference run."""
    return _run()


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("store") / "campaign.sqlite")


@pytest.fixture(scope="module")
def cold(baseline, store_path):
    """First store-backed run: populates the store."""
    with ArtifactStore(store_path) as store:
        outcome = _run(store=store)
    return outcome


def test_cold_run_matches_no_store_run(baseline, cold):
    """Writing the store must not perturb results or events."""
    assert cold[0] == baseline[0]
    assert cold[2] == baseline[2]
    assert _counter(cold[1], "store.seeds_skipped") == 0
    assert _counter(cold[1], "store.errors") == 0
    # the cold run compiled everything itself
    assert _counter(cold[1], "campaign.compilations") == _counter(
        baseline[1], "campaign.compilations"
    )


@pytest.mark.parametrize("jobs", [1, 4])
def test_warm_rerun_is_byte_identical(baseline, cold, store_path, jobs):
    with ArtifactStore(store_path) as store:
        result, snapshot, events = _run(store=store, jobs=jobs)
    assert result == baseline[0]
    assert events == baseline[2]
    # every seed replayed from the store; nothing recompiled or re-run
    assert _counter(snapshot, "store.seeds_skipped") == PROGRAMS
    assert _counter(snapshot, "campaign.compilations") == 0
    assert _counter(snapshot, "interp.steps") == 0
    assert _counter(snapshot, "store.errors") == 0


def test_chaos_skip_is_not_replayed_into_clean_runs(baseline, tmp_path):
    """An injected step-limit skip is a fault, not a result: a clean
    warm rerun over a store that a chaos run filled equals the clean
    cold run."""
    skip_seed = SEED_BASE + 1
    assert skip_seed in baseline[0].seeds
    path = str(tmp_path / "chaos.sqlite")
    chaos.install_plan(chaos.FaultPlan((
        chaos.Fault(
            site="ground_truth", kind="skip", seeds=frozenset({skip_seed})
        ),
    )))
    try:
        with ArtifactStore(path) as store:
            faulted, _, _ = _run(store=store)
    finally:
        chaos.clear_plan()
    assert skip_seed in faulted.skipped
    with ArtifactStore(path) as store:
        result, snapshot, events = _run(store=store)
    assert result == baseline[0]
    assert events == baseline[2]
    assert _counter(snapshot, "store.seeds_skipped") == PROGRAMS - 1


@pytest.mark.parametrize("jobs", [1, 4])
def test_memo_layers_alone_reproduce_results(
    baseline, cold, store_path, tmp_path, jobs
):
    """With seed replay disabled the compile/truth memos still carry
    the rerun — and still reproduce results exactly (partial-warmth
    path: new seeds or a changed campaign scope)."""
    import shutil
    import sqlite3

    memo_only = str(tmp_path / f"memo-only-{jobs}.sqlite")
    shutil.copy(store_path, memo_only)
    con = sqlite3.connect(memo_only)
    con.execute("DELETE FROM seed_analyses")
    con.commit()
    con.close()

    with ArtifactStore(memo_only) as store:
        result, snapshot, events = _run(store=store, jobs=jobs)
    assert result == baseline[0]
    assert events == baseline[2]
    assert _counter(snapshot, "store.seeds_skipped") == 0
    # ground truth resolves from the truth memo, compiles from the
    # compile memo: nothing executes or compiles cold
    assert _counter(snapshot, "store.truth_hits") == PROGRAMS
    assert _counter(snapshot, "store.compile_hits") > 0
    assert _counter(snapshot, "campaign.compilations") == 0
    assert _counter(snapshot, "interp.steps") == 0


def test_superset_campaign_reuses_stored_seeds(baseline, cold, store_path):
    """The seed scope excludes n_programs/seed_base: a larger campaign
    over a superset range replays the stored seeds and analyzes only
    the new ones."""
    with ArtifactStore(store_path) as store:
        result, snapshot, _ = _run_range(
            store, SEED_BASE - 1, PROGRAMS + 2
        )
    assert _counter(snapshot, "store.seeds_skipped") == PROGRAMS
    # the two new seeds (one below, one above) were analyzed fresh
    assert len(result.seeds) + len(result.skipped) == PROGRAMS + 2
    # and rerunning the original range afterwards is still identical
    result2, snapshot2, events2 = _run(store=store)
    assert result2 == baseline[0]
    assert events2 == baseline[2]


def _run_range(store, seed_base, n_programs):
    metrics = MetricsRegistry()
    events = []
    bus = EventBus()
    bus.subscribe(events.append)
    result = run_campaign(
        n_programs=n_programs, seed_base=seed_base,
        generator_config=CONFIG, metrics=metrics, events=bus, store=store,
    )
    return result, metrics.to_dict(), strip_timestamps(events)
