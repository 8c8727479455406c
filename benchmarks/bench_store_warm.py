"""Persistent artifact store — warm campaign reruns must be near-free.

Runs one campaign cold against a fresh store, then reruns it warm, and
fences the two claims the store exists for:

* the warm rerun performs at least ``MIN_COMPILE_RATIO``× fewer
  compilations (``campaign.compilations``) than cold — in practice it
  performs *zero*, every seed replays wholesale;
* the warm rerun is at least ``MIN_SPEEDUP``× faster wall-clock.

Both runs must agree with a store-free baseline bit-for-bit (results
and timestamp-stripped events), so the speedup is free determinism-
wise.  ``STORE_WARM_PROGRAMS`` overrides the corpus size (default 50).
"""

import os
import time

from repro.core.corpus import run_campaign
from repro.core.stats import format_table
from repro.generator import GeneratorConfig
from repro.observability import EventBus, MetricsRegistry, strip_timestamps
from repro.store import ArtifactStore

from conftest import emit

PROGRAMS = int(os.environ.get("STORE_WARM_PROGRAMS", "50"))
SEED_BASE = 400

#: acceptance floors: >=5x fewer compilations, >=2x wall
MIN_COMPILE_RATIO = 5.0
MIN_SPEEDUP = 2.0

#: small programs keep 50 cold seeds affordable on one CPU
CONFIG = GeneratorConfig(
    min_globals=1, max_globals=3, min_functions=2, max_functions=3,
    max_depth=3, min_block_stmts=1, max_block_stmts=4, max_expr_depth=2,
)


def _run(store=None):
    metrics = MetricsRegistry()
    events = []
    bus = EventBus()
    bus.subscribe(events.append)
    start = time.perf_counter()
    result = run_campaign(
        n_programs=PROGRAMS, seed_base=SEED_BASE,
        generator_config=CONFIG, metrics=metrics, events=bus, store=store,
    )
    elapsed = time.perf_counter() - start
    return result, metrics.to_dict(), strip_timestamps(events), elapsed


def _counter(snapshot, name):
    return snapshot.get(name, {}).get("value", 0)


def test_warm_rerun_is_near_free(tmp_path):
    path = str(tmp_path / "store.sqlite")
    base_result, base_metrics, base_events, base_time = _run()
    with ArtifactStore(path) as store:
        cold_result, cold_metrics, cold_events, cold_time = _run(store)
    with ArtifactStore(path) as store:
        warm_result, warm_metrics, warm_events, warm_time = _run(store)

    # determinism first: the store may only change wall time
    assert cold_result == base_result and warm_result == base_result
    assert cold_events == base_events and warm_events == base_events
    assert _counter(warm_metrics, "store.errors") == 0

    cold_compiles = _counter(cold_metrics, "campaign.compilations")
    warm_compiles = _counter(warm_metrics, "campaign.compilations")
    compile_ratio = (
        cold_compiles / warm_compiles if warm_compiles else float("inf")
    )
    speedup = cold_time / warm_time if warm_time else float("inf")

    rows = [
        ["cold (populating store)", f"{cold_time:.2f}", str(cold_compiles),
         "0"],
        ["warm (rerun)", f"{warm_time:.2f}", str(warm_compiles),
         str(_counter(warm_metrics, "store.seeds_skipped"))],
        ["no store (reference)", f"{base_time:.2f}",
         str(_counter(base_metrics, "campaign.compilations")), "-"],
    ]
    table = format_table(
        ["variant", "wall (s)", "compilations", "replayed"],
        rows,
        title=f"warm vs cold campaign rerun — {PROGRAMS} programs",
    )
    table += (
        f"\n\ncompilation ratio: {compile_ratio:.1f}x"
        f" (floor {MIN_COMPILE_RATIO}x)"
        f"\nwall-clock speedup: {speedup:.1f}x (floor {MIN_SPEEDUP}x)"
    )
    emit("store_warm_rerun", table)

    assert _counter(warm_metrics, "store.seeds_skipped") == PROGRAMS
    assert compile_ratio >= MIN_COMPILE_RATIO
    assert speedup >= MIN_SPEEDUP
