"""The single campaign seed loop: its config object, its envelope
sources, and the properties the jobs=1 and jobs>1 paths share."""

import os
import pickle
import signal
import sqlite3
import subprocess
import sys
import zlib

import pytest

import repro
from repro.core import parallel as parallel_mod
from repro.core.corpus import CampaignConfig, run_campaign
from repro.generator import GeneratorConfig
from repro.observability import (
    EventBus,
    MetricsRegistry,
    Tracer,
    strip_timestamps,
)
from repro.store import open_store

SMALL_CONFIG = GeneratorConfig(
    min_globals=1, max_globals=3, min_functions=2, max_functions=3,
    max_depth=3, min_block_stmts=1, max_block_stmts=4, max_expr_depth=2,
)


def test_run_campaign_is_keyword_only():
    with pytest.raises(TypeError):
        run_campaign(0)  # type: ignore[misc]


def test_campaign_config_is_frozen():
    config = CampaignConfig(n_programs=3, seed_base=7)
    assert list(config.seeds) == [7, 8, 9]
    with pytest.raises(AttributeError):
        config.jobs = 2  # type: ignore[misc]


def test_campaign_span_attrs_do_not_depend_on_jobs():
    keys = []
    for jobs in (1, 2):
        tracer = Tracer()
        run_campaign(n_programs=0, jobs=jobs, tracer=tracer)
        (span,) = tracer.find("campaign")
        assert span.attrs["jobs"] == jobs
        keys.append(sorted(span.attrs))
    assert keys[0] == keys[1]
    assert {"jobs", "window", "interp"} <= set(keys[0])


def test_jobs1_campaign_never_imports_the_pool():
    """The process pool's modules load only for jobs>1."""
    script = (
        "import sys\n"
        "from repro.core.corpus import run_campaign\n"
        "from repro.generator import GeneratorConfig\n"
        f"config = {SMALL_CONFIG!r}\n"
        "result = run_campaign(n_programs=1, seed_base=50,"
        " generator_config=config)\n"
        "assert len(result.seeds) + len(result.skipped) == 1\n"
        "assert 'repro.core.parallel' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    subprocess.run(
        [sys.executable, "-c", script], check=True,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_fully_replayed_parallel_campaign_starts_no_pool(
    tmp_path, monkeypatch
):
    path = str(tmp_path / "store.sqlite")
    store = open_store(path)
    try:
        cold = run_campaign(
            n_programs=2, seed_base=50, generator_config=SMALL_CONFIG,
            store=store,
        )
    finally:
        store.close()

    def no_pool(*args, **kwargs):
        raise AssertionError("a fully replayed campaign started a pool")

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", no_pool)
    metrics = MetricsRegistry()
    store = open_store(path, metrics=metrics)
    try:
        warm = run_campaign(
            n_programs=2, seed_base=50, generator_config=SMALL_CONFIG,
            store=store, metrics=metrics, jobs=2,
        )
    finally:
        store.close()
    assert metrics.counter("store.seeds_skipped").value == 2
    assert warm.seeds == cold.seeds
    assert warm.by_level == cold.by_level
    assert warm.findings == cold.findings


def _flag_degraded(store_path: str) -> None:
    """Mark every stored seed blob ``degraded`` — the flag the removed
    non-incremental retry used to write."""
    con = sqlite3.connect(store_path)
    with con:
        rows = con.execute(
            "SELECT scope_fp, seed, report FROM seed_analyses"
        ).fetchall()
        for scope_fp, seed, blob in rows:
            report = pickle.loads(zlib.decompress(blob))
            report.__dict__["degraded"] = True
            con.execute(
                "UPDATE seed_analyses SET report = ?"
                " WHERE scope_fp = ? AND seed = ?",
                (zlib.compress(pickle.dumps(report)), scope_fp, seed),
            )
    con.close()


def test_degraded_store_blobs_still_replay(tmp_path):
    kwargs = dict(n_programs=2, seed_base=50, generator_config=SMALL_CONFIG)
    store_path = str(tmp_path / "store.sqlite")
    store = open_store(store_path)
    try:
        cold = run_campaign(**kwargs, store=store)
    finally:
        store.close()
    assert cold.seeds
    _flag_degraded(store_path)

    metrics = MetricsRegistry()
    store = open_store(store_path, metrics=metrics)
    try:
        warm = run_campaign(**kwargs, metrics=metrics, store=store)
    finally:
        store.close()
    assert metrics.counter("campaign.compilations").value == 0
    assert metrics.counter("store.seeds_skipped").value == 2
    assert warm.seeds == cold.seeds
    assert warm.by_level == cold.by_level
    assert warm.findings == cold.findings


# -- durability: a finished seed is committed before anything observes it


def _observed_run(**kwargs):
    """One campaign: its result and its event stream without
    timestamps."""
    events = []
    bus = EventBus()
    bus.subscribe(events.append)
    return run_campaign(**kwargs, events=bus), strip_timestamps(events)


def _store_rerun(path, **kwargs):
    """Rerun over the store at ``path``: the observed run and the
    number of seeds replayed from the store."""
    metrics = MetricsRegistry()
    store = open_store(path, metrics=metrics)
    try:
        observed = _observed_run(**kwargs, metrics=metrics, store=store)
    finally:
        store.close()
    return observed, metrics.counter("store.seeds_skipped").value


def test_interrupt_while_narrating_a_seed_keeps_it_committed(tmp_path):
    kwargs = dict(n_programs=3, seed_base=0, generator_config=SMALL_CONFIG)
    path = str(tmp_path / "store.sqlite")

    def interrupt_at_seed_1(event):
        if event.type == "seed_done" and event.attrs["seed"] == 1:
            raise KeyboardInterrupt

    bus = EventBus()
    bus.subscribe(interrupt_at_seed_1)
    store = open_store(path)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_campaign(**kwargs, events=bus, store=store)
    finally:
        store.close()
    resumed, replayed = _store_rerun(path, **kwargs)
    assert replayed == 2  # seed 0 and the interrupted seed 1
    assert resumed == _observed_run(**kwargs)


def test_kill_9_loses_at_most_the_seed_in_flight(tmp_path):
    """SIGKILL the campaign process at its k-th ``seed_done``: the k
    seeds it narrated were already committed, and a rerun over the
    store resumes to the uninterrupted result and event stream."""
    kwargs = dict(n_programs=6, seed_base=0, generator_config=SMALL_CONFIG)
    path = str(tmp_path / "store.sqlite")
    k = 3
    script = (
        "import os, signal\n"
        "from repro.core.corpus import run_campaign\n"
        "from repro.generator import GeneratorConfig\n"
        "from repro.observability import EventBus\n"
        "from repro.store import open_store\n"
        f"config = {SMALL_CONFIG!r}\n"
        "done = 0\n"
        "def kill_at_k(event):\n"
        "    global done\n"
        "    if event.type == 'seed_done':\n"
        "        done += 1\n"
        f"        if done == {k}:\n"
        "            os.kill(os.getpid(), signal.SIGKILL)\n"
        "bus = EventBus()\n"
        "bus.subscribe(kill_at_k)\n"
        "run_campaign(n_programs=6, seed_base=0, generator_config=config,\n"
        f"             events=bus, store=open_store({path!r}))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src}, timeout=600,
    )
    assert proc.returncode == -signal.SIGKILL
    resumed, replayed = _store_rerun(path, **kwargs)
    assert replayed == k
    assert resumed == _observed_run(**kwargs)
