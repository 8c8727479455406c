"""The single campaign seed loop: its config object, its envelope
sources, and the properties the jobs=1 and jobs>1 paths share."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core import parallel as parallel_mod
from repro.core.corpus import CampaignConfig, run_campaign
from repro.generator import GeneratorConfig
from repro.observability import MetricsRegistry, Tracer
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
