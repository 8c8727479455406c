"""Run reports and the cross-run regression comparator."""

import pytest

from repro.observability import (
    CompareThresholds,
    RunLedger,
    compare_runs,
    comparison_text,
    run_report_html,
    run_report_text,
)
from repro.observability.ledger import RunRow

from .conftest import SMALL_CONFIG, SMALL_PROGRAMS, SMALL_SEED_BASE


def mk_run(run_id=1, **over):
    """A synthetic RunRow with healthy defaults."""
    base = dict(
        run_id=run_id, started_at=1_700_000_000.0, wall_time=30.0,
        config_fingerprint="cafe" * 4, programs=10, seed_base=0,
        jobs=1, compare_level="O3", version=None,
        completed=10, skipped=0, crashed=0, budget_exceeded=0,
        total_markers=100, total_dead=90, total_alive=10,
        findings=5, soundness_violations=0,
        metrics={
            "campaign.compilations": {"type": "counter", "value": 90},
        },
    )
    base.update(over)
    return RunRow(**base)


def test_compare_flags_compilation_increase_and_yield_drop():
    candidate = mk_run(2, findings=2, metrics={
        "campaign.compilations": {"type": "counter", "value": 150},
    })
    comparison = compare_runs(mk_run(1), candidate)
    names = {d.name for d in comparison.regressions}
    assert names == {"compilations/program", "findings/program"}


def test_compare_thresholds_are_configurable():
    candidate = mk_run(2, metrics={
        "campaign.compilations": {"type": "counter", "value": 97},
    })
    # a 7.8% rise passes the default 10% gate but fails a 5% one
    assert compare_runs(mk_run(1), candidate).ok
    strict = CompareThresholds(compilations_increase=0.05)
    assert not compare_runs(mk_run(1), candidate, strict).ok


def test_compare_identical_runs_is_clean():
    comparison = compare_runs(mk_run(1), mk_run(2))
    assert comparison.ok
    text = comparison_text(comparison)
    assert "no regressions" in text
    assert "REGRESSION" not in text


def test_comparison_text_names_regressions():
    candidate = mk_run(2, metrics={
        "campaign.compilations": {"type": "counter", "value": 180},
    })
    text = comparison_text(compare_runs(mk_run(1), candidate))
    assert "REGRESSION" in text
    assert "compilations/program" in text
    assert "+100.0%" in text


@pytest.fixture(scope="module")
def recorded(small_campaign):
    """(RunRow, findings) for the shared small campaign."""
    with RunLedger(":memory:") as ledger:
        result, metrics = small_campaign
        run_id = ledger.record_run(
            result, n_programs=SMALL_PROGRAMS, seed_base=SMALL_SEED_BASE,
            generator_config=SMALL_CONFIG, metrics=metrics, wall_time=3.0,
        )
        return ledger.run(run_id), ledger.findings(run_id)


def test_run_report_text_sections(recorded):
    run, findings = recorded
    text = run_report_text(run, findings)
    assert f"run {run.run_id}" in text
    assert "== Outcome ==" in text
    assert "== Marker yield by O-level ==" in text
    assert "gcclike-O3" in text and "llvmlike-O0" in text
    assert "== Yield by program shape ==" in text
    assert "== Marker kills by pass ==" in text
    assert "== Compile latency (ms) ==" in text
    assert "p50" in text and "p99" in text
    assert "== Findings (deduplicated) ==" in text
    assert findings[0].fingerprint in text


def test_run_report_html_is_self_contained(recorded):
    run, findings = recorded
    document = run_report_html(run, findings)
    assert document.startswith("<!DOCTYPE html>")
    assert "</html>" in document
    # no external fetches: archivable as a single CI artifact
    assert "http://" not in document and "https://" not in document
    assert "<script" not in document and "src=" not in document
    assert "Marker kills by pass" in document
    assert findings[0].fingerprint in document


def test_report_store_section_present_only_for_store_runs():
    plain = run_report_text(mk_run(1), [])
    assert "Persistent store" not in plain

    warm = mk_run(2, store_seeds_skipped=10, store_compile_hits=30,
                  store_truth_hits=4, store_oracle_hits=7,
                  metrics={
                      "campaign.compilations": {"type": "counter",
                                                "value": 60},
                      "store.errors": {"type": "counter", "value": 0},
                  })
    text = run_report_text(warm, [])
    assert "Persistent store" in text
    # 30 store hits out of 30 + 60 cold compiles
    assert "33.3%" in text
    html = run_report_html(warm, [])
    assert "Persistent store" in html

    # store on but stone cold: section shows zeros, hit rate defined
    cold = mk_run(3, store_seeds_skipped=0, store_compile_hits=0,
                  store_truth_hits=0, store_oracle_hits=0)
    text = run_report_text(cold, [])
    assert "Persistent store" in text
