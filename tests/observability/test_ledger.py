"""Run ledger: persistence, cross-run finding dedup, fingerprints."""

import dataclasses

import pytest

from repro.core.corpus import CampaignConfig, config_fingerprint
from repro.observability import RunLedger, finding_fingerprint

from .conftest import SMALL_CONFIG, SMALL_PROGRAMS, SMALL_SEED_BASE


def record(ledger, campaign, **over):
    result, metrics = campaign
    kwargs = dict(
        n_programs=SMALL_PROGRAMS, seed_base=SMALL_SEED_BASE,
        generator_config=SMALL_CONFIG, metrics=metrics, wall_time=3.0,
    )
    kwargs.update(over)
    return ledger.record_run(result, **kwargs)


def test_run_row_round_trips_campaign_result(small_campaign):
    result, metrics = small_campaign
    with RunLedger(":memory:") as ledger:
        run_id = record(ledger, small_campaign, jobs=3, started_at=1000.0)
        row = ledger.run(run_id)
    assert row.run_id == run_id
    assert row.started_at == 1000.0
    assert row.jobs == 3 and row.incremental is True
    assert row.programs == SMALL_PROGRAMS
    assert row.seed_base == SMALL_SEED_BASE
    assert row.completed == len(result.seeds)
    assert row.total_markers == result.total_markers
    assert row.total_dead == result.total_dead
    assert row.findings == len(result.findings)
    assert row.dead_pct == pytest.approx(result.dead_pct)
    # JSON columns parse back into the same shapes
    for (family, level), stats in result.by_level.items():
        stored = row.by_level[f"{family}-{level}"]
        assert stored["missed"] == stats.missed
        assert stored["dead_total"] == stats.dead_total
    for shape, stats in result.by_shape.items():
        assert row.shape_yield[shape] == stats.to_dict()
    assert row.cross_compiler == dataclasses.asdict(result.cross_compiler)
    # pass attribution rolled up from the metrics counters
    assert row.pass_attribution
    for name, kills in row.pass_attribution.items():
        counter = metrics.counter(f"attribution.marker_kills/{name}")
        assert counter.value == kills
    assert row.metric_value("campaign.compilations") > 0
    assert row.per_program("campaign.compilations") == pytest.approx(
        row.metric_value("campaign.compilations") / row.completed
    )


def test_same_config_twice_dedupes_findings(small_campaign):
    """The acceptance criterion: two runs of one config share finding
    rows with occurrence count 2."""
    result, _ = small_campaign
    with RunLedger(":memory:") as ledger:
        first = record(ledger, small_campaign)
        second = record(ledger, small_campaign, jobs=2)
        rows = ledger.runs()
        assert len(ledger) == 2
        assert rows[0].config_fingerprint == rows[1].config_fingerprint
        findings = ledger.findings()
        assert findings
        for row in findings:
            assert row.occurrences == 2
            assert row.first_seen_run == first
            assert row.last_seen_run == second
            assert row.detail["kind"] == row.kind
        # both runs link to the same deduplicated rows
        assert {f.fingerprint for f in ledger.findings(first)} == {
            f.fingerprint for f in ledger.findings(second)
        }


def test_runs_filtering_and_limit(small_campaign):
    with RunLedger(":memory:") as ledger:
        record(ledger, small_campaign, started_at=100.0)
        record(ledger, small_campaign, incremental=False, started_at=200.0)
        record(ledger, small_campaign, started_at=300.0)
        assert [r.run_id for r in ledger.runs()] == [3, 2, 1]
        assert [r.run_id for r in ledger.runs(limit=1)] == [3]
        assert [r.run_id for r in ledger.runs(since=150.0)] == [3, 2]
        base_config = ledger.run(1).config_fingerprint
        assert [r.run_id for r in ledger.runs(config=base_config[:6])] == [3, 1]
        assert ledger.run(99) is None
        assert ledger.runs(config="zz") == []


def test_ledger_persists_across_reopen(small_campaign, tmp_path):
    path = str(tmp_path / "ledger.sqlite")
    with RunLedger(path) as ledger:
        record(ledger, small_campaign)
    with RunLedger(path) as ledger:
        record(ledger, small_campaign)
        assert len(ledger) == 2
        assert all(f.occurrences == 2 for f in ledger.findings())


def test_config_fingerprint_ignores_jobs_not_config():
    config = CampaignConfig(
        n_programs=10, seed_base=50, generator_config=SMALL_CONFIG
    )

    def with_(**fields):
        return config_fingerprint(dataclasses.replace(config, **fields))

    base = config_fingerprint(config)
    assert base == with_()
    assert base != with_(n_programs=11)
    assert base != with_(seed_base=51)
    assert base != with_(compare_level="O2")
    assert base != with_(incremental=False)
    assert base != with_(generator_config=None)
    assert base == with_(jobs=4, window=1, interp="ast")


def test_config_fingerprint_golden_values():
    """Pinned to the fingerprints earlier releases wrote, so runs in
    existing ledgers stay comparable."""
    assert config_fingerprint(
        CampaignConfig(n_programs=50, seed_base=0)
    ) == "b53df36fa1d7fdc3"
    assert config_fingerprint(CampaignConfig(
        n_programs=4, seed_base=100, version=3, generator_config=None,
        compare_level="O2", incremental=False,
    )) == "54240a8069262f9a"


def test_structural_fingerprint_deterministic(small_campaign):
    result, _ = small_campaign
    finding = result.findings[0]
    first = finding_fingerprint(finding, SMALL_CONFIG)
    assert first == finding_fingerprint(finding, SMALL_CONFIG)
    # the kind participates, so an identical marker set under another
    # kind cannot collide
    other = dict(finding, kind="cross-level", family="gcclike",
                 markers=["DCEMarker0"])
    other.pop("gcc_misses", None)
    other.pop("llvm_misses", None)
    assert finding_fingerprint(other, SMALL_CONFIG) != first


def test_reduced_fingerprint_deterministic_and_recorded(small_campaign):
    """The paper-faithful mode: reduce, lower, hash the canonical IR."""
    result, _ = small_campaign
    finding = result.findings[0]
    reduced = finding_fingerprint(finding, SMALL_CONFIG, reduce=True)
    assert reduced == finding_fingerprint(finding, SMALL_CONFIG, reduce=True)
    assert reduced != finding_fingerprint(finding, SMALL_CONFIG)
    with RunLedger(":memory:") as ledger:
        run_id = record(ledger, small_campaign, reduce_findings=True)
        fingerprints = {f.fingerprint for f in ledger.findings(run_id)}
    assert reduced in fingerprints
