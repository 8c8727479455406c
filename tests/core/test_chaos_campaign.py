"""Campaign-level fault isolation, proven with injected faults.

The contract under test: a campaign with crashing, skipping, spinning,
or worker-killing seeds still completes; clean seeds produce exactly
what a fault-free campaign produces; and the report (crash envelopes,
buckets, counters) is identical at ``jobs=1`` and ``jobs=4``.
"""

import pytest

from repro.core import parallel as parallel_mod
from repro.core.corpus import run_campaign
from repro.observability import EventBus, MetricsRegistry
from repro.testing import chaos

PROGRAMS = 6
SEED_BASE = 200
CRASH_PASS_SEED = SEED_BASE + 1  # dies inside the gvn pass
CRASH_GEN_SEED = SEED_BASE + 3  # dies in program generation
SKIP_SEED = SEED_BASE + 4  # blows the interpreter step budget
FAULTED = {CRASH_PASS_SEED, CRASH_GEN_SEED, SKIP_SEED}

PLAN = chaos.FaultPlan((
    chaos.Fault(site="pass:gvn", seeds=frozenset({CRASH_PASS_SEED})),
    chaos.Fault(site="generate", seeds=frozenset({CRASH_GEN_SEED})),
    chaos.Fault(
        site="ground_truth", kind="skip", seeds=frozenset({SKIP_SEED})
    ),
))


@pytest.fixture(autouse=True)
def _clean_plan():
    yield
    chaos.clear_plan()
    chaos.set_current_seed(None)


def _campaign(jobs, plan=None, **kwargs):
    if plan is not None:
        chaos.install_plan(plan)
    metrics = MetricsRegistry()
    try:
        result = run_campaign(
            n_programs=PROGRAMS, seed_base=SEED_BASE, keep_analyses=True,
            metrics=metrics, jobs=jobs, **kwargs,
        )
    finally:
        chaos.clear_plan()
    return result, metrics


@pytest.fixture(scope="module")
def nofault():
    return _campaign(jobs=1)


@pytest.fixture(scope="module")
def chaos_seq():
    return _campaign(jobs=1, plan=PLAN)


@pytest.fixture(scope="module")
def chaos_par():
    return _campaign(jobs=4, plan=PLAN)


def test_faulted_campaign_completes_and_attributes(chaos_seq):
    result, metrics = chaos_seq
    assert result.seeds == sorted(
        set(range(SEED_BASE, SEED_BASE + PROGRAMS)) - FAULTED
    )
    assert result.skipped == [SKIP_SEED]
    assert [c.seed for c in result.crashes] == [CRASH_PASS_SEED, CRASH_GEN_SEED]
    by_seed = {c.seed: c for c in result.crashes}
    assert by_seed[CRASH_PASS_SEED].phase == "compile"
    assert by_seed[CRASH_PASS_SEED].bucket.endswith("#gvn")
    assert by_seed[CRASH_GEN_SEED].phase == "generate"
    assert all(c.repro for c in result.crashes)
    assert len(result.crash_buckets) == 2
    assert metrics.counter("campaign.crashes").value == 2
    assert metrics.gauge("campaign.crash_buckets").value == 2


def test_clean_seeds_identical_to_nofault_run(nofault, chaos_seq):
    clean, _ = nofault
    faulted, _ = chaos_seq
    clean_by_seed = {o.seed: o for o in clean.analyses}
    for outcome in faulted.analyses:
        twin = clean_by_seed[outcome.seed]
        assert outcome.marker_count == twin.marker_count
        assert outcome.dead_count == twin.dead_count
        for spec, marker_outcome in twin.analysis.outcomes.items():
            assert (
                outcome.analysis.outcomes[spec].alive == marker_outcome.alive
            ), (outcome.seed, spec)


def test_parallel_reports_identical_faults(chaos_seq, chaos_par):
    seq, seq_metrics = chaos_seq
    par, par_metrics = chaos_par
    assert par.seeds == seq.seeds
    assert par.skipped == seq.skipped
    assert par.crashes == seq.crashes
    assert par.budget_exceeded == seq.budget_exceeded
    assert par.degraded == seq.degraded
    assert list(par.crash_buckets) == list(seq.crash_buckets)
    assert par.crash_buckets == seq.crash_buckets
    assert par.by_level == seq.by_level
    assert par.findings == seq.findings
    for name in ("campaign.crashes", "campaign.checkpoint_replayed"):
        assert (
            par_metrics.counter(name).value
            == seq_metrics.counter(name).value
        ), name


def test_degraded_retry_matches_plain_nonincremental_run():
    seed = SEED_BASE
    plan = chaos.FaultPlan(
        (chaos.Fault(site="incremental", seeds=frozenset({seed})),)
    )
    chaos.install_plan(plan)
    metrics = MetricsRegistry()
    try:
        degraded = run_campaign(
            n_programs=1, seed_base=seed, keep_analyses=True,
            metrics=metrics,
        )
    finally:
        chaos.clear_plan()
    clean = run_campaign(
        n_programs=1, seed_base=seed, keep_analyses=True, incremental=False,
    )
    assert degraded.seeds == clean.seeds == [seed]
    assert degraded.degraded == [seed]
    assert not degraded.crashes
    assert metrics.counter("campaign.degraded").value == 1
    ours, theirs = degraded.analyses[0], clean.analyses[0]
    for spec, outcome in theirs.analysis.outcomes.items():
        assert ours.analysis.outcomes[spec].alive == outcome.alive


def test_budget_exceeded_spin_seed_is_contained():
    seed = SEED_BASE
    plan = chaos.FaultPlan(
        (chaos.Fault(site="analyze", kind="spin", seeds=frozenset({seed})),)
    )
    chaos.install_plan(plan)
    metrics = MetricsRegistry()
    try:
        result = run_campaign(
            n_programs=1, seed_base=seed, metrics=metrics, seed_budget=1.5,
        )
    finally:
        chaos.clear_plan()
    assert result.budget_exceeded == [seed]
    assert not result.seeds and not result.crashes
    assert metrics.counter("campaign.budget_exceeded").value == 1


def test_interpreter_polls_seed_deadline():
    from repro import budget
    from repro.budget import SeedBudgetExceeded
    from repro.core.ground_truth import compute_ground_truth
    from repro.core.markers import instrument_program
    from repro.lang import parse_program

    # enough iterations to cross the interpreter's 2048-step poll site
    instrumented = instrument_program(parse_program("""
int main() {
  long s = 0;
  for (int i = 0; i < 5000; i++) { s += i; }
  return (int) s;
}
"""))
    with budget.deadline(1e-9):
        with pytest.raises(SeedBudgetExceeded):
            compute_ground_truth(instrumented)


def test_worker_death_is_bisected_to_killer_seed(monkeypatch):
    seeds = list(range(SEED_BASE, SEED_BASE + 4))
    killer = seeds[1]
    # force multi-seed shards so the bisection actually has to isolate
    monkeypatch.setattr(
        parallel_mod, "shard_seeds",
        lambda s, jobs, shard_size=None: [list(s[:2]), list(s[2:])],
    )
    chaos.install_plan(chaos.FaultPlan(
        (chaos.Fault(site="generate", kind="kill",
                     seeds=frozenset({killer})),)
    ))
    metrics = MetricsRegistry()
    try:
        result = run_campaign(
            n_programs=4, seed_base=SEED_BASE, metrics=metrics, jobs=2,
        )
    finally:
        chaos.clear_plan()
    assert result.seeds == [s for s in seeds if s != killer]
    assert [c.seed for c in result.crashes] == [killer]
    assert result.crashes[0].bucket == "WorkerDeath@worker"
    assert metrics.counter("campaign.worker_restarts").value >= 1


def test_checkpoint_resume_reproduces_uninterrupted_run(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    plan = chaos.FaultPlan(
        (chaos.Fault(site="analyze", seeds=frozenset({SEED_BASE + 1})),)
    )

    class StopAfter:
        """Bus subscriber interrupting after ``n`` finished seeds."""

        def __init__(self, n):
            self.remaining = n

        def __call__(self, event):
            if event.type not in ("seed_done", "crash", "budget_exceeded"):
                return
            self.remaining -= 1
            if self.remaining == 0:
                raise KeyboardInterrupt

    chaos.install_plan(plan)
    try:
        bus = EventBus()
        bus.subscribe(StopAfter(2))
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                n_programs=4, seed_base=SEED_BASE, checkpoint=path,
                events=bus,
            )
        metrics = MetricsRegistry()
        resumed = run_campaign(
            n_programs=4, seed_base=SEED_BASE, checkpoint=path,
            keep_analyses=True, metrics=metrics,
        )
        uninterrupted = run_campaign(
            n_programs=4, seed_base=SEED_BASE, keep_analyses=True,
        )
    finally:
        chaos.clear_plan()
    # the two journaled seeds replayed from disk; only the rest re-ran
    assert metrics.counter("campaign.checkpoint_replayed").value == 2
    assert resumed.seeds == uninterrupted.seeds
    assert resumed.skipped == uninterrupted.skipped
    assert resumed.crashes == uninterrupted.crashes
    assert resumed.by_level == uninterrupted.by_level
    assert resumed.findings == uninterrupted.findings
    assert resumed.total_markers == uninterrupted.total_markers
    # a parallel rerun over the same journal agrees too
    chaos.install_plan(plan)
    par_metrics = MetricsRegistry()
    try:
        par = run_campaign(
            n_programs=4, seed_base=SEED_BASE, checkpoint=path,
            keep_analyses=True, metrics=par_metrics, jobs=2,
        )
    finally:
        chaos.clear_plan()
    assert par.seeds == uninterrupted.seeds
    assert par.crashes == uninterrupted.crashes
    assert par.by_level == uninterrupted.by_level
    assert par_metrics.counter("campaign.checkpoint_replayed").value == 4
