"""Corpus campaign runner (paper §4).

Generates a corpus of random programs, instruments them, computes
ground truth, compiles each program under every compiler spec of
interest, and accumulates the statistics behind the paper's Tables 1
and 2 and the §4.1/§4.2 headline numbers.

One seed loop (:func:`run_campaign`) drives every campaign.  It walks
the seed range in order; stored seeds replay, and fresh seeds arrive
as :class:`SeedEnvelope`\\ s from an envelope source — an in-process
generator at ``jobs=1``, the bounded-window process pool of
:mod:`repro.core.parallel` at ``jobs>1`` — so both job counts share
the store, event and merge code verbatim.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator

from ..compilers import FAMILIES, LEVELS, CompilerSpec
from ..frontend.typecheck import check_program
from ..generator import GeneratorConfig, generate_program
from ..interp import StepLimitExceeded
from ..observability import events as ev
from ..observability.events import EventBus
from ..observability.metrics import MetricsRegistry
from ..observability.tracer import Tracer, current_tracer, use_tracer
from .differential import ProgramAnalysis, analyze_markers, missed_between_levels
from .shapes import ShapeStats, program_shape
from .ground_truth import compute_ground_truth
from .markers import instrument_program
from .primary import build_marker_graph, primary_missed_markers
from .resilience import (
    CrashEnvelope,
    SeedReport,
    analyze_one_resilient,
    bucket_crashes,
)


def default_specs(version: int | None = None) -> list[CompilerSpec]:
    """Every family × level at one version (default: tip)."""
    return [
        CompilerSpec(family, level, version)
        for family in FAMILIES
        for level in LEVELS
    ]


@dataclass(frozen=True)
class CampaignConfig:
    """The plain-data arguments of :func:`run_campaign`: built once per
    campaign, shipped to pool workers, and hashed by
    :func:`config_fingerprint`."""

    n_programs: int = 50
    seed_base: int = 0
    version: int | None = None
    generator_config: GeneratorConfig | None = None
    compare_level: str = "O3"
    seed_budget: float | None = None
    #: ground-truth interpreter backend (None = process default)
    interp: str | None = None
    keep_analyses: bool = False
    jobs: int = 1
    #: parallel scheduler in-flight shard cap (None = ``jobs * 3``)
    window: int | None = None

    @property
    def seeds(self) -> range:
        return range(self.seed_base, self.seed_base + self.n_programs)


def config_fingerprint(config: CampaignConfig) -> str:
    """A short stable hash of everything that determines a campaign's
    results.  ``jobs``, the scheduler ``window``, and the ``interp``
    backend are deliberately excluded: results are bit-identical under
    any of them, so reruns at different parallelism or on the AST
    cross-check interpreter share the fingerprint (and ``compare``
    treats them as the same campaign)."""
    generator_config = config.generator_config
    payload = {
        "n_programs": config.n_programs,
        "seed_base": config.seed_base,
        "version": config.version,
        "generator_config": (
            asdict(generator_config) if generator_config is not None else None
        ),
        "compare_level": config.compare_level,
        # the removed compile-engine switch, pinned at its old default
        # so ledgers recorded before its removal keep their fingerprint
        "incremental": True,
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    return digest[:16]


@dataclass
class LevelStats:
    """Accumulated per (family, level)."""

    dead_total: int = 0
    missed: int = 0
    primary_missed: int = 0

    @property
    def missed_pct(self) -> float:
        return 100.0 * self.missed / self.dead_total if self.dead_total else 0.0

    @property
    def primary_missed_pct(self) -> float:
        return 100.0 * self.primary_missed / self.dead_total if self.dead_total else 0.0


@dataclass
class CrossCompilerStats:
    """§4.2 'Between GCC and LLVM' accumulators (at one level)."""

    gcc_misses_llvm_catches: int = 0
    llvm_misses_gcc_catches: int = 0
    gcc_primary: int = 0
    llvm_primary: int = 0


@dataclass
class CrossLevelStats:
    """§4.2 'Between optimization levels' accumulators (per family)."""

    missed_at_high: int = 0
    primary: int = 0


@dataclass
class ProgramOutcome:
    seed: int
    marker_count: int
    dead_count: int
    analysis: ProgramAnalysis


@dataclass
class CampaignResult:
    seeds: list[int] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)
    total_markers: int = 0
    total_dead: int = 0
    total_alive: int = 0
    by_level: dict[tuple[str, str], LevelStats] = field(default_factory=dict)
    cross_compiler: CrossCompilerStats = field(default_factory=CrossCompilerStats)
    cross_level: dict[str, CrossLevelStats] = field(default_factory=dict)
    #: per-seed interesting finds, for triage/reduction follow-ups
    findings: list[dict] = field(default_factory=list)
    soundness_violations: list[dict] = field(default_factory=list)
    #: full per-seed analyses, populated only with ``keep_analyses``
    analyses: list[ProgramOutcome] = field(default_factory=list)
    #: contained per-seed crashes, in seed order (fault isolation:
    #: a crash never aborts the campaign)
    crashes: list[CrashEnvelope] = field(default_factory=list)
    #: seeds skipped because they exceeded the per-seed wall-clock
    #: budget (``seed_budget``)
    budget_exceeded: list[int] = field(default_factory=list)
    #: marker-yield accumulators per program shape
    #: (:func:`repro.core.shapes.program_shape`)
    by_shape: dict[str, ShapeStats] = field(default_factory=dict)
    #: reduced-case fingerprint per finding index (None where the
    #: reduction fell back), present only when a reduction queue ran
    reduced_fingerprints: dict[int, str | None] | None = None
    #: :class:`~repro.core.reduction.ReductionCampaignStats` rollup,
    #: present only when a reduction queue ran
    reduction_stats: object | None = None

    @property
    def dead_pct(self) -> float:
        total = self.total_markers
        return 100.0 * self.total_dead / total if total else 0.0

    @property
    def crash_buckets(self) -> dict[str, list[CrashEnvelope]]:
        """Crashes deduplicated by bucket key (exception type + deepest
        in-repo frame), deterministically ordered."""
        return bucket_crashes(self.crashes)

    def level_stats(self, family: str, level: str) -> LevelStats:
        return self.by_level.setdefault((family, level), LevelStats())


@dataclass
class SeedEnvelope:
    """Everything one fresh analysis says about one seed, picklable so
    pool workers can ship it to the parent."""

    seed: int
    #: the resilient per-seed verdict (outcome / skip / crash / budget)
    report: SeedReport
    #: raw MetricsRegistry.dump() snapshot of a pool worker (None
    #: in-process, where metrics land in the parent registry directly)
    metrics: dict[str, Any] | None = None
    #: pool-worker span dicts, completion order (None in-process, where
    #: spans nest under the live tracer directly)
    spans: list[dict[str, Any]] | None = None
    #: recorded ``(event type, attrs)`` pairs for this seed, emitted by
    #: the seed loop in seed order (None when the event bus is off)
    events: list[tuple[str, dict[str, Any]]] | None = None
    #: new artifact-store entries this seed discovered
    #: (:class:`~repro.store.StoreDelta`, committed by the seed loop)
    delta: Any = None


def analyze_envelope(
    seed: int,
    config: CampaignConfig,
    specs: list[CompilerSpec],
    metrics: MetricsRegistry | None,
    session=None,
    record_events: bool = False,
) -> SeedEnvelope:
    """Analyze one fresh seed under the current tracer (shared by the
    in-process source and the pool workers)."""
    start = time.perf_counter()
    with current_tracer().span("campaign.program", seed=seed) as span:
        report = analyze_one_resilient(
            seed, specs, config.version, config.generator_config,
            metrics=metrics,
            seed_budget=config.seed_budget, interp=config.interp,
            store=session,
        )
        span.set("skipped", report.outcome is None)
        if report.crash is not None:
            span.set("crashed", report.crash.bucket)
        if report.budget_exceeded:
            span.set("budget_exceeded", True)
    if metrics is not None:
        metrics.histogram("campaign.program_latency_ms").observe(
            (time.perf_counter() - start) * 1e3
        )
    return SeedEnvelope(
        seed, report,
        events=ev.seed_event_records(report) if record_events else None,
        delta=session.delta if session is not None and session.delta else None,
    )


def _local_envelopes(
    seeds: list[int],
    config: CampaignConfig,
    metrics: MetricsRegistry | None,
    events: EventBus | None,
    store,
) -> Iterator[SeedEnvelope]:
    """The ``jobs=1`` envelope source: one seed analyzed per pull, in
    this process, reading the store through the parent's connection."""
    specs = default_specs(config.version)
    for seed in seeds:
        session = store.session(metrics) if store is not None else None
        yield analyze_envelope(
            seed, config, specs, metrics, session, events is not None
        )


class CampaignCancelled(RuntimeError):
    """A campaign stopped at a seed boundary because its ``cancel``
    hook fired (service job timeout or drain).

    Finished seeds are already committed to the artifact store when
    this raises, so rerunning with the same store resumes exactly
    where the cancelled run stopped — the same contract as an
    interrupt.
    """

    def __init__(self, message: str, seeds_done: int = 0) -> None:
        super().__init__(message)
        self.seeds_done = seeds_done


def run_campaign(
    *,
    n_programs: int = 50,
    seed_base: int = 0,
    version: int | None = None,
    generator_config: GeneratorConfig | None = None,
    keep_analyses: bool = False,
    compare_level: str = "O3",
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    jobs: int = 1,
    seed_budget: float | None = None,
    events: EventBus | None = None,
    interp: str | None = None,
    window: int | None = None,
    reduction=None,
    store=None,
    cancel: Callable[[], bool] | None = None,
) -> CampaignResult:
    """Run the full marker campaign over ``n_programs`` seeds.

    The plain-data arguments become one :class:`CampaignConfig`; the
    rest are live objects the seed loop talks to.

    Observability hooks, all optional and overhead-free when unset:

    * ``metrics`` — accumulates per-spec compile-latency histograms,
      per-program analysis latency, throughput, and running
      missed/primary tallies per (family, level).
    * ``tracer`` — installed as the current tracer for the duration,
      so pipeline/interpreter spans nest under one ``campaign`` span.
    * ``events`` — an :class:`~repro.observability.events.EventBus`
      receiving the typed campaign event stream (campaign_start,
      seed_start, seed_done, finding, crash, budget_exceeded,
      campaign_end).  The stream is identical —
      modulo timestamps — at every ``jobs`` count: each fresh seed's
      events are recorded into its :class:`SeedEnvelope` and emitted
      in seed order.

    ``jobs`` picks the envelope source.  The default 1 analyzes each
    seed in-process; any higher count shards the seeds across a
    process pool (:mod:`repro.core.parallel`) and produces a
    :class:`CampaignResult` with identical contents — envelopes merge
    in seed order regardless of completion order — while worker
    metrics snapshots fold into ``metrics`` and worker spans re-parent
    under the campaign span.

    ``interp`` selects the ground-truth interpreter backend
    (``"bytecode"``/``"ast"``; ``None`` uses the process default,
    normally the bytecode VM — results are bit-identical either way).
    ``window`` bounds the parallel scheduler's in-flight shard window
    (default ``jobs * 3``); ignored at ``jobs=1``.  Like ``jobs``,
    neither knob changes campaign results, so neither is part of the
    run's :func:`config_fingerprint`.

    Fault isolation (:mod:`repro.core.resilience`): per-seed crashes
    are contained into ``result.crashes`` envelopes, and ``seed_budget``
    arms a cooperative wall-clock deadline per seed
    (``result.budget_exceeded``).

    ``reduction`` — a :class:`~repro.core.reduction.ReductionQueue`:
    each recorded finding is submitted the moment the differential
    layer surfaces it (reductions overlap the remaining seed
    analysis), and the queue drains — in finding order, so the event
    stream stays deterministic — before ``campaign_end``, leaving
    ``result.reduced_fingerprints`` and ``result.reduction_stats``.

    ``store`` — a :class:`~repro.store.ArtifactStore`: seeds already
    fully analyzed under this (version, generator_config) scope replay
    their recorded :class:`SeedReport` instead of re-running
    (``store.seeds_skipped``), emitting the exact events a fresh
    analysis would — a warm rerun is byte-identical to a cold one,
    modulo timestamps.  Fresh seeds read through the store's compile
    and ground-truth memos, and each one is committed back — its memo
    entries and its report in one transaction — before any event,
    metric or merge observes it.  The store is the resume mechanism:
    an interrupted campaign rerun with the same store replays the
    committed seeds and analyzes only the rest, reproducing the
    uninterrupted result.  Crashed and over-budget seeds are never
    stored (:func:`~repro.store.artifact.report_is_cacheable`), so a
    rerun analyzes them again: crashes and injected faults are
    deterministic and reproduce the same envelopes, and a real
    wall-clock overrun gets its retry.

    ``cancel`` — a zero-argument callable polled at every seed
    boundary; returning ``True`` raises :class:`CampaignCancelled`
    after the finished seeds have been committed, so a rerun with the
    same store resumes rather than restarts.  The campaign service
    uses this for per-job wall-clock timeouts and graceful drain.
    """
    if n_programs < 0:
        raise ValueError(f"n_programs must be >= 0, got {n_programs}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    config = CampaignConfig(
        n_programs=n_programs, seed_base=seed_base, version=version,
        generator_config=generator_config, compare_level=compare_level,
        seed_budget=seed_budget, interp=interp,
        keep_analyses=keep_analyses, jobs=jobs, window=window,
    )
    result = CampaignResult()
    result.cross_level = {family: CrossLevelStats() for family in FAMILIES}
    tracer = tracer if tracer is not None else current_tracer()
    start = time.perf_counter()
    store_scope: str | None = None
    stored_reports: dict[int, SeedReport] = {}
    if store is not None:
        from ..store import seed_scope_fingerprint

        if store.metrics is None:
            store.metrics = metrics
        store_scope = seed_scope_fingerprint(version, generator_config)
        stored_reports = store.load_seed_reports(
            store_scope, seed_base, seed_base + n_programs
        )
    fresh = [seed for seed in config.seeds if seed not in stored_reports]
    if jobs == 1:
        envelopes = _local_envelopes(fresh, config, metrics, events, store)
    else:
        from .parallel import pool_envelopes

        envelopes = pool_envelopes(
            fresh, config, metrics, tracer, events, store
        )
    if events is not None:
        # no jobs/window attrs: the stream must not betray scheduling
        events.emit(
            ev.CAMPAIGN_START, programs=n_programs, seed_base=seed_base,
            compare_level=compare_level,
        )

    with use_tracer(tracer), tracer.span(
        "campaign", programs=n_programs, seed_base=seed_base, jobs=jobs,
        window=window, interp=interp,
    ) as campaign_span:
        for seed in config.seeds:
            if cancel is not None and cancel():
                # finished seeds are committed; in-flight pool shards
                # die with the pool teardown
                raise CampaignCancelled(
                    f"campaign cancelled before seed {seed}",
                    seeds_done=seed - seed_base,
                )
            if seed in stored_reports:
                # warm replay: the exact events a fresh analysis
                # records, so the stream is byte-identical modulo
                # timestamps
                report = stored_reports[seed]
                if metrics is not None:
                    metrics.counter("store.seeds_skipped").inc()
                if events is not None:
                    events.emit_all(ev.seed_event_records(report))
            else:
                envelope = next(envelopes)
                if envelope.seed != seed:  # pragma: no cover - defensive
                    raise RuntimeError(
                        f"seed-order merge broke: expected {seed}, "
                        f"got {envelope.seed}"
                    )
                report = envelope.report
                # durable before anything observes it: an interrupt
                # raised by an event subscriber or the merge below
                # never loses a finished seed
                if store is not None:
                    store.commit_seed(store_scope, report, envelope.delta)
                if events is not None and envelope.events is not None:
                    events.emit_all(envelope.events)
                if metrics is not None and envelope.metrics is not None:
                    metrics.merge(envelope.metrics)
                if envelope.spans:
                    tracer.adopt_spans(
                        envelope.spans, parent_id=campaign_span.span_id
                    )
            _merge_report(result, report, config, metrics, events, reduction)
            if metrics is not None:
                _record_tallies(result, metrics, time.perf_counter() - start)
        # reductions overlapped the seed loop; collect them (in finding
        # order) before the campaign narrates its end
        drain_reduction(result, reduction, events, metrics)
        campaign_span.update(
            completed=len(result.seeds), skipped=len(result.skipped),
            crashed=len(result.crashes),
            budget_exceeded=len(result.budget_exceeded),
        )
        if events is not None:
            events.emit(ev.CAMPAIGN_END, **campaign_end_attrs(result))
    return result


def drain_reduction(
    result: CampaignResult,
    reduction,
    events: EventBus | None,
    metrics: MetricsRegistry | None,
) -> None:
    """Collect a campaign's reduction queue into the result (no-op
    without a queue).  Runs before ``campaign_end`` so the
    end-of-stream summary can report the reduced-finding tally."""
    if reduction is None:
        return
    fingerprints, stats = reduction.drain(
        events=events, metrics=metrics, crashes=result.crashes
    )
    result.reduced_fingerprints = fingerprints
    result.reduction_stats = stats


def campaign_end_attrs(result: CampaignResult) -> dict:
    """The ``campaign_end`` event attributes."""
    attrs = {
        "completed": len(result.seeds),
        "skipped": len(result.skipped),
        "crashed": len(result.crashes),
        "budget_exceeded": len(result.budget_exceeded),
        "total_markers": result.total_markers,
        "total_dead": result.total_dead,
        "findings": len(result.findings),
    }
    if result.reduction_stats is not None:
        attrs["findings_reduced"] = result.reduction_stats.reduced
    return attrs


def _merge_report(
    result: CampaignResult,
    report: SeedReport,
    config: CampaignConfig,
    metrics: MetricsRegistry | None,
    events: EventBus | None = None,
    reduction=None,
) -> None:
    """Fold one per-seed :class:`SeedReport` into the campaign result
    (fresh and stored seeds alike, so both count crashes/budget
    identically)."""
    if report.budget_exceeded:
        result.budget_exceeded.append(report.seed)
        if metrics is not None:
            metrics.counter("campaign.budget_exceeded").inc()
    elif report.crash is not None:
        result.crashes.append(report.crash)
        if metrics is not None:
            metrics.counter("campaign.crashes").inc()
    elif report.outcome is None:
        result.skipped.append(report.seed)
    else:
        result.seeds.append(report.seed)
        _accumulate(
            result, report.outcome, config.version, config.compare_level,
            events, reduction,
        )
        if config.keep_analyses:
            result.analyses.append(report.outcome)


def _record_tallies(
    result: CampaignResult, metrics: MetricsRegistry, elapsed: float
) -> None:
    """Mirror the running campaign accumulators into the registry."""
    done = (
        len(result.seeds) + len(result.skipped) + len(result.crashes)
        + len(result.budget_exceeded)
    )
    metrics.gauge("campaign.programs_analyzed").set(len(result.seeds))
    metrics.gauge("campaign.programs_skipped").set(len(result.skipped))
    metrics.gauge("campaign.crash_buckets").set(len(result.crash_buckets))
    metrics.gauge("campaign.programs_per_sec").set(
        done / elapsed if elapsed > 0 else 0.0
    )
    metrics.gauge("campaign.total_markers").set(result.total_markers)
    metrics.gauge("campaign.total_dead").set(result.total_dead)
    for (family, level), stats in result.by_level.items():
        metrics.gauge(f"campaign.missed/{family}-{level}").set(stats.missed)
        metrics.gauge(f"campaign.primary_missed/{family}-{level}").set(
            stats.primary_missed
        )


def analyze_one(
    seed: int,
    specs: list[CompilerSpec],
    version: int | None = None,
    generator_config: GeneratorConfig | None = None,
    metrics: MetricsRegistry | None = None,
) -> ProgramOutcome | None:
    """Generate + instrument + ground-truth + compile one seed.

    Returns None when the program is unusable (e.g. execution budget
    exceeded), mirroring how a real campaign would skip a timeout.
    """
    program = generate_program(seed, generator_config)
    instrumented = instrument_program(program)
    info = check_program(instrumented.program)
    try:
        truth = compute_ground_truth(instrumented, info=info)
    except StepLimitExceeded:
        return None
    analysis = analyze_markers(
        instrumented, specs, info=info, ground_truth=truth, metrics=metrics,
    )
    return ProgramOutcome(
        seed, len(instrumented.markers), len(truth.dead), analysis
    )


def _accumulate(
    result: CampaignResult,
    outcome: ProgramOutcome,
    version: int | None,
    compare_level: str,
    events: EventBus | None = None,
    reduction=None,
) -> None:
    analysis = outcome.analysis
    truth = analysis.ground_truth
    instrumented = analysis.instrumented
    result.total_markers += len(instrumented.markers)
    result.total_dead += len(truth.dead)
    result.total_alive += len(truth.alive)
    shape = program_shape(instrumented.program)
    shape_stats = result.by_shape.setdefault(shape, ShapeStats())
    shape_stats.programs += 1
    shape_stats.markers += len(instrumented.markers)
    shape_stats.dead += len(truth.dead)

    def record_finding(finding: dict) -> None:
        index = len(result.findings)
        result.findings.append(finding)
        shape_stats.findings += 1
        if events is not None:
            events.emit(ev.FINDING, shape=shape, **finding)
        if reduction is not None:
            # off the critical path: the queue reduces this finding in
            # a pool worker while the campaign analyzes further seeds
            reduction.submit(index, finding)

    graph = build_marker_graph(instrumented, truth.executed_functions())

    # The primary set is a pure function of the eliminated set (for a
    # fixed program/graph), and the cross-compiler/cross-level sections
    # below revisit the compare-level eliminated sets the by-level loop
    # already handled — and specs frequently coincide on eliminated
    # sets outright — so memoize per distinct set.
    primary_memo: dict[frozenset[str], frozenset[str]] = {}

    def primary_of(eliminated: frozenset[str]) -> frozenset[str]:
        cached = primary_memo.get(eliminated)
        if cached is None:
            cached = primary_memo[eliminated] = primary_missed_markers(
                instrumented, truth, eliminated, graph=graph
            )
        return cached

    for family in FAMILIES:
        for level in LEVELS:
            spec = CompilerSpec(family, level, version)
            missed = analysis.missed_vs_ideal(spec)
            eliminated = analysis.outcome(spec).eliminated
            primary = primary_of(eliminated)
            stats = result.level_stats(family, level)
            stats.dead_total += len(truth.dead)
            stats.missed += len(missed)
            stats.primary_missed += len(primary)
            if level == compare_level:
                shape_stats.missed += len(missed)
                shape_stats.primary += len(missed & primary)
            violations = analysis.soundness_violations(spec)
            if violations:
                result.soundness_violations.append(
                    {"seed": outcome.seed, "spec": str(spec), "markers": sorted(violations)}
                )

    # Cross-compiler at the comparison level.
    gcc_spec = CompilerSpec("gcclike", compare_level, version)
    llvm_spec = CompilerSpec("llvmlike", compare_level, version)
    gcc_misses = analysis.missed_vs(gcc_spec, llvm_spec)
    llvm_misses = analysis.missed_vs(llvm_spec, gcc_spec)
    result.cross_compiler.gcc_misses_llvm_catches += len(gcc_misses)
    result.cross_compiler.llvm_misses_gcc_catches += len(llvm_misses)
    gcc_primary = primary_of(analysis.outcome(gcc_spec).eliminated)
    llvm_primary = primary_of(analysis.outcome(llvm_spec).eliminated)
    result.cross_compiler.gcc_primary += len(gcc_misses & gcc_primary)
    result.cross_compiler.llvm_primary += len(llvm_misses & llvm_primary)
    if gcc_misses or llvm_misses:
        record_finding(
            {
                "seed": outcome.seed,
                "kind": "cross-compiler",
                "gcc_misses": sorted(gcc_misses),
                "llvm_misses": sorted(llvm_misses),
            }
        )

    # Cross-level within each family.
    for family in FAMILIES:
        seized = missed_between_levels(analysis, family, high=compare_level, version=version)
        if not seized:
            continue
        stats = result.cross_level[family]
        stats.missed_at_high += len(seized)
        spec = CompilerSpec(family, compare_level, version)
        primary = primary_of(analysis.outcome(spec).eliminated)
        stats.primary += len(seized & primary)
        record_finding(
            {
                "seed": outcome.seed,
                "kind": "cross-level",
                "family": family,
                "markers": sorted(seized),
            }
        )
