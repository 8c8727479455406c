"""Process-pool side of the campaign: the ``jobs > 1`` envelope source.

:func:`repro.core.corpus.run_campaign` runs one seed loop; at
``jobs > 1`` its fresh seeds come from :func:`pool_envelopes`.  Seeds
split into contiguous shards, each pool worker runs
:func:`repro.core.corpus.analyze_envelope` over its shard and sends
back a picklable :class:`~repro.core.corpus.SeedEnvelope` per seed
(per-seed report + raw metrics snapshot + serialized spans + recorded
events + store delta).

Scheduling is a streaming producer/consumer pipeline with a **bounded
in-flight window** (diopter's ``max_parallel_jobs`` pattern): at most
``window`` shards (default ``jobs * 3``) are submitted at a time, and
each completion both tops the window back up and lets the seed loop
drain whatever became contiguous.  Compared to submitting every shard
upfront this bounds parent-side memory (completed-but-unmerged work
can't pile up faster than the seed loop consumes it — backpressure),
keeps submission overhead off the critical path for huge campaigns,
and lets a slow seed stall only its own shard while later shards keep
flowing through the window.  Envelopes are yielded strictly **in seed
order** — out-of-order completions buffer until the gap closes — so
the result (including crash envelopes and their buckets) is identical
to the in-process run regardless of jobs count, window size, shard
size, or completion order.

Fault isolation at the pool boundary:

* per-seed crashes are contained *inside* the worker (they travel as
  :class:`~repro.core.resilience.CrashEnvelope`\\ s, never poisoning a
  shard);
* a **worker death** (``BrokenProcessPool``) dooms every in-flight
  shard: the source restarts the pool (``campaign.worker_restarts``)
  and resubmits the doomed shards **bisected**, so repeated deaths
  isolate the killer seed into a singleton shard, which is then
  recorded as a ``WorkerDeath`` crash while every innocent seed is
  re-analyzed.

The installed chaos :class:`~repro.testing.chaos.FaultPlan` (if any)
ships through the pool initializer so fault injection behaves
identically under ``fork`` and ``spawn``.  The module also hosts the
reduction engine's oracle pools.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from ..observability import events as ev
from ..observability.events import EventBus
from ..observability.export import spans_to_dicts
from ..observability.metrics import MetricsRegistry
from ..observability.tracer import Tracer, use_tracer
from ..testing import chaos
from .corpus import (
    CampaignConfig,
    SeedEnvelope,
    analyze_envelope,
    default_specs,
)
from .resilience import SeedReport, worker_death_envelope

#: seeds per pool task: small enough that every worker sees several
#: waves (load balance + live progress), large enough to amortize the
#: per-task pickle round-trip
MAX_SHARD_SIZE = 8

#: in-flight shards per job when no explicit window is given: enough
#: slack that workers never idle while the parent merges, small enough
#: that completed-but-unmerged envelopes stay bounded
WINDOW_FACTOR = 3


def shard_seeds(
    seeds: Sequence[int], jobs: int, shard_size: int | None = None
) -> list[list[int]]:
    """Split ``seeds`` into contiguous shards.

    The default size aims for ~4 waves per worker so stragglers don't
    serialize the tail, capped at :data:`MAX_SHARD_SIZE`.
    """
    if shard_size is None:
        per_wave = max(1, len(seeds) // (jobs * 4))
        shard_size = min(per_wave, MAX_SHARD_SIZE)
    shard_size = max(1, shard_size)
    return [
        list(seeds[i:i + shard_size])
        for i in range(0, len(seeds), shard_size)
    ]


# -- worker side -----------------------------------------------------------

_WORKER: dict[str, Any] = {}


def _init_worker(
    config: CampaignConfig,
    collect_metrics: bool,
    collect_spans: bool,
    collect_events: bool,
    fault_plan: chaos.FaultPlan | None,
    store_path: str | None,
) -> None:
    # ship the parent's fault plan so injection also works on
    # spawn-only platforms (fork inherits it anyway)
    chaos.install_plan(fault_plan)
    store = None
    if store_path is not None:
        from ..store import open_store

        # read-only snapshot; a failed open degrades this worker to
        # cold (new entries still ship back through the delta)
        store = open_store(store_path, read_only=True)
    _WORKER.update(
        config=config, specs=default_specs(config.version),
        collect_metrics=collect_metrics, collect_spans=collect_spans,
        collect_events=collect_events, store_path=store_path, store=store,
    )


def _analyze_shard(seeds: list[int]) -> list[SeedEnvelope]:
    return [_analyze_seed(seed) for seed in seeds]


def _analyze_seed(seed: int) -> SeedEnvelope:
    metrics = MetricsRegistry() if _WORKER["collect_metrics"] else None
    session = None
    if _WORKER["store_path"] is not None:
        from ..store import StoreSession

        session = StoreSession(_WORKER["store"], metrics)
    args = (
        seed, _WORKER["config"], _WORKER["specs"], metrics, session,
        _WORKER["collect_events"],
    )
    if _WORKER["collect_spans"]:
        tracer = Tracer()
        with use_tracer(tracer):
            envelope = analyze_envelope(*args)
        envelope.spans = spans_to_dicts(tracer)
    else:
        envelope = analyze_envelope(*args)
    if metrics is not None:
        envelope.metrics = metrics.dump()
    return envelope


# -- oracle workers (reduction engine) -------------------------------------


@dataclass(frozen=True)
class OraclePoolConfig:
    """Bootstrap for the reduction engine's oracle pools: the
    (picklable) interestingness predicate plus the parent's chaos
    plan, shipped once per pool through the initializer."""

    predicate: Any
    fault_plan: chaos.FaultPlan | None = None


_ORACLE: dict[str, Any] = {}


def _init_oracle_worker(config: OraclePoolConfig) -> None:
    _ORACLE["predicate"] = config.predicate
    chaos.install_plan(config.fault_plan)


def evaluate_candidates(
    items: list[tuple[str, str]],
) -> list[tuple[str, bool, bool]]:
    """Judge printed reduction candidates in an oracle worker.

    ``items`` is ``(memo key, printed text)`` pairs; the result is
    ``(memo key, verdict, errored)`` in the same order, produced by
    the exact evaluation path the in-process engine uses
    (:func:`repro.core.reduction.evaluate_printed`), so ``jobs`` can
    never change a verdict.
    """
    from .reduction import evaluate_printed

    predicate = _ORACLE["predicate"]
    return [
        (key, *evaluate_printed(predicate, text)) for key, text in items
    ]


# -- parent side -----------------------------------------------------------


def pool_context():
    """Prefer fork (cheap, inherits warm module state); fall back to
    the platform default where fork is unavailable.  Shared by the
    campaign scheduler and the reduction engine's oracle pools."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def pool_envelopes(
    seeds: list[int],
    config: CampaignConfig,
    metrics: MetricsRegistry | None,
    tracer: Tracer,
    events: EventBus | None,
    store,
) -> Iterator[SeedEnvelope]:
    """The ``jobs > 1`` envelope source: one envelope per seed of
    ``seeds``, in seed order.  Lazy — no pool starts before the first
    pull, so a campaign whose every seed replays never forks."""
    initargs = (
        config, metrics is not None, tracer.enabled, events is not None,
        chaos.current_plan(), store.path if store is not None else None,
    )

    def count_restart() -> None:
        if metrics is not None:
            metrics.counter("campaign.worker_restarts").inc()

    return _drain_envelopes(
        seeds, config.jobs, initargs, count_restart, config.window
    )


def _drain_envelopes(
    seeds: list[int],
    jobs: int,
    initargs: tuple,
    on_restart: Callable[[], None],
    window: int | None = None,
) -> Iterator[SeedEnvelope]:
    """Yield one envelope per seed, in seed order, surviving worker
    deaths.

    Fast path: shards stream through one shared pool with at most
    ``window`` of them in flight — each completion tops the window
    back up from the unsubmitted backlog, so the producer never runs
    unboundedly ahead of the campaign seed loop consuming this
    generator (backpressure).  A worker death marks that pool broken
    and dooms every *in-flight* shard (the executor cannot say which
    one killed it) — but only those: the unsubmitted backlog resumes
    streaming through a fresh shared pool afterwards.  Doomed shards
    enter a recovery queue processed **one shard per fresh pool** —
    there, a break definitively blames the shard: a multi-seed shard
    splits in half and re-queues, and a broken *singleton* shard names
    its seed the killer, yielding a synthesized ``WorkerDeath``
    envelope.  Innocent doomed seeds are simply re-analyzed.
    """
    ready: dict[int, SeedEnvelope] = {}
    next_pos = 0
    shards = shard_seeds(seeds, jobs)
    if window is None:
        window = jobs * WINDOW_FACTOR
    window = max(window, 1)
    backlog = list(reversed(shards))  # pop() takes the next seed-order shard
    while backlog:
        doomed: list[list[int]] = []
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(backlog)),
            mp_context=pool_context(),
            initializer=_init_worker,
            initargs=initargs,
        ) as pool:
            futures: dict[Any, list[int]] = {}
            while backlog and len(futures) < window:
                shard = backlog.pop()
                futures[pool.submit(_analyze_shard, shard)] = shard
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    shard = futures.pop(future)
                    try:
                        for envelope in future.result():
                            ready[envelope.seed] = envelope
                    except BrokenExecutor:
                        doomed.append(shard)
                while next_pos < len(seeds) and seeds[next_pos] in ready:
                    yield ready.pop(seeds[next_pos])
                    next_pos += 1
                if doomed:
                    # the pool is dead: collect every other in-flight
                    # shard (a future that finished before the break
                    # still returns its result here); the unsubmitted
                    # backlog is untouched and restarts the outer loop
                    for future in pending:
                        shard = futures.pop(future)
                        try:
                            for envelope in future.result():
                                ready[envelope.seed] = envelope
                        except BrokenExecutor:
                            doomed.append(shard)
                    pending = set()
                else:
                    # top the in-flight window back up
                    while backlog and len(futures) < window:
                        shard = backlog.pop()
                        future = pool.submit(_analyze_shard, shard)
                        futures[future] = shard
                        pending.add(future)
        # recovery: one doomed shard per fresh pool, so breakage is
        # attributable
        queue = sorted(doomed)
        while queue:
            shard = queue.pop(0)
            on_restart()
            envelopes = _run_shard_isolated(shard, initargs)
            if envelopes is None:  # this shard really does kill workers
                if len(shard) == 1:
                    seed = shard[0]
                    report = SeedReport(
                        seed=seed, crash=worker_death_envelope(seed)
                    )
                    ready[seed] = SeedEnvelope(
                        seed, report, events=ev.seed_event_records(report)
                    )
                else:
                    mid = (len(shard) + 1) // 2
                    queue[:0] = [shard[:mid], shard[mid:]]
            else:
                for envelope in envelopes:
                    ready[envelope.seed] = envelope
            while next_pos < len(seeds) and seeds[next_pos] in ready:
                yield ready.pop(seeds[next_pos])
                next_pos += 1
    if next_pos != len(seeds):  # pragma: no cover - defensive
        raise RuntimeError(
            f"lost envelopes for seeds {seeds[next_pos:]}"
        )


def _run_shard_isolated(
    shard: list[int], initargs: tuple
) -> list[SeedEnvelope] | None:
    """Run one doomed shard in its own single-worker pool; ``None``
    means the shard (specifically) killed its worker again."""
    with ProcessPoolExecutor(
        max_workers=1,
        mp_context=pool_context(),
        initializer=_init_worker,
        initargs=initargs,
    ) as pool:
        try:
            return pool.submit(_analyze_shard, shard).result()
        except BrokenExecutor:
            return None
