"""The campaign service: jobs in, lifecycle-tracked cases out.

:class:`CampaignService` owns a data directory::

    DATA/
      service.sqlite     jobs + run ledger + case lifecycle (one file)
      artifacts.sqlite   the content-addressed artifact store

and executes jobs through the existing engine: a job's seeds run
``run_campaign`` over the shared artifact store, then the findings
*fold* into the ledger's case lifecycle table (``found`` cases keyed
by structural fingerprint, optionally advanced to
``reduced``/``bisected`` when the job asks).

Determinism contract — drain-then-resume equals uninterrupted:

* finished seeds are committed to the artifact store before anything
  else observes them, so a retried or reset job replays them
  bit-identically (crashed and over-budget seeds are analyzed again);
* lifecycle folding is idempotent per ``(job, case)`` — the job id is
  the dedup key, so re-folding after a crash, drain, or mid-fold kill
  changes nothing;
* jobs fold in completion order, and with one worker completion order
  is submission order — the property tests pin the resulting table
  digest against an uninterrupted run.

Every mutation is crash-safe *at rest*: the job table, ledger, and
store are SQLite transactions.  Killing the daemon at any instant and
restarting resumes with nothing lost and nothing double-counted.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

from ..core.corpus import run_campaign
from ..generator import GeneratorConfig
from ..observability import events as ev
from ..observability.events import EventBus
from ..observability.ledger import RunLedger, finding_fingerprint
from ..observability.metrics import MetricsRegistry
from ..store import ArtifactStore
from ..testing import chaos
from .jobs import Job, JobStore
from .supervisor import Supervisor

SERVICE_DB = "service.sqlite"
ARTIFACTS_DB = "artifacts.sqlite"

#: payload keys every job type accepts
_COMMON_KEYS = {
    "config", "jobs", "seed_budget", "compare_level", "version",
    "reduce", "bisect",
}
_SEEDS_KEYS = _COMMON_KEYS | {"seeds"}
_CAMPAIGN_KEYS = _COMMON_KEYS | {"programs", "seed_base"}


def _contiguous_blocks(seeds: list[int]) -> list[tuple[int, int]]:
    """Sorted unique seeds → (base, count) runs the engine can sweep."""
    blocks: list[tuple[int, int]] = []
    for seed in sorted(set(seeds)):
        if blocks and seed == blocks[-1][0] + blocks[-1][1]:
            blocks[-1] = (blocks[-1][0], blocks[-1][1] + 1)
        else:
            blocks.append((seed, 1))
    return blocks


def validate_payload(job_type: str, payload: dict[str, Any]) -> dict[str, Any]:
    """Check one job payload, returning it normalized.  Raises
    ``ValueError`` with a client-presentable message."""
    if not isinstance(payload, dict):
        raise ValueError("payload must be a JSON object")
    allowed = _SEEDS_KEYS if job_type == "seeds" else _CAMPAIGN_KEYS
    unknown = set(payload) - allowed
    if unknown:
        raise ValueError(f"unknown payload keys: {sorted(unknown)}")
    if job_type == "seeds":
        seeds = payload.get("seeds")
        if (
            not isinstance(seeds, list)
            or not seeds
            or not all(isinstance(s, int) and s >= 0 for s in seeds)
        ):
            raise ValueError("'seeds' must be a non-empty list of ints >= 0")
        payload = dict(payload, seeds=sorted(set(seeds)))
    else:
        programs = payload.get("programs")
        if not isinstance(programs, int) or programs < 1:
            raise ValueError("'programs' must be an int >= 1")
        seed_base = payload.get("seed_base", 0)
        if not isinstance(seed_base, int) or seed_base < 0:
            raise ValueError("'seed_base' must be an int >= 0")
        payload = dict(payload, seed_base=seed_base)
    config = payload.get("config")
    if config is not None:
        if not isinstance(config, dict):
            raise ValueError("'config' must be a generator-config object")
        try:
            GeneratorConfig(**config)
        except TypeError as error:
            raise ValueError(f"bad generator config: {error}") from None
    jobs = payload.get("jobs", 1)
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError("'jobs' must be an int >= 1")
    return payload


class CampaignService:
    """Everything behind the HTTP API: queue, engine, lifecycle."""

    def __init__(
        self,
        data_dir: str,
        *,
        workers: int = 1,
        job_timeout: float | None = None,
        retry_cap: int = 3,
        backoff_base: float = 0.5,
        metrics: MetricsRegistry | None = None,
        events: EventBus | None = None,
    ) -> None:
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events
        self.started_at = time.time()
        self._last_commit = self.started_at
        self._ledger_lock = threading.Lock()
        self.jobs = JobStore(os.path.join(data_dir, SERVICE_DB))
        # ensure the lifecycle schema exists before workers race to it
        with self._ledger() as ledger:
            ledger.lifecycle_counts()
        self.supervisor = Supervisor(
            self._run_job,
            self.jobs,
            workers=workers,
            job_timeout=job_timeout,
            retry_cap=retry_cap,
            backoff_base=backoff_base,
            metrics=self.metrics,
            events=events,
        )

    # -- wiring --------------------------------------------------------
    def _ledger(self) -> RunLedger:
        """A fresh ledger connection (SQLite connections are
        single-thread; contention across them is busy-retried)."""
        return RunLedger(os.path.join(self.data_dir, SERVICE_DB))

    @property
    def artifacts_path(self) -> str:
        return os.path.join(self.data_dir, ARTIFACTS_DB)

    def start(self) -> None:
        self.supervisor.start()

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: refuse new submissions (the API checks
        :attr:`draining`), finish in-flight jobs, flush everything.
        The job store stays open so health endpoints answer truthfully
        until :meth:`close`."""
        drained = self.supervisor.drain(timeout)
        # the mid-drain-kill drill fires between the last in-flight job
        # and the final flush — the restart must lose nothing
        chaos.trigger("serve:drain")
        return drained

    def close(self) -> None:
        self.jobs.close()

    @property
    def draining(self) -> bool:
        return self.supervisor.draining

    # -- submission ----------------------------------------------------
    def submit(
        self, job_type: str, payload: dict[str, Any]
    ) -> tuple[Job, bool]:
        """Validate and enqueue (idempotent by content hash)."""
        if self.draining:
            raise ServiceDraining("service is draining; resubmit after "
                                  "restart")
        payload = validate_payload(job_type, payload)
        job, created = self.jobs.submit(job_type, payload)
        if created:
            self.metrics.counter("service.jobs_submitted").inc()
            if self.events is not None:
                self.events.emit(
                    ev.JOB_SUBMITTED, job=job.job_id, job_type=job_type,
                )
        return job, created

    # -- job execution (worker threads) --------------------------------
    def _run_job(
        self, job: Job, cancel: threading.Event
    ) -> dict[str, Any]:
        payload = job.payload
        if job.type == "seeds":
            blocks = _contiguous_blocks(payload["seeds"])
            total = len(payload["seeds"])
        else:
            blocks = [(payload["seed_base"], payload["programs"])]
            total = payload["programs"]
        config = (
            GeneratorConfig(**payload["config"])
            if payload.get("config") is not None
            else None
        )
        version = payload.get("version")
        compare_level = payload.get("compare_level", "O3")
        engine_jobs = payload.get("jobs", 1)
        summary = {
            "seeds": 0, "findings": 0, "crashes": 0, "skipped": 0,
            "cases_new": 0, "cases_advanced": 0, "total": total,
        }
        # one store connection per job execution: the ArtifactStore is
        # not thread-safe across jobs, but per-file write contention is
        # absorbed by the shared SQLite connection policy
        store = ArtifactStore(self.artifacts_path, metrics=self.metrics)
        started = time.perf_counter()
        try:
            for seed_base, count in blocks:
                reduction = self._reduction_queue(payload)
                result = run_campaign(
                    n_programs=count,
                    seed_base=seed_base,
                    version=version,
                    generator_config=config,
                    compare_level=compare_level,
                    metrics=self.metrics,
                    jobs=engine_jobs,
                    seed_budget=payload.get("seed_budget"),
                    interp=None,
                    reduction=reduction,
                    store=store if not store.disabled else None,
                    cancel=cancel.is_set,
                )
                summary["seeds"] += len(result.seeds)
                summary["findings"] += len(result.findings)
                summary["crashes"] += len(result.crashes)
                summary["skipped"] += len(result.skipped)
                new, advanced = self._fold_lifecycle(
                    job.job_id, result, config, compare_level, version,
                    bisect=bool(payload.get("bisect")),
                )
                summary["cases_new"] += new
                summary["cases_advanced"] += advanced
                if job.type == "campaign":
                    self._record_run(
                        result, payload, config, started, store,
                    )
        finally:
            store.close()
        self._last_commit = time.time()
        return summary

    def _reduction_queue(self, payload: dict[str, Any]):
        if not payload.get("reduce"):
            return None
        from ..core.reduction import ReductionQueue

        return ReductionQueue(
            compare_level=payload.get("compare_level", "O3"),
            version=payload.get("version"),
            generator_config=(
                GeneratorConfig(**payload["config"])
                if payload.get("config") is not None
                else None
            ),
        )

    def _record_run(
        self, result, payload, config, started, store
    ) -> None:
        with self._ledger_lock, self._ledger() as ledger:
            ledger.record_run(
                result,
                n_programs=payload["programs"],
                seed_base=payload["seed_base"],
                jobs=payload.get("jobs", 1),
                compare_level=payload.get("compare_level", "O3"),
                version=payload.get("version"),
                generator_config=config,
                metrics=self.metrics,
                wall_time=time.perf_counter() - started,
                reduce_findings=bool(payload.get("reduce")),
                store_used=not store.disabled,
            )

    def _fold_lifecycle(
        self,
        job_id: str,
        result,
        config,
        compare_level: str,
        version,
        *,
        bisect: bool = False,
    ) -> tuple[int, int]:
        """Fold one campaign result's findings into the case table.

        Idempotent per job: the ledger skips occurrence bumps for a
        job id it has already seen, and state transitions are
        forward-only no-ops on re-fold.
        """
        new_cases = 0
        advanced = 0
        reduced = result.reduced_fingerprints or {}
        with self._ledger_lock, self._ledger() as ledger:
            for index, finding in enumerate(result.findings):
                fingerprint = finding_fingerprint(
                    finding, config, compare_level, version,
                )
                canonical, created = ledger.record_case(
                    finding, fingerprint, job=job_id,
                )
                if created:
                    new_cases += 1
                    self.metrics.counter("service.cases_found").inc()
                    if self.events is not None:
                        self.events.emit(
                            ev.CASE_FOUND, case=canonical,
                            kind=finding["kind"], seed=finding["seed"],
                            job=job_id,
                        )
                reduced_fp = reduced.get(index)
                if reduced_fp is not None:
                    canonical, did = ledger.advance_case(
                        canonical, "reduced",
                        reduced_fingerprint=reduced_fp,
                    )
                    advanced += self._note_advance(
                        canonical, "reduced", did, job_id
                    )
                if bisect:
                    canonical, did = self._bisect_case(
                        ledger, canonical, finding, config, compare_level,
                    )
                    advanced += self._note_advance(
                        canonical, "bisected", did, job_id
                    )
        self._last_commit = time.time()
        return new_cases, advanced

    def _note_advance(
        self, case: str, state: str, did: bool, job_id: str
    ) -> int:
        if not did:
            return 0
        self.metrics.counter("service.cases_advanced").inc()
        if self.events is not None:
            self.events.emit(
                ev.CASE_ADVANCED, case=case, state=state, job=job_id,
            )
        return 1

    def _bisect_case(
        self, ledger, canonical, finding, config, compare_level
    ) -> tuple[str, bool]:
        """Best-effort version bisection of a cross-level finding
        (skipped silently when the finding shape doesn't apply)."""
        from ..core.bisect import bisect_marker_regression
        from ..core.markers import instrument_program
        from ..generator import generate_program

        if finding["kind"] != "cross-level" or not finding.get("markers"):
            return canonical, False
        case = ledger.case(canonical)
        if case is not None and case.state != "reduced":
            # bisection only advances already-reduced cases; found→
            # bisected would skip a lifecycle stage
            return canonical, False
        try:
            program = instrument_program(
                generate_program(finding["seed"], config)
            ).program
            outcome = bisect_marker_regression(
                program,
                finding["markers"][0],
                family=finding["family"],
                level=compare_level,
            )
        except Exception:  # noqa: BLE001 - bisection is best-effort
            self.metrics.counter("service.bisect_errors").inc()
            return canonical, False
        if outcome is None:
            return canonical, False
        return ledger.advance_case(
            canonical, "bisected", bisect={
                "family": outcome.family,
                "first_bad": outcome.first_bad,
                "component": outcome.component,
                "files": list(outcome.files),
                "steps": outcome.steps,
            },
        )

    # -- case queries / transitions ------------------------------------
    def lifecycle_counts(self) -> dict[str, int]:
        with self._ledger() as ledger:
            return ledger.lifecycle_counts()

    def cases(self, state: str | None = None) -> list[dict[str, Any]]:
        with self._ledger() as ledger:
            return [case.to_dict() for case in ledger.cases(state)]

    def case(self, fingerprint: str) -> dict[str, Any] | None:
        with self._ledger() as ledger:
            case = ledger.case(fingerprint)
            return case.to_dict() if case is not None else None

    def advance_case(self, fingerprint: str, state: str) -> dict[str, Any]:
        """Operator-driven transition (normally ``reported``)."""
        with self._ledger_lock, self._ledger() as ledger:
            canonical, did = ledger.advance_case(fingerprint, state)
            case = ledger.case(canonical)
        self._last_commit = time.time()
        if did:
            self.metrics.counter("service.cases_advanced").inc()
            if self.events is not None:
                self.events.emit(
                    ev.CASE_ADVANCED, case=canonical, state=state,
                    job="api",
                )
        assert case is not None
        return case.to_dict()

    # -- health --------------------------------------------------------
    def health(self) -> dict[str, Any]:
        counts = self.jobs.counts()
        beats = self.supervisor.heartbeats()
        return {
            "status": "draining" if self.draining else "ok",
            "uptime": time.time() - self.started_at,
            "queue_depth": self.jobs.queue_depth(),
            "jobs": counts,
            "in_flight": self.supervisor.in_flight,
            "workers_alive": self.supervisor.workers_alive(),
            "worker_heartbeat_age": (
                round(max(beats.values()), 3) if beats else None
            ),
            "last_commit_age": round(time.time() - self._last_commit, 3),
            "lifecycle": self.lifecycle_counts(),
            "lock_retries": (
                self.jobs.lock_retries
            ),
        }

    def ready(self) -> bool:
        """Readiness: accepting submissions and workers alive."""
        return (
            not self.draining
            and self.supervisor.workers_alive()
            == self.supervisor.worker_count
        )


class ServiceDraining(RuntimeError):
    """Submissions are refused while the service drains."""
