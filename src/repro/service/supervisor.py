"""The service's supervisor loop: worker threads, timeouts, retries.

Each worker thread claims jobs from the :class:`~.jobs.JobStore` and
hands them to a runner callable.  The robustness contract lives here:

* **Per-job wall-clock timeout** — a watchdog timer sets the job's
  cancel event; the campaign engine polls it at seed boundaries and
  raises :class:`~repro.core.corpus.CampaignCancelled` with all
  finished seeds already committed to the artifact store, so the
  retried job *resumes*.
  The ``worker_hang`` chaos site sits under an armed
  :func:`repro.budget.deadline` of the same length, so an injected
  busy-spin (a hung worker that never reaches a seed boundary)
  converts into a timeout too instead of wedging the thread.
* **Crash containment** — any other exception folds into the existing
  :class:`~repro.core.resilience.CrashEnvelope` machinery
  (``phase="serve"``) and is stored on the job row.
* **Bounded retries** — timeouts and crashes re-queue the job with
  exponential backoff (``backoff_base * 2**(attempts-1)``) until
  ``retry_cap`` attempts, then the job fails permanently.
* **Graceful drain** — :meth:`Supervisor.drain` stops claiming,
  finishes in-flight jobs, and joins the workers; queued jobs stay in
  SQLite for the next daemon to claim.

Worker liveness is a heartbeat timestamp per thread, surfaced through
``/healthz``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from .. import budget
from ..budget import SeedBudgetExceeded
from ..core.corpus import CampaignCancelled
from ..core.resilience import service_crash_envelope
from ..observability import events as ev
from ..observability.events import EventBus
from ..observability.metrics import MetricsRegistry
from ..testing import chaos
from .jobs import Job, JobStore

#: how often an idle worker re-polls the queue
_POLL_INTERVAL = 0.05

#: runner signature: (job, cancel event) -> JSON-serializable result
Runner = Callable[[Job, threading.Event], dict[str, Any]]


class Supervisor:
    """Run queued jobs on worker threads until stopped or drained."""

    def __init__(
        self,
        runner: Runner,
        store: JobStore,
        *,
        workers: int = 1,
        job_timeout: float | None = None,
        retry_cap: int = 3,
        backoff_base: float = 0.5,
        metrics: MetricsRegistry | None = None,
        events: EventBus | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if retry_cap < 1:
            raise ValueError(f"retry_cap must be >= 1, got {retry_cap}")
        self._runner = runner
        self._store = store
        self._workers = workers
        self.job_timeout = job_timeout
        self.retry_cap = retry_cap
        self.backoff_base = backoff_base
        self.metrics = metrics
        self.events = events
        self._threads: list[threading.Thread] = []
        self._draining = threading.Event()
        self._heartbeats: dict[str, float] = {}
        self._beat_lock = threading.Lock()
        self._in_flight = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        if self._threads:
            raise RuntimeError("supervisor already started")
        # jobs left running by a crashed/killed daemon resume as queued
        reset = self._store.reset_running()
        if reset and self.metrics is not None:
            self.metrics.counter("service.jobs_recovered").inc(reset)
        for index in range(self._workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"campaign-worker-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def drain(self, timeout: float | None = None) -> bool:
        """Stop claiming new jobs, finish in-flight ones, join the
        workers.  Returns ``True`` once every worker exited."""
        self._draining.set()
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        for thread in self._threads:
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
        return not any(t.is_alive() for t in self._threads)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # -- introspection -------------------------------------------------
    def heartbeats(self) -> dict[str, float]:
        """Per-worker seconds since the last loop iteration."""
        now = time.monotonic()
        with self._beat_lock:
            return {
                name: now - beat for name, beat in self._heartbeats.items()
            }

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def worker_count(self) -> int:
        return self._workers

    def workers_alive(self) -> int:
        return sum(1 for t in self._threads if t.is_alive())

    # -- the loop ------------------------------------------------------
    def _beat(self) -> None:
        with self._beat_lock:
            self._heartbeats[threading.current_thread().name] = (
                time.monotonic()
            )

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _emit(self, event_type: str, **attrs: Any) -> None:
        if self.events is not None:
            self.events.emit(event_type, **attrs)

    def _worker_loop(self) -> None:
        while not self._draining.is_set():
            self._beat()
            job = self._store.claim_next()
            if job is None:
                time.sleep(_POLL_INTERVAL)
                continue
            self._in_flight += 1
            try:
                self._run_one(job)
            finally:
                self._in_flight -= 1
        self._beat()

    def _run_one(self, job: Job) -> None:
        cancel = threading.Event()
        watchdog: threading.Timer | None = None
        if self.job_timeout is not None:
            watchdog = threading.Timer(self.job_timeout, cancel.set)
            watchdog.daemon = True
            watchdog.start()
        self._emit(
            ev.JOB_STARTED, job=job.job_id, job_type=job.type,
            attempt=job.attempts,
        )
        try:
            # the hang drill: an injected spin here busy-waits like a
            # wedged worker; the armed deadline turns it into a timeout
            with budget.deadline(self.job_timeout):
                chaos.trigger("worker_hang")
            result = self._runner(job, cancel)
        except (CampaignCancelled, SeedBudgetExceeded) as error:
            self._retry(job, kind="timeout", message=str(error))
        except Exception as error:  # noqa: BLE001 - containment boundary
            envelope = service_crash_envelope(job.job_id, error)
            self._count("service.job_crashes")
            self._retry(job, kind="crash", error=envelope.to_dict())
        else:
            self._store.finish(job.job_id, result)
            self._count("service.jobs_done")
            self._emit(
                ev.JOB_DONE, job=job.job_id, job_type=job.type, **{
                    k: v for k, v in result.items()
                    if isinstance(v, (int, str, bool))
                },
            )
        finally:
            if watchdog is not None:
                watchdog.cancel()

    def _retry(
        self,
        job: Job,
        *,
        kind: str,
        message: str | None = None,
        error: dict[str, Any] | None = None,
    ) -> None:
        """Back off and re-queue, or fail permanently at the cap."""
        detail = error if error is not None else {
            "kind": kind, "message": message or kind,
        }
        detail.setdefault("kind", kind)
        next_attempt = job.attempts + 1
        if next_attempt >= self.retry_cap:
            self._store.fail(job.job_id, detail)
            self._count("service.jobs_failed")
            self._emit(
                ev.JOB_FAILED, job=job.job_id, kind=kind,
                attempts=next_attempt,
            )
            return
        delay = self.backoff_base * (2 ** job.attempts)
        self._store.requeue(job.job_id, delay=delay, error=detail)
        self._count("service.job_retries")
        self._emit(
            ev.JOB_RETRIED, job=job.job_id, kind=kind,
            attempt=next_attempt, delay=delay,
        )
