"""Durable job queue for the campaign service.

One SQLite table of jobs, each a JSON payload describing work for the
existing campaign engine: a ``seeds`` job analyzes an explicit seed
list, a ``campaign`` job runs a full ``run_campaign`` sweep (and
records a ledger run row).  The table *is* the queue: the daemon owns
no in-memory state that matters, so killing it at any instant loses
nothing — queued jobs are claimed again after restart, running jobs
are reset to queued (seeds they finished are in the artifact store,
so the re-run is a resume, not a restart).

Idempotent submission by content hash: a job's id is the sha256 of its
canonical payload, so re-POSTing the same request returns the existing
job instead of enqueueing a duplicate.  Re-submitting a *failed* job
re-queues it with a fresh retry budget (that is the operator's "try
again" knob).

The connection is shared across the daemon's threads behind one lock
(SQLite serializes writers anyway); cross-*process* contention — a CLI
``cases``/``report`` against a live service — is absorbed by the
bounded busy-retry helper shared with the artifact store.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Any

from ..store.sqlite import connect, retry_locked

JOB_TYPES = ("seeds", "campaign")
JOB_STATUSES = ("queued", "running", "done", "failed")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id TEXT PRIMARY KEY,
    ordinal INTEGER NOT NULL,
    type TEXT NOT NULL,
    payload_json TEXT NOT NULL,
    status TEXT NOT NULL,
    attempts INTEGER NOT NULL,
    submitted_at REAL NOT NULL,
    updated_at REAL NOT NULL,
    not_before REAL NOT NULL,
    error_json TEXT,
    result_json TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_status ON jobs(status, ordinal);
"""


def job_id_for(job_type: str, payload: dict[str, Any]) -> str:
    """Content hash of one job request (the idempotency key)."""
    canonical = json.dumps(
        {"type": job_type, "payload": payload}, sort_keys=True
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class Job:
    """One queued/running/finished unit of service work."""

    job_id: str
    ordinal: int
    type: str
    payload: dict[str, Any]
    status: str
    attempts: int
    submitted_at: float
    updated_at: float
    #: earliest wall-clock time a retry may be claimed (backoff)
    not_before: float
    error: dict[str, Any] | None = None
    result: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "type": self.type,
            "payload": self.payload,
            "status": self.status,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "updated_at": self.updated_at,
            "not_before": self.not_before,
            "error": self.error,
            "result": self.result,
        }


class JobStore:
    """SQLite-backed job queue (one file shared with the run ledger)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.lock_retries = 0
        self._lock = threading.RLock()
        # one connection for all daemon threads, serialized by _lock
        self._conn = connect(path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._write(lambda: self._conn.executescript(_SCHEMA))

    # -- plumbing ------------------------------------------------------
    def _write(self, operation):
        """One serialized, busy-retried write transaction."""

        def _txn():
            with self._conn:
                return operation()

        with self._lock:
            return retry_locked(_txn, on_retry=self._note_lock_retry)

    def _note_lock_retry(self, attempt: int) -> None:
        self.lock_retries += 1

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- submission ----------------------------------------------------
    def submit(
        self,
        job_type: str,
        payload: dict[str, Any],
        now: float | None = None,
    ) -> tuple[Job, bool]:
        """Enqueue one job; idempotent on content hash.

        Returns ``(job, created)``.  An existing queued/running/done
        job is returned untouched; an existing *failed* job is
        re-queued with a fresh retry budget.
        """
        if job_type not in JOB_TYPES:
            raise ValueError(f"unknown job type {job_type!r}; {JOB_TYPES}")
        stamp = time.time() if now is None else now
        job_id = job_id_for(job_type, payload)

        def _txn() -> tuple[Job, bool]:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
            if row is not None:
                if row["status"] == "failed":
                    self._conn.execute(
                        """UPDATE jobs SET status = 'queued', attempts = 0,
                            not_before = 0, error_json = NULL,
                            updated_at = ? WHERE job_id = ?""",
                        (stamp, job_id),
                    )
                    return self._get(job_id), False
                return self._row_to_job(row), False
            ordinal = self._conn.execute(
                "SELECT COALESCE(MAX(ordinal), 0) + 1 FROM jobs"
            ).fetchone()[0]
            self._conn.execute(
                """INSERT INTO jobs (
                    job_id, ordinal, type, payload_json, status, attempts,
                    submitted_at, updated_at, not_before
                ) VALUES (?, ?, ?, ?, 'queued', 0, ?, ?, 0)""",
                (
                    job_id,
                    ordinal,
                    job_type,
                    json.dumps(payload, sort_keys=True),
                    stamp,
                    stamp,
                ),
            )
            return self._get(job_id), True

        return self._write(_txn)

    # -- worker protocol -----------------------------------------------
    def claim_next(self, now: float | None = None) -> Job | None:
        """Atomically claim the oldest eligible queued job (FIFO by
        submission order; backoff delays respected)."""
        stamp = time.time() if now is None else now

        def _txn() -> Job | None:
            row = self._conn.execute(
                """SELECT * FROM jobs WHERE status = 'queued'
                    AND not_before <= ? ORDER BY ordinal LIMIT 1""",
                (stamp,),
            ).fetchone()
            if row is None:
                return None
            self._conn.execute(
                "UPDATE jobs SET status = 'running', updated_at = ?"
                " WHERE job_id = ?",
                (stamp, row["job_id"]),
            )
            return self._get(row["job_id"])

        return self._write(_txn)

    def finish(
        self, job_id: str, result: dict[str, Any], now: float | None = None
    ) -> None:
        stamp = time.time() if now is None else now
        self._write(
            lambda: self._conn.execute(
                """UPDATE jobs SET status = 'done', result_json = ?,
                    updated_at = ? WHERE job_id = ?""",
                (json.dumps(result, sort_keys=True), stamp, job_id),
            )
        )

    def requeue(
        self,
        job_id: str,
        *,
        delay: float,
        error: dict[str, Any] | None = None,
        now: float | None = None,
    ) -> int:
        """Put a crashed/timed-out job back in the queue after
        ``delay`` seconds; returns the new attempt count."""
        stamp = time.time() if now is None else now

        def _txn() -> int:
            self._conn.execute(
                """UPDATE jobs SET status = 'queued',
                    attempts = attempts + 1, not_before = ?,
                    error_json = ?, updated_at = ? WHERE job_id = ?""",
                (
                    stamp + delay,
                    json.dumps(error, sort_keys=True) if error else None,
                    stamp,
                    job_id,
                ),
            )
            return int(
                self._conn.execute(
                    "SELECT attempts FROM jobs WHERE job_id = ?", (job_id,)
                ).fetchone()[0]
            )

        return self._write(_txn)

    def fail(
        self,
        job_id: str,
        error: dict[str, Any] | None = None,
        now: float | None = None,
    ) -> None:
        """Retire a job that exhausted its retry cap."""
        stamp = time.time() if now is None else now
        self._write(
            lambda: self._conn.execute(
                """UPDATE jobs SET status = 'failed', error_json = ?,
                    updated_at = ? WHERE job_id = ?""",
                (
                    json.dumps(error, sort_keys=True) if error else None,
                    stamp,
                    job_id,
                ),
            )
        )

    def reset_running(self, now: float | None = None) -> int:
        """Crash recovery at daemon start: anything still marked
        running belongs to a dead process — back to the queue (attempt
        counts preserved; the seeds they finished replay from the
        artifact store, so the re-run is a resume)."""
        stamp = time.time() if now is None else now

        def _txn() -> int:
            cursor = self._conn.execute(
                """UPDATE jobs SET status = 'queued', not_before = 0,
                    updated_at = ? WHERE status = 'running'""",
                (stamp,),
            )
            return cursor.rowcount

        return self._write(_txn)

    # -- queries -------------------------------------------------------
    def _get(self, job_id: str) -> Job:
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"no job {job_id!r}")
        return self._row_to_job(row)

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            try:
                return self._get(job_id)
            except KeyError:
                return None

    def jobs(self, status: str | None = None) -> list[Job]:
        if status is not None and status not in JOB_STATUSES:
            raise ValueError(
                f"unknown status {status!r}; one of {JOB_STATUSES}"
            )
        with self._lock:
            if status is None:
                rows = self._conn.execute(
                    "SELECT * FROM jobs ORDER BY ordinal"
                ).fetchall()
            else:
                rows = self._conn.execute(
                    "SELECT * FROM jobs WHERE status = ? ORDER BY ordinal",
                    (status,),
                ).fetchall()
        return [self._row_to_job(r) for r in rows]

    def counts(self) -> dict[str, int]:
        tally = dict.fromkeys(JOB_STATUSES, 0)
        with self._lock:
            for status, count in self._conn.execute(
                "SELECT status, COUNT(*) FROM jobs GROUP BY status"
            ):
                tally[str(status)] = int(count)
        return tally

    def queue_depth(self) -> int:
        with self._lock:
            return int(
                self._conn.execute(
                    "SELECT COUNT(*) FROM jobs WHERE status IN"
                    " ('queued', 'running')"
                ).fetchone()[0]
            )

    @staticmethod
    def _row_to_job(row: sqlite3.Row) -> Job:
        return Job(
            job_id=row["job_id"],
            ordinal=row["ordinal"],
            type=row["type"],
            payload=json.loads(row["payload_json"]),
            status=row["status"],
            attempts=row["attempts"],
            submitted_at=row["submitted_at"],
            updated_at=row["updated_at"],
            not_before=row["not_before"],
            error=(
                json.loads(row["error_json"])
                if row["error_json"] is not None
                else None
            ),
            result=(
                json.loads(row["result_json"])
                if row["result_json"] is not None
                else None
            ),
        )
