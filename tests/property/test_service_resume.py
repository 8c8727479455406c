"""Drain-then-resume determinism (the service's core contract).

Property: interrupt a job after *any* prefix of its committed seeds,
restart the service, let the retried job resume from the artifact
store — the final case-lifecycle table is byte-identical (modulo
timestamps, which the digest excludes) to an uninterrupted run.
Pinned at engine parallelism ``jobs ∈ {1, 4}``.

The interruption is simulated at rest: the job runs to completion,
then the store's ``seed_analyses`` rows from the chosen seed on are
deleted and the job is put back as running — the state a kill that
landed before later seeds were committed leaves behind.
"""

from __future__ import annotations

import sqlite3
import time

import pytest

from repro.observability.ledger import RunLedger
from repro.service import CampaignService

SMALL_CONFIG = {
    "min_globals": 2, "max_globals": 4,
    "min_functions": 1, "max_functions": 2,
    "max_depth": 2, "min_block_stmts": 1, "max_block_stmts": 3,
    "max_loop_trip": 5,
}
SEEDS = list(range(10))


def wait_done(service, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = service.jobs.job(job_id)
        if job.status in ("done", "failed"):
            assert job.status == "done", job.to_dict()
            return job
        time.sleep(0.1)
    raise AssertionError("job never finished")


def run_uninterrupted(data_dir, engine_jobs):
    service = CampaignService(str(data_dir))
    service.start()
    try:
        job, _ = service.submit("seeds", {
            "seeds": SEEDS, "config": SMALL_CONFIG, "jobs": engine_jobs,
        })
        wait_done(service, job.job_id)
    finally:
        service.drain(timeout=15.0)
        service.close()
    with RunLedger(service.jobs.path) as ledger:
        return ledger.lifecycle_digest(), job.job_id


def run_with_prefix_interrupt(data_dir, engine_jobs, keep):
    """Run the job to completion once, drop every stored seed from
    ``keep`` on and reset the job as if the daemon died there, then
    let a fresh service resume it."""
    first = CampaignService(str(data_dir))
    first.start()
    try:
        job, _ = first.submit("seeds", {
            "seeds": SEEDS, "config": SMALL_CONFIG, "jobs": engine_jobs,
        })
        wait_done(first, job.job_id)
    finally:
        first.drain(timeout=15.0)
        first.close()

    # rewind the world to "killed after the first keep seeds were
    # committed": forget the later seeds and put the job back as
    # running (a crashed daemon's claim), what reset_running recovers
    conn = sqlite3.connect(first.artifacts_path)
    with conn:
        conn.execute("DELETE FROM seed_analyses WHERE seed >= ?", (keep,))
    conn.close()
    conn = sqlite3.connect(first.jobs.path)
    with conn:
        conn.execute(
            "UPDATE jobs SET status = 'running', result_json = NULL"
            " WHERE job_id = ?",
            (job.job_id,),
        )
    conn.close()

    second = CampaignService(str(data_dir))
    second.start()
    try:
        done = wait_done(second, job.job_id)
    finally:
        second.drain(timeout=15.0)
        second.close()
    assert done.result["seeds"] == len(SEEDS)
    with RunLedger(second.jobs.path) as ledger:
        return ledger.lifecycle_digest()


@pytest.mark.parametrize("engine_jobs", [1, 4])
def test_any_prefix_resume_matches_uninterrupted(tmp_path, engine_jobs):
    control, _ = run_uninterrupted(tmp_path / "control", engine_jobs)
    # every prefix would be 10+ full campaign runs; three probes —
    # empty store, mid-campaign, nearly-complete — cover the
    # boundary cases (full sweep lives in the e2e drill's kill test)
    for keep in (0, 5, 9):
        resumed = run_with_prefix_interrupt(
            tmp_path / f"prefix-{keep}", engine_jobs, keep
        )
        assert resumed == control, (
            f"lifecycle diverged after resume from stored "
            f"prefix {keep} (jobs={engine_jobs})"
        )


def test_refold_of_finished_job_changes_nothing(tmp_path):
    """The degenerate prefix: every stored seed survives, only the
    job status was lost.  The re-run replays every seed from the
    store and re-folds; the lifecycle digest must not move."""
    digest, job_id = run_uninterrupted(tmp_path / "data", 1)
    resumed = run_with_prefix_interrupt(
        tmp_path / "refold", 1, keep=10_000
    )
    assert resumed == digest
