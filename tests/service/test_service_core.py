"""CampaignService integration: real (tiny) campaigns end to end.

Uses the calibrated small generator config — ~0.4s/seed — so each
test runs a handful of real seeds through the full engine: generate,
instrument, interpret, compile under both families, fold findings
into the case lifecycle.
"""

from __future__ import annotations

import time

import pytest

from repro.observability.events import EventBus
from repro.observability.ledger import RunLedger
from repro.service import CampaignService, ServiceDraining, validate_payload
from repro.testing.chaos import Fault, FaultPlan, clear_plan, install_plan

# seeds 0..9 of this config yield findings at a few seeds in ~4s total
SMALL_CONFIG = {
    "min_globals": 2, "max_globals": 4,
    "min_functions": 1, "max_functions": 2,
    "max_depth": 2, "min_block_stmts": 1, "max_block_stmts": 3,
    "max_loop_trip": 5,
}
SEEDS = list(range(10))


@pytest.fixture(autouse=True)
def _no_chaos_leak():
    yield
    clear_plan()


def start_service(tmp_path, **kwargs):
    service = CampaignService(str(tmp_path / "data"), **kwargs)
    service.start()
    return service


def wait_done(service, job_id, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = service.jobs.job(job_id)
        if job.status in ("done", "failed"):
            return job
        time.sleep(0.1)
    raise AssertionError(
        f"job still {service.jobs.job(job_id).status} after {timeout}s"
    )


class TestValidation:
    def test_seeds_payload_normalized(self):
        payload = validate_payload("seeds", {"seeds": [5, 1, 5, 3]})
        assert payload["seeds"] == [1, 3, 5]

    def test_seeds_must_be_ints(self):
        with pytest.raises(ValueError, match="seeds"):
            validate_payload("seeds", {"seeds": ["one"]})

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            validate_payload("seeds", {"seeds": []})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown payload keys"):
            validate_payload("seeds", {"seeds": [1], "bogus": True})

    def test_removed_incremental_key_rejected(self):
        for job_type, payload in (
            ("seeds", {"seeds": [1]}),
            ("campaign", {"programs": 2}),
        ):
            with pytest.raises(ValueError, match="unknown payload keys"):
                validate_payload(job_type, dict(payload, incremental=False))

    def test_campaign_needs_programs(self):
        with pytest.raises(ValueError, match="programs"):
            validate_payload("campaign", {"seed_base": 0})

    def test_bad_generator_config_rejected(self):
        with pytest.raises(ValueError, match="generator config"):
            validate_payload(
                "seeds", {"seeds": [1], "config": {"no_such_knob": 3}}
            )


class TestExecution:
    def test_seeds_job_finds_and_folds_cases(self, tmp_path):
        bus = EventBus()
        events = []
        bus.subscribe(lambda e: events.append(e))
        service = start_service(tmp_path, events=bus)
        try:
            job, created = service.submit(
                "seeds", {"seeds": SEEDS, "config": SMALL_CONFIG}
            )
            assert created
            done = wait_done(service, job.job_id)
            assert done.status == "done"
            assert done.result["seeds"] == len(SEEDS)
            assert done.result["findings"] > 0
            assert done.result["crashes"] == 0
            counts = service.lifecycle_counts()
            assert counts["found"] == done.result["cases_new"]
            # every case row remembers which job found it
            for case in service.cases():
                assert case["jobs"] == [job.job_id]
            types = [e.type for e in events]
            assert "job.submitted" in types
            assert "case.found" in types
            assert types[-1] == "job.done"
        finally:
            service.drain(timeout=10.0)

    def test_job_queued_with_incremental_key_still_runs(self, tmp_path):
        """Jobs queued before the key was removed run as usual: the run
        path never reads it."""
        service = start_service(tmp_path)
        try:
            job, _ = service.jobs.submit(
                "seeds",
                {"seeds": [1], "config": SMALL_CONFIG, "incremental": False},
            )
            done = wait_done(service, job.job_id)
            assert done.status == "done"
            assert done.result["seeds"] == 1
        finally:
            service.drain(timeout=10.0)

    def test_campaign_job_records_ledger_run(self, tmp_path):
        service = start_service(tmp_path)
        try:
            job, _ = service.submit(
                "campaign", {"programs": 6, "config": SMALL_CONFIG}
            )
            done = wait_done(service, job.job_id)
            assert done.status == "done"
            with RunLedger(service.jobs.path) as ledger:
                runs = ledger.runs()
                assert len(runs) == 1
                assert runs[0].programs == 6
        finally:
            service.drain(timeout=10.0)

    def test_noncontiguous_seeds_match_contiguous_findings(self, tmp_path):
        """A seeds job over {0..4} ∪ {7..9} behaves as two blocks."""
        service = start_service(tmp_path)
        try:
            job, _ = service.submit(
                "seeds",
                {"seeds": [0, 1, 2, 3, 4, 7, 8, 9],
                 "config": SMALL_CONFIG},
            )
            done = wait_done(service, job.job_id)
            assert done.status == "done"
            assert done.result["seeds"] == 8
            seen = {
                seed
                for case in service.cases()
                for seed in case["seeds"]
            }
            assert seen <= {0, 1, 2, 3, 4, 7, 8, 9}
            assert 5 not in seen and 6 not in seen
        finally:
            service.drain(timeout=10.0)

    def test_resubmission_during_run_is_idempotent(self, tmp_path):
        service = start_service(tmp_path)
        try:
            payload = {"seeds": SEEDS, "config": SMALL_CONFIG}
            job, created = service.submit("seeds", payload)
            again, created2 = service.submit("seeds", payload)
            assert created and not created2
            assert again.job_id == job.job_id
            wait_done(service, job.job_id)
            assert service.jobs.counts()["done"] == 1
        finally:
            service.drain(timeout=10.0)


class TestStoreWriteFault:
    def test_store_fault_degrades_but_job_completes(self, tmp_path):
        """An injected store-write fault must not fail the job: the
        store degrades to cold (PR 9 contract), ``store.errors`` bumps,
        findings still fold into the lifecycle."""
        install_plan(FaultPlan((Fault("store_write", "raise"),)))
        service = start_service(tmp_path)
        try:
            job, _ = service.submit(
                "seeds", {"seeds": SEEDS, "config": SMALL_CONFIG}
            )
            done = wait_done(service, job.job_id)
            assert done.status == "done"
            assert done.result["findings"] > 0
            assert service.lifecycle_counts()["found"] > 0
            snapshot = service.metrics.to_dict()
            assert snapshot["store.errors"]["value"] >= 1
        finally:
            service.drain(timeout=10.0)


class TestDrain:
    def test_drain_refuses_submissions(self, tmp_path):
        service = start_service(tmp_path)
        service.drain(timeout=10.0)
        with pytest.raises(ServiceDraining):
            service.submit("seeds", {"seeds": [1]})

    def test_drained_queue_survives_restart(self, tmp_path):
        """Jobs queued at drain time are claimed by the next daemon
        and the final lifecycle equals an uninterrupted run."""
        first = CampaignService(str(tmp_path / "data"))
        # never started: the job stays queued, as if drained under load
        job, _ = first.submit(
            "seeds", {"seeds": SEEDS, "config": SMALL_CONFIG}
        )
        first.drain(timeout=5.0)

        second = CampaignService(str(tmp_path / "data"))
        second.start()
        try:
            done = wait_done(second, job.job_id)
            assert done.status == "done"
            assert done.result["findings"] > 0
        finally:
            second.drain(timeout=10.0)

        # control: the same job in a fresh service, uninterrupted
        control = CampaignService(str(tmp_path / "control"))
        control.start()
        try:
            cjob, _ = control.submit(
                "seeds", {"seeds": SEEDS, "config": SMALL_CONFIG}
            )
            wait_done(control, cjob.job_id)
        finally:
            control.drain(timeout=10.0)
        with RunLedger(second.jobs.path) as a, \
                RunLedger(control.jobs.path) as b:
            assert a.lifecycle_digest() == b.lifecycle_digest()


class TestHealth:
    def test_health_shape(self, tmp_path):
        service = start_service(tmp_path, workers=2)
        try:
            health = service.health()
            assert health["status"] == "ok"
            assert health["workers_alive"] == 2
            assert health["queue_depth"] == 0
            assert set(health["lifecycle"]) == {
                "found", "reduced", "bisected", "reported",
            }
            assert health["last_commit_age"] >= 0
            assert service.ready()
        finally:
            service.drain(timeout=10.0)
        assert not service.ready()
        assert service.health()["status"] == "draining"
