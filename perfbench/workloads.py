"""The benchmark's workloads, driven through the program's public entry
points (the ones ``dce-hunt campaign`` and ``dce-hunt reduce`` use).

Each workload is a closed loop in one process over a fixed seed range.
``setup()`` is everything from process start to the first timed
operation; ``unit()`` is one timed repetition of the workload and
returns a :class:`Unit`; correctness failures are tallied as the units
run (crash envelopes, seeds over budget, soundness violations, warm
results that differ from their cold pass, reduced programs that no
longer satisfy their predicate, oracle errors).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field

from repro.core.corpus import run_campaign
from repro.core.markers import instrument_program
from repro.core.reduction import (
    MissedMarkerPredicate,
    evaluate_printed,
    reduce_finding,
    reduction_targets,
)
from repro.generator import GeneratorConfig, generate_program
from repro.lang import print_program
from repro.observability.events import EventBus, JsonlEventWriter
from repro.observability.ledger import RunLedger
from repro.observability.metrics import MetricsRegistry
from repro.store import open_store

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


@dataclass
class Unit:
    """One timed repetition: wall seconds of its campaign and of its
    reduction (0 when it has none), and what they processed."""

    campaign_s: float
    seeds: int
    findings: int
    reduce_s: float = 0.0
    reduced: int = 0
    #: deterministic per-unit counts (reduction statistics)
    counts: dict = field(default_factory=dict)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.problems.append(why)


def split_ranges(
    base: int, n: int, seed: int, jobs: int
) -> list[tuple[int, int]]:
    """The fixed range ``[base, base+n)`` as two campaigns split at a
    ``seed``-chosen point, later half first: ``seed`` changes the order
    the programs run in, never which programs run.  A parallel campaign
    runs as one: splitting it would change how well its pool is used."""
    if n < 2 or jobs > 1:
        return [(base, n)]
    k = 1 + seed % (n - 1)
    return [(base + k, n - k), (base, k)]


def campaign_failures(result) -> tuple[int, list[str]]:
    """Seeds that failed: crash envelopes, budget blowups, and seeds
    with an executed marker eliminated (unsound against the
    interpreter's ground truth)."""
    unsound = {v["seed"] for v in result.soundness_violations}
    problems = [f"crash seed {c.seed}: {c.bucket}" for c in result.crashes]
    problems += [f"over budget seed {s}" for s in result.budget_exceeded]
    problems += [f"soundness violation seed {s}" for s in sorted(unsound)]
    return len(problems), problems


def campaign_digest(results) -> str:
    """Digest of the by-level stats, cross stats and findings of one or
    more campaigns that together cover a seed range."""
    by_level: dict[str, list[int]] = {}
    cross_level: dict[str, list[int]] = {}
    cross = [0, 0, 0, 0]
    findings = []
    for result in results:
        for (family, level), stats in result.by_level.items():
            row = by_level.setdefault(f"{family}-{level}", [0, 0, 0])
            row[0] += stats.dead_total
            row[1] += stats.missed
            row[2] += stats.primary_missed
        cc = result.cross_compiler
        for i, value in enumerate((
            cc.gcc_misses_llvm_catches, cc.llvm_misses_gcc_catches,
            cc.gcc_primary, cc.llvm_primary,
        )):
            cross[i] += value
        for family, stats in result.cross_level.items():
            row = cross_level.setdefault(family, [0, 0])
            row[0] += stats.missed_at_high
            row[1] += stats.primary
        findings += [json.dumps(f, sort_keys=True) for f in result.findings]
    payload = {
        "by_level": dict(sorted(by_level.items())),
        "cross_compiler": cross,
        "cross_level": dict(sorted(cross_level.items())),
        "findings": sorted(findings),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


class Workload:
    """A fixed seed range run through one entry point.

    ``workdir`` holds every file the workload writes; ``seed`` orders
    the range; ``jobs`` overrides the spec (the traced run uses 1).
    """

    name = ""

    def __init__(
        self, spec: dict, workdir: str, seed: int, *, heldout: bool = False,
        jobs: int | None = None, size: dict | None = None,
    ) -> None:
        self.spec = spec
        entry = spec["workloads"][self.name]
        chosen = size or entry["heldout" if heldout else "default"]
        self.base = chosen["base"]
        self.n = chosen["seeds"]
        self.jobs = jobs if jobs is not None else entry["jobs"]
        self.config = (
            None if entry["config"] == "default"
            else GeneratorConfig(**spec["small_config"])
        )
        self.workdir = workdir
        self.seed = seed
        self.tally = Tally()
        self.metrics: MetricsRegistry | None = None
        self._digest: str | None = None
        self._files = 0

    def _path(self, stem: str) -> str:
        self._files += 1
        return os.path.join(
            self.workdir, f"{self.name}-{os.getpid()}-{self._files}-{stem}"
        )

    def prerequisite(self) -> None:
        """State that exists before the workload starts (untimed)."""

    def setup(self) -> None:
        """Everything before the first timed operation (setup_s)."""

    def prepare(self) -> None:
        """Untimed preparation before each unit."""

    def unit(self) -> Unit:
        raise NotImplementedError

    def verify(self) -> None:
        """Untimed correctness checks after the last unit."""

    def close(self) -> None:
        """Release what setup opened."""

    def counter(self, name: str) -> int:
        """A counter of the workload's metrics registry (0 without one)."""
        if self.metrics is None:
            return 0
        return int(self.metrics.to_dict().get(name, {}).get("value", 0))

    def _check_repeat(self, digest: str, seeds: int) -> None:
        """Every repetition of the same range must give the same result."""
        if self._digest is None:
            self._digest = digest
        elif digest != self._digest:
            self.tally.fail(seeds, "repetition differs from the first")

    def _campaign(self, base: int, n: int, **kwargs):
        result = run_campaign(
            n_programs=n, seed_base=base, generator_config=self.config,
            jobs=self.jobs, **kwargs,
        )
        failed, problems = campaign_failures(result)
        self.tally.attempted += n
        self.tally.failed += failed
        self.tally.problems += problems
        return result


class CampaignCold(Workload):
    """``dce-hunt campaign`` with no store, events or ledger."""

    name = "campaign_cold"

    def unit(self) -> Unit:
        start = time.perf_counter()
        results = [
            self._campaign(base, n)
            for base, n in split_ranges(self.base, self.n, self.seed, self.jobs)
        ]
        wall = time.perf_counter() - start
        self._check_repeat(campaign_digest(results), self.n)
        return Unit(wall, self.n, sum(len(r.findings) for r in results))


class _StoreCampaign(Workload):
    """A campaign run the way ``campaign --store --events-out
    --ledger`` runs it: one metrics registry, a JSONL event stream, and
    a ledger row per campaign."""

    def _open(self, store_path: str) -> None:
        self.metrics = MetricsRegistry()
        self.store = open_store(store_path, metrics=self.metrics)
        if self.store is None:
            raise RuntimeError(f"cannot open store {store_path}")
        self.events = EventBus()
        self.writer = JsonlEventWriter(self._path("events.jsonl"))
        self.events.subscribe(self.writer)
        self.ledger = RunLedger(self._path("ledger.sqlite"))

    def close(self) -> None:
        if getattr(self, "store", None) is None:
            return
        self.writer.close()
        self.ledger.close()
        self.store.close()
        self.store = None

    def _recorded_pass(self) -> tuple[float, list]:
        """Run the range (split by ``seed``) into the store, recording
        each campaign in the ledger; returns (wall seconds, results)."""
        start = time.perf_counter()
        results = []
        for base, n in split_ranges(self.base, self.n, self.seed, self.jobs):
            started_at = time.time()
            began = time.perf_counter()
            result = self._campaign(
                base, n, metrics=self.metrics, events=self.events,
                store=self.store,
            )
            self.ledger.record_run(
                result, n_programs=n, seed_base=base, jobs=self.jobs,
                generator_config=self.config, metrics=self.metrics,
                wall_time=time.perf_counter() - began,
                started_at=started_at, store_used=True,
            )
            results.append(result)
        wall = time.perf_counter() - start
        if self.store.errors or self.store.disabled:
            self.tally.fail(self.n, f"store errors: {self.store.errors}")
        return wall, results


class CampaignStore(_StoreCampaign):
    """Cold pass into a fresh store, with events and ledger."""

    name = "campaign_store"

    def setup(self) -> None:
        self._open(self._path("store.sqlite"))
        self._used = False

    def prepare(self) -> None:
        if self._used:  # each cold pass needs a fresh store
            self.close()
            self.setup()
        self._used = True

    def unit(self) -> Unit:
        wall, results = self._recorded_pass()
        self._check_repeat(campaign_digest(results), self.n)
        return Unit(wall, self.n, sum(len(r.findings) for r in results))


class StoreWarm(_StoreCampaign):
    """Rerun of a campaign whose every seed is already in the store."""

    name = "store_warm"

    def _store_path(self) -> str:
        return os.path.join(self.workdir, f"{self.name}-prebuilt.sqlite")

    def prerequisite(self) -> None:
        """The earlier cold campaign that filled the store."""
        store = open_store(self._store_path())
        try:
            result = run_campaign(
                n_programs=self.n, seed_base=self.base,
                generator_config=self.config, jobs=self.jobs, store=store,
            )
        finally:
            store.close()
        failed, problems = campaign_failures(result)
        self.tally.fail(failed, "; ".join(problems))
        self._digest = campaign_digest([result])

    def setup(self) -> None:
        self._open(self._store_path())

    def unit(self) -> Unit:
        skipped = self.counter("store.seeds_skipped")
        wall, results = self._recorded_pass()
        replayed = self.counter("store.seeds_skipped") - skipped
        if replayed != self.n:
            self.tally.fail(
                self.n - replayed, f"only {replayed}/{self.n} seeds replayed"
            )
        self._check_repeat(campaign_digest(results), self.n)
        return Unit(wall, self.n, sum(len(r.findings) for r in results))


class ReduceFinding(Workload):
    """Surface the range's findings, then reduce each one (jobs=1,
    fixed oracle-call budget) the way the campaign's reduction queue
    does: regenerate the program, ``reduce_finding`` it."""

    name = "reduce_finding"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.budget = self.spec["workloads"][self.name]["max_oracle_calls"]
        self._reduced: list = []

    def unit(self) -> Unit:
        start = time.perf_counter()
        result = self._campaign(self.base, self.n)
        surfaced = time.perf_counter()
        findings = list(result.findings)
        random.Random(self.seed).shuffle(findings)
        outcomes = []
        for finding in findings:
            program = instrument_program(
                generate_program(finding["seed"], self.config)
            ).program
            outcomes.append(reduce_finding(
                finding, program, jobs=self.jobs,
                max_oracle_calls=self.budget,
            ))
        done = time.perf_counter()
        # each reduction is one operation; a range that surfaces
        # nothing to reduce is one failed operation
        self.tally.attempted += len(findings) or 1
        if not findings:
            self.tally.fail(1, "the seed range surfaced no finding")
        counts = {"oracle_calls": 0, "memo_hits": 0, "wasted": 0, "rounds": 0}
        fingerprints = []
        for finding, outcome in zip(findings, outcomes):
            if outcome is None:
                self.tally.fail(1, f"no reduction target held: {finding}")
                continue
            fingerprint, reduced = outcome
            fingerprints.append(f"{finding['seed']}:{fingerprint}")
            if reduced.oracle_errors:
                self.tally.fail(1, f"oracle errors seed {finding['seed']}")
            counts["oracle_calls"] += reduced.oracle_calls
            counts["memo_hits"] += reduced.oracle_cache_hits
            counts["wasted"] += reduced.speculative_wasted
            counts["rounds"] += reduced.rounds
        if not self._reduced:
            self._reduced = [
                (finding, outcome[1].program)
                for finding, outcome in zip(findings, outcomes)
                if outcome is not None
            ]
        self._check_repeat(
            hashlib.sha256(
                " ".join(sorted(fingerprints)).encode()
            ).hexdigest(),
            len(findings),
        )
        return Unit(
            surfaced - start, self.n, len(findings),
            reduce_s=done - surfaced, reduced=len(findings), counts=counts,
        )

    def verify(self) -> None:
        # the reduced programs are the same every repetition (the
        # repeat digest pins that), so the first unit's are judged
        for finding, program in self._reduced:
            if not self._still_interesting(finding, program):
                self.tally.fail(
                    1, f"reduced seed {finding['seed']} lost its marker"
                )

    def _still_interesting(self, finding: dict, reduced) -> bool:
        """Re-evaluate the predicate the reduction ran under — the first
        pairing that held on the original program — on the result, by
        the reducer's own evaluation path."""
        original = print_program(instrument_program(
            generate_program(finding["seed"], self.config)
        ).program)
        for marker, keeper, witness in reduction_targets(finding, "O3", None):
            predicate = MissedMarkerPredicate(marker, keeper, witness)
            if evaluate_printed(predicate, original)[0]:
                verdict, errored = evaluate_printed(
                    predicate, print_program(reduced)
                )
                return verdict and not errored
        return False


WORKLOADS = {
    cls.name: cls
    for cls in (CampaignCold, CampaignStore, StoreWarm, ReduceFinding)
}
