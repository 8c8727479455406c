"""Persistent run ledger: campaigns and findings across runs, in SQLite.

Campaigns stop being fire-and-forget here: every ``campaign --ledger``
appends one **run row** (config fingerprint, outcome counters,
marker-yield per generator shape, pass-attribution rollup, crash
buckets, latency summaries) and upserts one **finding row** per
deduplicated finding — first seen / last seen / occurrence count
across runs — so yield trends and regressions are queryable long after
the process exits (``dce-hunt runs`` / ``show-run`` / ``report`` /
``compare``).

Finding deduplication
---------------------

Findings dedupe on a deterministic fingerprint.  Two modes:

* ``reduce=False`` (default): the *structural signature* — the
  finding kind plus the guarding-condition shapes
  (:func:`repro.core.triage.guarding_condition_shape`) of its missed
  markers on the regenerated program.  Cheap (no compilation), stable
  across runs and job counts, and merges findings whose markers sit
  behind structurally identical conditions.
* ``reduce=True``: the paper-faithful fingerprint — delta-reduce the
  case with :func:`repro.core.reduction.reduce_program` under the
  missed-marker predicate, lower the reduced program, and hash
  :func:`repro.ir.printer.fingerprint_module` of the result ("we
  deduplicate cases after reducing them", §4.3).  This recompiles per
  reduction candidate, so it is opt-in (``campaign --ledger
  --reduce-findings``); when the predicate cannot be established the
  fingerprint falls back to the structural signature.

Both fingerprints are pure functions of (seed, generator config,
compare level), so re-running the same campaign config yields the same
fingerprints and the occurrence counters accumulate across runs.

Case lifecycle
--------------

The ``cases`` table (PR 10) tracks each deduplicated finding through
the paper's triage pipeline: ``found → reduced → bisected → reported``.
Rows are keyed by the structural fingerprint at ``found`` time;
advancing to ``reduced`` attaches the paper-faithful reduced
fingerprint and *merges* cases that reduce to the same program (the
paper's "we deduplicate cases after reducing them").  Transitions are
forward-only and idempotent — re-folding the same job after a crash or
drain leaves the table unchanged, which is what makes the service's
drain-then-resume determinism contract testable
(:meth:`RunLedger.lifecycle_digest`).

Writes are wrapped in :func:`repro.store.retry.retry_locked`: several
service worker threads plus concurrent ``report`` invocations share
one ledger file, so bounded ``database is locked`` contention is
absorbed rather than raised.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
from dataclasses import asdict, dataclass, field
from typing import Any

from typing import TYPE_CHECKING

from ..store.retry import retry_locked
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # heavyweight sibling packages import this module's
    # package transitively, so runtime imports stay inside functions
    from ..generator import GeneratorConfig
    from ..lang import ast_nodes as ast

#: metrics counter prefix holding the per-pass marker-kill rollup
#: (written by the incremental engine)
ATTRIBUTION_PREFIX = "attribution.marker_kills/"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id INTEGER PRIMARY KEY AUTOINCREMENT,
    started_at REAL NOT NULL,
    wall_time REAL NOT NULL,
    config_fingerprint TEXT NOT NULL,
    programs INTEGER NOT NULL,
    seed_base INTEGER NOT NULL,
    jobs INTEGER NOT NULL,
    incremental INTEGER NOT NULL,
    compare_level TEXT NOT NULL,
    version INTEGER,
    completed INTEGER NOT NULL,
    skipped INTEGER NOT NULL,
    crashed INTEGER NOT NULL,
    budget_exceeded INTEGER NOT NULL,
    degraded INTEGER NOT NULL,
    total_markers INTEGER NOT NULL,
    total_dead INTEGER NOT NULL,
    total_alive INTEGER NOT NULL,
    findings INTEGER NOT NULL,
    soundness_violations INTEGER NOT NULL,
    by_level_json TEXT NOT NULL,
    cross_compiler_json TEXT NOT NULL,
    cross_level_json TEXT NOT NULL,
    shape_yield_json TEXT NOT NULL,
    pass_attribution_json TEXT NOT NULL,
    crash_buckets_json TEXT NOT NULL,
    metrics_json TEXT NOT NULL,
    interp TEXT,
    sched_window INTEGER,
    reduce_jobs INTEGER,
    reduction_oracle_calls INTEGER,
    reduction_speculative_wasted INTEGER,
    reduction_wall_time REAL,
    store_seeds_skipped INTEGER,
    store_compile_hits INTEGER,
    store_truth_hits INTEGER,
    store_oracle_hits INTEGER
);
CREATE INDEX IF NOT EXISTS idx_runs_config ON runs(config_fingerprint);
CREATE TABLE IF NOT EXISTS findings (
    fingerprint TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    detail_json TEXT NOT NULL,
    seeds_json TEXT NOT NULL,
    first_seen_run INTEGER NOT NULL,
    last_seen_run INTEGER NOT NULL,
    occurrences INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS run_findings (
    run_id INTEGER NOT NULL,
    fingerprint TEXT NOT NULL,
    seed INTEGER NOT NULL,
    kind TEXT NOT NULL,
    PRIMARY KEY (run_id, fingerprint, seed)
);
CREATE TABLE IF NOT EXISTS cases (
    fingerprint TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    state TEXT NOT NULL,
    seeds_json TEXT NOT NULL,
    detail_json TEXT NOT NULL,
    reduced_fingerprint TEXT,
    bisect_json TEXT,
    jobs_json TEXT NOT NULL,
    occurrences INTEGER NOT NULL,
    updated_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_cases_state ON cases(state);
CREATE TABLE IF NOT EXISTS case_aliases (
    fingerprint TEXT PRIMARY KEY,
    canonical TEXT NOT NULL
);
"""

#: the case lifecycle, in order; transitions only ever move right
CASE_STATES = ("found", "reduced", "bisected", "reported")


# -- finding fingerprints --------------------------------------------------


def _finding_markers(finding: dict) -> list[tuple[str, str]]:
    """``(side, marker)`` pairs for a finding dict, sorted."""
    if finding["kind"] == "cross-compiler":
        return sorted(
            [("gcclike", m) for m in finding.get("gcc_misses", ())]
            + [("llvmlike", m) for m in finding.get("llvm_misses", ())]
        )
    return sorted((finding.get("family", "?"), m) for m in finding["markers"])


def finding_fingerprint(
    finding: dict,
    generator_config: GeneratorConfig | None = None,
    compare_level: str = "O3",
    version: int | None = None,
    reduce: bool = False,
    program: ast.Program | None = None,
) -> str:
    """Deterministic dedup key for one campaign finding dict.

    ``program`` overrides the regenerated-from-seed instrumented
    program (tests exercise the reduce path on small fixtures this
    way).  See the module docstring for the two modes.
    """
    if program is None:
        from ..core.markers import instrument_program
        from ..generator import generate_program

        program = instrument_program(
            generate_program(finding["seed"], generator_config)
        ).program
    if reduce:
        fingerprint = _reduced_fingerprint(
            finding, program, compare_level, version
        )
        if fingerprint is not None:
            return fingerprint
    return _structural_fingerprint(finding, program)


def _structural_fingerprint(finding: dict, program: "ast.Program") -> str:
    from ..core.triage import guarding_condition_shape

    shapes = [
        (side, guarding_condition_shape(program, marker))
        for side, marker in _finding_markers(finding)
    ]
    payload = {
        "kind": finding["kind"],
        "family": finding.get("family"),
        "shapes": shapes,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


def _reduced_fingerprint(
    finding: dict,
    program: ast.Program,
    compare_level: str,
    version: int | None,
) -> str | None:
    """Reduce the case and hash the canonical IR of the result, or
    ``None`` when no (keeper, witness) pairing makes the initial
    program interesting (the structural signature then applies).
    Delegates to :func:`repro.core.reduction.reduce_finding` — the
    same engine a campaign's reduction queue runs off-path."""
    from ..core.reduction import reduce_finding

    outcome = reduce_finding(
        finding, program, compare_level=compare_level, version=version
    )
    return outcome[0] if outcome is not None else None


# -- row types -------------------------------------------------------------


@dataclass
class RunRow:
    """One campaign, as persisted (JSON columns parsed)."""

    run_id: int
    started_at: float
    wall_time: float
    config_fingerprint: str
    programs: int
    seed_base: int
    jobs: int
    incremental: bool
    compare_level: str
    version: int | None
    completed: int
    skipped: int
    crashed: int
    budget_exceeded: int
    degraded: int
    total_markers: int
    total_dead: int
    total_alive: int
    findings: int
    soundness_violations: int
    #: ground-truth interpreter backend ("bytecode"/"ast"); like
    #: ``jobs``/``window`` it is metadata, not part of the fingerprint
    interp: str | None = None
    #: parallel scheduler in-flight shard window (None = default)
    window: int | None = None
    #: reduction-queue pool size (None = no reduction queue ran)
    reduce_jobs: int | None = None
    #: reduction-queue rollups (None when no queue ran)
    reduction_oracle_calls: int | None = None
    reduction_speculative_wasted: int | None = None
    reduction_wall_time: float | None = None
    #: persistent artifact-store hit counters (None = no --store)
    store_seeds_skipped: int | None = None
    store_compile_hits: int | None = None
    store_truth_hits: int | None = None
    store_oracle_hits: int | None = None
    by_level: dict[str, dict[str, int]] = field(default_factory=dict)
    cross_compiler: dict[str, int] = field(default_factory=dict)
    cross_level: dict[str, dict[str, int]] = field(default_factory=dict)
    shape_yield: dict[str, dict[str, int]] = field(default_factory=dict)
    pass_attribution: dict[str, int] = field(default_factory=dict)
    crash_buckets: dict[str, int] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def dead_pct(self) -> float:
        total = self.total_markers
        return 100.0 * self.total_dead / total if total else 0.0

    def metric_value(self, name: str, default: float = 0.0) -> float:
        """A counter/gauge value out of the stored metrics snapshot."""
        entry = self.metrics.get(name)
        if not entry:
            return default
        return entry.get("value", default)

    def per_program(self, name: str) -> float:
        """A counter normalized by completed programs (comparison
        across runs of different sizes)."""
        return self.metric_value(name) / self.completed if self.completed else 0.0


@dataclass
class FindingRow:
    """One deduplicated finding with its cross-run lifecycle."""

    fingerprint: str
    kind: str
    detail: dict
    seeds: list[int]
    first_seen_run: int
    last_seen_run: int
    occurrences: int


@dataclass
class CaseRow:
    """One deduplicated case tracked through the triage lifecycle."""

    fingerprint: str
    kind: str
    state: str
    seeds: list[int]
    detail: dict
    reduced_fingerprint: str | None
    bisect: dict | None
    #: service job ids that folded this case (dedup + idempotency key)
    jobs: list[str]
    #: distinct folds that saw this case (re-folds don't count)
    occurrences: int
    updated_at: float

    def to_dict(self, *, timestamps: bool = True) -> dict[str, Any]:
        """Canonical JSON form; ``timestamps=False`` drops the one
        wall-clock field so two tables can be compared byte-for-byte."""
        payload: dict[str, Any] = {
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "state": self.state,
            "seeds": sorted(self.seeds),
            "detail": self.detail,
            "reduced_fingerprint": self.reduced_fingerprint,
            "bisect": self.bisect,
            "jobs": sorted(self.jobs),
            "occurrences": self.occurrences,
        }
        if timestamps:
            payload["updated_at"] = self.updated_at
        return payload


class RunLedger:
    """SQLite-backed store of campaign runs and deduplicated findings.

    Usable as a context manager; ``path`` may be ``":memory:"``.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        #: bounded busy-retry rounds absorbed by this connection
        self.lock_retries = 0
        self._conn = sqlite3.connect(path)
        self._conn.row_factory = sqlite3.Row
        # first line of defense against concurrent writers (service
        # worker threads, a `report` running against a live ledger);
        # retry_locked is the bounded second line
        self._conn.execute("PRAGMA busy_timeout = 5000")

        def _init() -> None:
            self._conn.executescript(_SCHEMA)
            self._migrate()
            self._conn.commit()

        self._retrying(_init)

    def _note_lock_retry(self, attempt: int) -> None:
        self.lock_retries += 1

    def _retrying(self, operation):
        """One write transaction with bounded ``database is locked``
        retries.  ``operation`` must be self-contained (it is rerun
        from scratch), so wrap multi-statement writes in
        ``with self._conn:`` for rollback-on-failure."""
        return retry_locked(operation, on_retry=self._note_lock_retry)

    def _migrate(self) -> None:
        """Add columns introduced after a ledger file was created."""
        have = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(runs)")
        }
        for name, decl in (
            ("interp", "TEXT"),
            ("sched_window", "INTEGER"),
            # PR 8: reduction-queue metadata; like jobs/window/interp
            # these stay out of the config fingerprint
            ("reduce_jobs", "INTEGER"),
            ("reduction_oracle_calls", "INTEGER"),
            ("reduction_speculative_wasted", "INTEGER"),
            ("reduction_wall_time", "REAL"),
            # PR 9: persistent artifact-store hit counters (NULL = the
            # run had no --store; 0 = store on but cold)
            ("store_seeds_skipped", "INTEGER"),
            ("store_compile_hits", "INTEGER"),
            ("store_truth_hits", "INTEGER"),
            ("store_oracle_hits", "INTEGER"),
        ):
            if name not in have:
                self._conn.execute(
                    f"ALTER TABLE runs ADD COLUMN {name} {decl}"
                )

    # -- ingest --------------------------------------------------------

    def record_run(
        self,
        result,
        *,
        n_programs: int,
        seed_base: int,
        jobs: int = 1,
        incremental: bool = True,
        compare_level: str = "O3",
        version: int | None = None,
        generator_config: GeneratorConfig | None = None,
        metrics: MetricsRegistry | None = None,
        wall_time: float = 0.0,
        started_at: float | None = None,
        reduce_findings: bool = False,
        interp: str | None = None,
        window: int | None = None,
        reduce_jobs: int | None = None,
        store_used: bool = False,
    ) -> int:
        """Persist one :class:`~repro.core.corpus.CampaignResult`;
        returns the new run id.  Findings upsert against prior runs
        (dedup within the run first, so ``occurrences`` counts *runs*
        in which a fingerprint was seen).

        ``interp`` (ground-truth backend; ``None`` resolves to the
        process default), ``window`` (parallel scheduler in-flight
        cap), and ``reduce_jobs`` (reduction-queue pool size) are
        recorded as run metadata but stay out of the config
        fingerprint — none of them changes results.

        When the campaign ran a reduction queue
        (``result.reduced_fingerprints``), those precomputed reduced
        fingerprints are used directly instead of re-reducing every
        finding here, and the queue's oracle-call/speculation/wall-time
        rollup lands in the run row.

        ``store_used`` marks that a persistent artifact store backed
        the run: the four ``store_*`` hit-counter columns then fill
        from the metrics snapshot (0 when the store was stone cold)
        instead of staying NULL."""
        from ..core.corpus import CampaignConfig, config_fingerprint

        if interp is None:
            from ..interp import get_default_backend

            interp = get_default_backend()
        snapshot = metrics.to_dict() if metrics is not None else {}
        reduction_stats = getattr(result, "reduction_stats", None)
        attribution = {
            name[len(ATTRIBUTION_PREFIX):]: entry["value"]
            for name, entry in snapshot.items()
            if name.startswith(ATTRIBUTION_PREFIX)
        }

        def _store_counter(name: str) -> int | None:
            if not store_used:
                return None
            return int(snapshot.get(name, {}).get("value", 0))

        row = (
            started_at if started_at is not None else time.time(),
            wall_time,
            config_fingerprint(CampaignConfig(
                n_programs=n_programs, seed_base=seed_base, version=version,
                generator_config=generator_config,
                compare_level=compare_level, incremental=incremental,
            )),
            n_programs,
            seed_base,
            jobs,
            int(incremental),
            compare_level,
            version,
            len(result.seeds),
            len(result.skipped),
            len(result.crashes),
            len(result.budget_exceeded),
            len(result.degraded),
            result.total_markers,
            result.total_dead,
            result.total_alive,
            len(result.findings),
            len(result.soundness_violations),
            json.dumps({
                f"{family}-{level}": {
                    "dead_total": stats.dead_total,
                    "missed": stats.missed,
                    "primary_missed": stats.primary_missed,
                }
                for (family, level), stats in sorted(result.by_level.items())
            }),
            json.dumps(asdict(result.cross_compiler)),
            json.dumps({
                family: asdict(stats)
                for family, stats in sorted(result.cross_level.items())
            }),
            json.dumps({
                shape: stats.to_dict()
                for shape, stats in sorted(result.by_shape.items())
            }),
            json.dumps(attribution, sort_keys=True),
            json.dumps({
                bucket: len(envelopes)
                for bucket, envelopes in result.crash_buckets.items()
            }),
            json.dumps(snapshot, sort_keys=True),
            interp,
            window,
            reduce_jobs,
            reduction_stats.oracle_calls if reduction_stats else None,
            reduction_stats.speculative_wasted if reduction_stats else None,
            reduction_stats.wall_time if reduction_stats else None,
            _store_counter("store.seeds_skipped"),
            _store_counter("store.compile_hits"),
            _store_counter("store.truth_hits"),
            _store_counter("store.oracle_hits"),
        )
        def _write() -> int:
            # `with` commits on success, rolls back on failure — so a
            # locked-out attempt leaves nothing behind for the retry
            with self._conn:
                cursor = self._conn.execute(
                    """INSERT INTO runs (
                        started_at, wall_time, config_fingerprint, programs,
                        seed_base, jobs, incremental, compare_level, version,
                        completed, skipped, crashed, budget_exceeded, degraded,
                        total_markers, total_dead, total_alive, findings,
                        soundness_violations, by_level_json,
                        cross_compiler_json, cross_level_json,
                        shape_yield_json, pass_attribution_json,
                        crash_buckets_json, metrics_json, interp, sched_window,
                        reduce_jobs, reduction_oracle_calls,
                        reduction_speculative_wasted, reduction_wall_time,
                        store_seeds_skipped, store_compile_hits,
                        store_truth_hits, store_oracle_hits
                    ) VALUES (%s)""" % ", ".join("?" * 36),
                    row,
                )
                run_id = cursor.lastrowid
                self._record_findings(
                    run_id, result.findings, generator_config, compare_level,
                    version, reduce_findings,
                    precomputed=getattr(result, "reduced_fingerprints", None),
                )
                return run_id

        return self._retrying(_write)

    def _record_findings(
        self,
        run_id: int,
        findings: list[dict],
        generator_config: GeneratorConfig | None,
        compare_level: str,
        version: int | None,
        reduce_findings: bool,
        precomputed: dict[int, str | None] | None = None,
    ) -> None:
        deduped: dict[str, dict] = {}
        for index, finding in enumerate(findings):
            fingerprint = (
                precomputed.get(index) if precomputed is not None else None
            )
            if fingerprint is None:
                # no queue ran (reduce here if asked), or the queue
                # fell back on this finding (structural signature)
                fingerprint = finding_fingerprint(
                    finding, generator_config, compare_level, version,
                    reduce=reduce_findings and precomputed is None,
                )
            entry = deduped.setdefault(
                fingerprint,
                {"kind": finding["kind"], "detail": finding, "seeds": set()},
            )
            entry["seeds"].add(finding["seed"])
        for fingerprint, entry in sorted(deduped.items()):
            existing = self._conn.execute(
                "SELECT seeds_json FROM findings WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
            if existing is None:
                self._conn.execute(
                    """INSERT INTO findings (
                        fingerprint, kind, detail_json, seeds_json,
                        first_seen_run, last_seen_run, occurrences
                    ) VALUES (?, ?, ?, ?, ?, ?, 1)""",
                    (
                        fingerprint,
                        entry["kind"],
                        json.dumps(entry["detail"], sort_keys=True),
                        json.dumps(sorted(entry["seeds"])),
                        run_id,
                        run_id,
                    ),
                )
            else:
                seeds = set(json.loads(existing["seeds_json"]))
                seeds.update(entry["seeds"])
                self._conn.execute(
                    """UPDATE findings SET last_seen_run = ?,
                        occurrences = occurrences + 1, seeds_json = ?
                        WHERE fingerprint = ?""",
                    (run_id, json.dumps(sorted(seeds)), fingerprint),
                )
            for seed in sorted(entry["seeds"]):
                self._conn.execute(
                    """INSERT OR IGNORE INTO run_findings
                        (run_id, fingerprint, seed, kind)
                        VALUES (?, ?, ?, ?)""",
                    (run_id, fingerprint, seed, entry["kind"]),
                )

    # -- case lifecycle ------------------------------------------------

    def _resolve_case(self, fingerprint: str) -> str:
        """Follow a reduced-merge alias to the surviving case."""
        row = self._conn.execute(
            "SELECT canonical FROM case_aliases WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        return str(row["canonical"]) if row is not None else fingerprint

    def record_case(
        self,
        finding: dict,
        fingerprint: str,
        *,
        job: str | None = None,
        now: float | None = None,
    ) -> tuple[str, bool]:
        """Upsert one finding into the lifecycle table (state ``found``
        for new cases; existing cases keep their state and merge seeds).

        ``job`` is the folding service job's id and doubles as the
        idempotency key: re-folding the same job after a crash or drain
        neither bumps ``occurrences`` nor changes the row, so a resumed
        job ledger equals an uninterrupted one.  Returns the canonical
        fingerprint (an earlier reduced-merge may have re-pointed this
        case) and whether the case is new.
        """
        stamp = time.time() if now is None else now

        def _write() -> tuple[str, bool]:
            with self._conn:
                canonical = self._resolve_case(fingerprint)
                row = self._conn.execute(
                    "SELECT * FROM cases WHERE fingerprint = ?", (canonical,)
                ).fetchone()
                if row is None:
                    self._conn.execute(
                        """INSERT INTO cases (
                            fingerprint, kind, state, seeds_json,
                            detail_json, reduced_fingerprint, bisect_json,
                            jobs_json, occurrences, updated_at
                        ) VALUES (?, ?, 'found', ?, ?, NULL, NULL, ?, 1, ?)""",
                        (
                            canonical,
                            finding["kind"],
                            json.dumps([finding["seed"]]),
                            json.dumps(finding, sort_keys=True),
                            json.dumps([job] if job is not None else []),
                            stamp,
                        ),
                    )
                    return canonical, True
                seeds = set(json.loads(row["seeds_json"]))
                seeds.add(finding["seed"])
                jobs = list(json.loads(row["jobs_json"]))
                occurrences = int(row["occurrences"])
                if job is None:
                    occurrences += 1
                elif job not in jobs:
                    jobs.append(job)
                    occurrences += 1
                self._conn.execute(
                    """UPDATE cases SET seeds_json = ?, jobs_json = ?,
                        occurrences = ?, updated_at = ?
                        WHERE fingerprint = ?""",
                    (
                        json.dumps(sorted(seeds)),
                        json.dumps(sorted(jobs)),
                        occurrences,
                        stamp,
                        canonical,
                    ),
                )
                return canonical, False

        return self._retrying(_write)

    def advance_case(
        self,
        fingerprint: str,
        state: str,
        *,
        reduced_fingerprint: str | None = None,
        bisect: dict | None = None,
        now: float | None = None,
    ) -> tuple[str, bool]:
        """Move a case forward along :data:`CASE_STATES`.

        Transitions are forward-only: advancing to the current state or
        an earlier one is an idempotent no-op (this is what lets a
        resumed job re-fold blindly).  Advancing to ``reduced``
        requires the paper-faithful ``reduced_fingerprint``; if another
        case already reduced to the same program the two *merge* (the
        survivor keeps its fingerprint, this one becomes an alias).
        Returns ``(canonical fingerprint, advanced?)``.
        """
        if state not in CASE_STATES[1:]:
            raise ValueError(
                f"cannot advance to {state!r}; one of {CASE_STATES[1:]}"
            )
        if state == "reduced" and reduced_fingerprint is None:
            raise ValueError("advancing to 'reduced' needs the reduced "
                             "fingerprint")
        stamp = time.time() if now is None else now

        def _write() -> tuple[str, bool]:
            with self._conn:
                canonical = self._resolve_case(fingerprint)
                row = self._conn.execute(
                    "SELECT * FROM cases WHERE fingerprint = ?", (canonical,)
                ).fetchone()
                if row is None:
                    raise KeyError(f"no case {fingerprint!r} in the ledger")
                if CASE_STATES.index(state) <= CASE_STATES.index(row["state"]):
                    return canonical, False
                if state == "reduced":
                    survivor = self._conn.execute(
                        """SELECT * FROM cases WHERE reduced_fingerprint = ?
                            AND fingerprint != ?""",
                        (reduced_fingerprint, canonical),
                    ).fetchone()
                    if survivor is not None:
                        return self._merge_case(row, survivor, stamp), True
                sets = ["state = ?", "updated_at = ?"]
                params: list[Any] = [state, stamp]
                if reduced_fingerprint is not None:
                    sets.append("reduced_fingerprint = ?")
                    params.append(reduced_fingerprint)
                if bisect is not None:
                    sets.append("bisect_json = ?")
                    params.append(json.dumps(bisect, sort_keys=True))
                params.append(canonical)
                self._conn.execute(
                    f"UPDATE cases SET {', '.join(sets)}"
                    " WHERE fingerprint = ?",
                    params,
                )
                return canonical, True

        return self._retrying(_write)

    def _merge_case(
        self, merged: sqlite3.Row, survivor: sqlite3.Row, stamp: float
    ) -> str:
        """Two structural cases reduced to the same program: fold
        ``merged`` into ``survivor`` and leave an alias behind (runs
        inside the caller's transaction)."""
        seeds = set(json.loads(survivor["seeds_json"]))
        seeds.update(json.loads(merged["seeds_json"]))
        jobs = set(json.loads(survivor["jobs_json"]))
        jobs.update(json.loads(merged["jobs_json"]))
        occurrences = int(survivor["occurrences"]) + int(
            merged["occurrences"]
        )
        self._conn.execute(
            """UPDATE cases SET seeds_json = ?, jobs_json = ?,
                occurrences = ?, updated_at = ? WHERE fingerprint = ?""",
            (
                json.dumps(sorted(seeds)),
                json.dumps(sorted(jobs)),
                occurrences,
                stamp,
                survivor["fingerprint"],
            ),
        )
        self._conn.execute(
            "DELETE FROM cases WHERE fingerprint = ?",
            (merged["fingerprint"],),
        )
        self._conn.execute(
            "INSERT OR REPLACE INTO case_aliases (fingerprint, canonical)"
            " VALUES (?, ?)",
            (merged["fingerprint"], survivor["fingerprint"]),
        )
        # anything already aliased to the merged case follows it
        self._conn.execute(
            "UPDATE case_aliases SET canonical = ? WHERE canonical = ?",
            (survivor["fingerprint"], merged["fingerprint"]),
        )
        return str(survivor["fingerprint"])

    def case(self, fingerprint: str) -> CaseRow | None:
        """One case by fingerprint, following merge aliases."""
        row = self._conn.execute(
            "SELECT * FROM cases WHERE fingerprint = ?",
            (self._resolve_case(fingerprint),),
        ).fetchone()
        return self._case_row(row) if row is not None else None

    def cases(self, state: str | None = None) -> list[CaseRow]:
        """Case rows in fingerprint order, optionally one state only."""
        if state is not None and state not in CASE_STATES:
            raise ValueError(f"unknown state {state!r}; one of {CASE_STATES}")
        if state is None:
            rows = self._conn.execute(
                "SELECT * FROM cases ORDER BY fingerprint"
            )
        else:
            rows = self._conn.execute(
                "SELECT * FROM cases WHERE state = ? ORDER BY fingerprint",
                (state,),
            )
        return [self._case_row(r) for r in rows]

    def lifecycle_counts(self) -> dict[str, int]:
        """Case count per lifecycle state (every state present)."""
        counts = dict.fromkeys(CASE_STATES, 0)
        for state, count in self._conn.execute(
            "SELECT state, COUNT(*) FROM cases GROUP BY state"
        ):
            counts[str(state)] = int(count)
        return counts

    def lifecycle_rows(self, *, timestamps: bool = False) -> list[dict]:
        """Canonical dump of the lifecycle table (plus merge aliases),
        by default without wall-clock fields — the comparable form the
        drain-then-resume determinism contract is checked against."""
        dump = [c.to_dict(timestamps=timestamps) for c in self.cases()]
        aliases = self._conn.execute(
            "SELECT fingerprint, canonical FROM case_aliases"
            " ORDER BY fingerprint"
        ).fetchall()
        if aliases:
            dump.append({
                "aliases": {str(f): str(c) for f, c in aliases},
            })
        return dump

    def lifecycle_digest(self) -> str:
        """sha256 over the canonical timestamp-free lifecycle dump."""
        payload = json.dumps(self.lifecycle_rows(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    @staticmethod
    def _case_row(row: sqlite3.Row) -> CaseRow:
        return CaseRow(
            fingerprint=row["fingerprint"],
            kind=row["kind"],
            state=row["state"],
            seeds=json.loads(row["seeds_json"]),
            detail=json.loads(row["detail_json"]),
            reduced_fingerprint=row["reduced_fingerprint"],
            bisect=(
                json.loads(row["bisect_json"])
                if row["bisect_json"] is not None
                else None
            ),
            jobs=json.loads(row["jobs_json"]),
            occurrences=row["occurrences"],
            updated_at=row["updated_at"],
        )

    # -- queries -------------------------------------------------------

    def runs(
        self,
        config: str | None = None,
        limit: int | None = None,
        since: float | None = None,
    ) -> list[RunRow]:
        """Run rows, newest first.  ``config`` filters on a
        config-fingerprint prefix; ``since`` on ``started_at``."""
        query = "SELECT * FROM runs"
        clauses, params = [], []
        if config:
            clauses.append("config_fingerprint LIKE ?")
            params.append(config + "%")
        if since is not None:
            clauses.append("started_at >= ?")
            params.append(since)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY run_id DESC"
        if limit is not None:
            query += " LIMIT ?"
            params.append(limit)
        return [self._run_row(r) for r in self._conn.execute(query, params)]

    def run(self, run_id: int) -> RunRow | None:
        row = self._conn.execute(
            "SELECT * FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        return self._run_row(row) if row is not None else None

    def findings(self, run_id: int | None = None) -> list[FindingRow]:
        """All finding rows (fingerprint order), or those seen in one
        run."""
        if run_id is None:
            rows = self._conn.execute(
                "SELECT * FROM findings ORDER BY fingerprint"
            )
        else:
            rows = self._conn.execute(
                """SELECT f.* FROM findings f
                    JOIN (SELECT DISTINCT fingerprint FROM run_findings
                          WHERE run_id = ?) rf
                    ON f.fingerprint = rf.fingerprint
                    ORDER BY f.fingerprint""",
                (run_id,),
            )
        return [
            FindingRow(
                fingerprint=r["fingerprint"],
                kind=r["kind"],
                detail=json.loads(r["detail_json"]),
                seeds=json.loads(r["seeds_json"]),
                first_seen_run=r["first_seen_run"],
                last_seen_run=r["last_seen_run"],
                occurrences=r["occurrences"],
            )
            for r in rows
        ]

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    @staticmethod
    def _run_row(row: sqlite3.Row) -> RunRow:
        return RunRow(
            run_id=row["run_id"],
            started_at=row["started_at"],
            wall_time=row["wall_time"],
            config_fingerprint=row["config_fingerprint"],
            programs=row["programs"],
            seed_base=row["seed_base"],
            jobs=row["jobs"],
            incremental=bool(row["incremental"]),
            compare_level=row["compare_level"],
            version=row["version"],
            completed=row["completed"],
            skipped=row["skipped"],
            crashed=row["crashed"],
            budget_exceeded=row["budget_exceeded"],
            degraded=row["degraded"],
            total_markers=row["total_markers"],
            total_dead=row["total_dead"],
            total_alive=row["total_alive"],
            findings=row["findings"],
            soundness_violations=row["soundness_violations"],
            interp=row["interp"],
            window=row["sched_window"],
            reduce_jobs=row["reduce_jobs"],
            reduction_oracle_calls=row["reduction_oracle_calls"],
            reduction_speculative_wasted=row["reduction_speculative_wasted"],
            reduction_wall_time=row["reduction_wall_time"],
            store_seeds_skipped=row["store_seeds_skipped"],
            store_compile_hits=row["store_compile_hits"],
            store_truth_hits=row["store_truth_hits"],
            store_oracle_hits=row["store_oracle_hits"],
            by_level=json.loads(row["by_level_json"]),
            cross_compiler=json.loads(row["cross_compiler_json"]),
            cross_level=json.loads(row["cross_level_json"]),
            shape_yield=json.loads(row["shape_yield_json"]),
            pass_attribution=json.loads(row["pass_attribution_json"]),
            crash_buckets=json.loads(row["crash_buckets_json"]),
            metrics=json.loads(row["metrics_json"]),
        )
