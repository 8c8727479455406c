"""SQLite-backed content-addressed artifact store.

Modeled on the compressed content-hash database at the heart of
diopter's DCE workflow: program text is zlib-compressed and keyed by
its sha256, and every expensive derivation the campaign engine
performs is memoized in a table keyed by the hashes of its inputs:

``programs``
    content-addressed program text (instrumented sources whose ground
    truth has been computed; ``store export`` recovers them).
``compile_memo``
    ``(module fingerprint, pipeline-config fingerprint) →`` the set of
    markers the pipeline eliminated — the persistent L2 behind the
    per-call config dedup in the differential layer.
``truth_memo``
    ``(instrumented-program hash, step limit) →`` a summary of the
    reference execution (including step-limit blowups, which are as
    deterministic as successes).
``oracle_memo``
    reduction-oracle verdicts keyed by the existing
    ``sha256(predicate.cache_key, printed text)`` candidate key.
``seed_analyses``
    fully analyzed seeds per campaign scope; a warm rerun — or the
    resume of an interrupted campaign — replays the pickled
    :class:`~repro.core.resilience.SeedReport` instead of re-analyzing.

Failure policy: the store must never take a campaign down.  Every
public method is guarded — the first SQLite/zlib/pickle/JSON error
disables the store for the rest of the process (reads miss, writes
drop) and is tallied on :attr:`ArtifactStore.errors` plus the
``store.errors`` counter when a metrics registry is attached.

Concurrency: pool workers open the file read-only (SQLite URI
``mode=ro``) and ship new entries back to the parent inside picklable
:class:`StoreDelta` objects riding the existing envelope pattern; only
the parent writes, committing in seed order.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sqlite3
import zlib
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable

from ..testing.chaos import InjectedFault, current_plan, trigger
from .sqlite import connect, retry_locked

SCHEMA_VERSION = 1

#: exceptions that flip the store into degraded (cold) mode.
#: ``InjectedFault`` is here so the ``store_write`` chaos site degrades
#: exactly like a real mid-write failure would.
_STORE_ERRORS = (
    sqlite3.Error,
    zlib.error,
    pickle.PickleError,
    json.JSONDecodeError,
    ValueError,
    TypeError,
    EOFError,
    AttributeError,
    ImportError,
    OSError,
    InjectedFault,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS programs (
    hash TEXT PRIMARY KEY,
    size INTEGER NOT NULL,
    body BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS compile_memo (
    module_fp TEXT NOT NULL,
    config_fp TEXT NOT NULL,
    eliminated TEXT NOT NULL,
    PRIMARY KEY (module_fp, config_fp)
);
CREATE TABLE IF NOT EXISTS truth_memo (
    program_hash TEXT NOT NULL,
    step_limit INTEGER NOT NULL,
    record TEXT NOT NULL,
    PRIMARY KEY (program_hash, step_limit)
);
CREATE TABLE IF NOT EXISTS oracle_memo (
    key TEXT PRIMARY KEY,
    verdict INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS seed_analyses (
    scope_fp TEXT NOT NULL,
    seed INTEGER NOT NULL,
    status TEXT NOT NULL,
    report BLOB NOT NULL,
    PRIMARY KEY (scope_fp, seed)
);
"""


def program_text_key(text: str) -> str:
    """Content address of one program: sha256 of its printed text."""
    return hashlib.sha256(text.encode()).hexdigest()


def seed_scope_fingerprint(version, generator_config) -> str:
    """Identity of a seed's analysis inputs.

    A seed's :class:`SeedReport` is a pure function of
    ``(seed, version, generator_config)`` — deliberately *not* of
    ``n_programs``/``seed_base`` (so a larger campaign reuses a smaller
    one's seeds) nor ``compare_level`` (applied at merge time from the
    stored outcome) nor the interpreter backend (bit-identical by
    contract).
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "version": version,
        "generator_config": (
            asdict(generator_config) if generator_config is not None else None
        ),
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def report_is_cacheable(report) -> bool:
    """Only deterministic, machine-independent outcomes are stored.

    ``ok`` (complete) and ``skipped`` (step-limit) seeds
    replay identically anywhere; crashes and wall-clock budget blowups
    are transient and must be retried cold.  A seed targeted by an
    installed chaos ``skip`` fault is never stored either: its
    step-limit skip is injected, and replaying it would carry the
    fault into later clean runs.
    """
    plan = current_plan()
    return (
        report.crash is None
        and not report.budget_exceeded
        and (report.skipped or report.outcome is not None)
        and (plan is None or not plan.skips(report.seed))
    )


@dataclass
class StoreDelta:
    """Picklable carrier of new store entries discovered by one seed.

    Workers never write the database; they accumulate entries here and
    ship the delta back in ``SeedEnvelope`` for the parent to commit in
    seed order (the same pattern worker metrics and events use).
    """

    programs: dict[str, str] = field(default_factory=dict)
    compile_memo: dict[tuple[str, str], tuple[str, ...]] = field(
        default_factory=dict
    )
    truth_memo: dict[tuple[str, int], dict[str, Any]] = field(
        default_factory=dict
    )

    def __bool__(self) -> bool:
        return bool(self.programs or self.compile_memo or self.truth_memo)


class StoreSession:
    """Read-through view over a store plus a recording delta.

    One session per seed analysis: lookups consult the delta first
    (entries discovered earlier in the same seed), then the backing
    store; misses are recorded into the delta after recomputation.
    Hit counters go to the per-seed metrics registry so they merge
    across pool workers like every other counter.
    """

    def __init__(self, store: "ArtifactStore | None", metrics=None) -> None:
        self.store = store
        self.metrics = metrics
        self.delta = StoreDelta()

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    # -- compile memo -------------------------------------------------
    def lookup_compile(
        self, module_fp: str, config_fp: str
    ) -> frozenset[str] | None:
        eliminated = self.delta.compile_memo.get((module_fp, config_fp))
        if eliminated is None and self.store is not None:
            eliminated = self.store.get_compile(module_fp, config_fp)
        if eliminated is None:
            return None
        self._count("store.compile_hits")
        return frozenset(eliminated)

    def record_compile(
        self, module_fp: str, config_fp: str, eliminated: Iterable[str]
    ) -> None:
        self.delta.compile_memo[(module_fp, config_fp)] = tuple(
            sorted(eliminated)
        )

    # -- ground-truth memo --------------------------------------------
    def lookup_truth(
        self, program_hash: str, step_limit: int
    ) -> dict[str, Any] | None:
        record = self.delta.truth_memo.get((program_hash, step_limit))
        if record is None and self.store is not None:
            record = self.store.get_truth(program_hash, step_limit)
        if record is None:
            return None
        self._count("store.truth_hits")
        return record

    def record_truth(
        self,
        program_hash: str,
        step_limit: int,
        record: dict[str, Any],
        text: str,
    ) -> None:
        self.delta.truth_memo[(program_hash, step_limit)] = record
        self.delta.programs.setdefault(program_hash, text)


class ArtifactStore:
    """One SQLite file accumulating artifacts across campaigns."""

    def __init__(
        self, path: str, *, read_only: bool = False, metrics=None
    ) -> None:
        self.path = path
        self.read_only = read_only
        self.metrics = metrics
        self.errors = 0
        self.lock_retries = 0
        self.disabled = False
        self._con: sqlite3.Connection | None = None
        try:
            self._con = connect(path, read_only=read_only)
            if not read_only:
                self._con.executescript(_SCHEMA)
                self._con.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
                self._con.commit()
            # a corrupt file should surface at open, not mid-campaign
            self._con.execute("SELECT COUNT(*) FROM sqlite_master").fetchone()
        except _STORE_ERRORS:
            self._fail()

    # -- write contention ---------------------------------------------
    def _note_lock_retry(self, attempt: int) -> None:
        self.lock_retries += 1
        if self.metrics is not None:
            self.metrics.counter("store.lock_retries").inc()

    def _retrying(self, operation):
        """Run one write transaction, absorbing bounded ``database is
        locked`` contention (concurrent service jobs / CLI invocations
        share the file)."""
        return retry_locked(operation, on_retry=self._note_lock_retry)

    # -- failure policy -----------------------------------------------
    def _fail(self) -> None:
        """Degrade to cold: reads miss, writes drop, never raise."""
        self.errors += 1
        self.disabled = True
        if self.metrics is not None:
            self.metrics.counter("store.errors").inc()
        if self._con is not None:
            try:
                self._con.close()
            except sqlite3.Error:
                pass
            self._con = None

    def close(self) -> None:
        if self._con is not None:
            try:
                self._con.commit()
                self._con.close()
            except sqlite3.Error:
                pass
            self._con = None

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def session(self, metrics=None) -> StoreSession:
        return StoreSession(self, metrics=metrics)

    # -- reads --------------------------------------------------------
    def get_compile(
        self, module_fp: str, config_fp: str
    ) -> tuple[str, ...] | None:
        if self._con is None:
            return None
        try:
            row = self._con.execute(
                "SELECT eliminated FROM compile_memo"
                " WHERE module_fp = ? AND config_fp = ?",
                (module_fp, config_fp),
            ).fetchone()
            if row is None:
                return None
            eliminated = json.loads(row[0])
            return tuple(str(name) for name in eliminated)
        except _STORE_ERRORS:
            self._fail()
            return None

    def get_truth(
        self, program_hash: str, step_limit: int
    ) -> dict[str, Any] | None:
        if self._con is None:
            return None
        try:
            row = self._con.execute(
                "SELECT record FROM truth_memo"
                " WHERE program_hash = ? AND step_limit = ?",
                (program_hash, step_limit),
            ).fetchone()
            if row is None:
                return None
            record = json.loads(row[0])
            if not isinstance(record, dict):
                raise ValueError("truth record is not an object")
            return record
        except _STORE_ERRORS:
            self._fail()
            return None

    def oracle_entries(self) -> dict[str, bool]:
        """Every persisted reduction-oracle verdict (warm-start seed)."""
        if self._con is None:
            return {}
        try:
            rows = self._con.execute(
                "SELECT key, verdict FROM oracle_memo"
            ).fetchall()
            return {str(key): bool(verdict) for key, verdict in rows}
        except _STORE_ERRORS:
            self._fail()
            return {}

    def load_seed_reports(
        self, scope_fp: str, start: int, stop: int
    ) -> dict[int, Any]:
        """Stored :class:`SeedReport` objects for seeds in [start, stop).

        Undecodable rows (e.g. pickled against an older code version)
        are silently treated as misses and re-analyzed.
        """
        if self._con is None:
            return {}
        try:
            rows = self._con.execute(
                "SELECT seed, report FROM seed_analyses"
                " WHERE scope_fp = ? AND seed >= ? AND seed < ?"
                " ORDER BY seed",
                (scope_fp, start, stop),
            ).fetchall()
        except _STORE_ERRORS:
            self._fail()
            return {}
        reports: dict[int, Any] = {}
        for seed, blob in rows:
            try:
                report = pickle.loads(zlib.decompress(blob))
            except _STORE_ERRORS:
                self.errors += 1
                if self.metrics is not None:
                    self.metrics.counter("store.errors").inc()
                continue
            if report.seed != seed:
                continue
            reports[int(seed)] = report
        return reports

    def get_program(self, program_hash: str) -> str | None:
        if self._con is None:
            return None
        try:
            row = self._con.execute(
                "SELECT body FROM programs WHERE hash = ?", (program_hash,)
            ).fetchone()
            if row is None:
                return None
            return zlib.decompress(row[0]).decode()
        except _STORE_ERRORS:
            self._fail()
            return None

    def program_hashes(self) -> list[tuple[str, int]]:
        if self._con is None:
            return []
        try:
            return [
                (str(h), int(s))
                for h, s in self._con.execute(
                    "SELECT hash, size FROM programs ORDER BY hash"
                )
            ]
        except _STORE_ERRORS:
            self._fail()
            return []

    # -- writes (parent process only) ---------------------------------
    def apply_delta(self, delta: StoreDelta) -> None:
        if self._con is None or self.read_only or not delta:
            return
        try:
            trigger("store_write")

            def _write() -> None:
                for program_hash, text in delta.programs.items():
                    body = text.encode()
                    self._con.execute(
                        "INSERT OR IGNORE INTO programs (hash, size, body)"
                        " VALUES (?, ?, ?)",
                        (program_hash, len(body), zlib.compress(body, 9)),
                    )
                for (module_fp, config_fp), names in (
                    delta.compile_memo.items()
                ):
                    self._con.execute(
                        "INSERT OR IGNORE INTO compile_memo"
                        " (module_fp, config_fp, eliminated) VALUES (?, ?, ?)",
                        (module_fp, config_fp, json.dumps(sorted(names))),
                    )
                for (program_hash, limit), record in delta.truth_memo.items():
                    self._con.execute(
                        "INSERT OR IGNORE INTO truth_memo"
                        " (program_hash, step_limit, record)"
                        " VALUES (?, ?, ?)",
                        (
                            program_hash,
                            limit,
                            json.dumps(record, sort_keys=True),
                        ),
                    )

            self._retrying(_write)
        except _STORE_ERRORS:
            self._fail()

    def record_seed_report(self, scope_fp: str, report) -> None:
        if self._con is None or self.read_only:
            return
        if not report_is_cacheable(report):
            return
        try:
            trigger("store_write")
            status = "skipped" if report.outcome is None else "ok"
            blob = zlib.compress(pickle.dumps(report), 9)
            self._retrying(
                lambda: self._con.execute(
                    "INSERT OR REPLACE INTO seed_analyses"
                    " (scope_fp, seed, status, report) VALUES (?, ?, ?, ?)",
                    (scope_fp, report.seed, status, blob),
                )
            )
        except _STORE_ERRORS:
            self._fail()

    def record_oracle_entries(self, entries: dict[str, bool]) -> None:
        if self._con is None or self.read_only or not entries:
            return
        try:
            trigger("store_write")
            rows = [(key, int(bool(v))) for key, v in sorted(entries.items())]

            def _write() -> None:
                self._con.executemany(
                    "INSERT OR IGNORE INTO oracle_memo (key, verdict)"
                    " VALUES (?, ?)",
                    rows,
                )
                self._con.commit()

            self._retrying(_write)
        except _STORE_ERRORS:
            self._fail()

    def commit(self) -> None:
        if self._con is None or self.read_only:
            return
        try:
            self._retrying(self._con.commit)
        except _STORE_ERRORS:
            self._fail()

    def commit_seed(self, scope_fp: str, report, delta: StoreDelta) -> None:
        """Apply one finished seed's new entries and report and durably
        commit — before the seed loop lets anything observe the seed,
        so the store is the campaign's resume point."""
        self.apply_delta(delta)
        self.record_seed_report(scope_fp, report)
        self.commit()

    # -- maintenance (CLI) --------------------------------------------
    def stats(self) -> dict[str, Any]:
        counts: dict[str, Any] = {}
        if self._con is None:
            return {"disabled": True, "errors": self.errors}
        try:
            for table in (
                "programs",
                "compile_memo",
                "truth_memo",
                "oracle_memo",
                "seed_analyses",
            ):
                counts[table] = self._con.execute(
                    f"SELECT COUNT(*) FROM {table}"
                ).fetchone()[0]
            raw, packed = self._con.execute(
                "SELECT COALESCE(SUM(size), 0), COALESCE(SUM(LENGTH(body)), 0)"
                " FROM programs"
            ).fetchone()
            counts["program_bytes"] = int(raw)
            counts["compressed_bytes"] = int(packed)
            counts["seed_scopes"] = self._con.execute(
                "SELECT COUNT(DISTINCT scope_fp) FROM seed_analyses"
            ).fetchone()[0]
        except _STORE_ERRORS:
            self._fail()
            return {"disabled": True, "errors": self.errors}
        try:
            counts["file_bytes"] = os.path.getsize(self.path)
        except OSError:
            counts["file_bytes"] = 0
        return counts

    def gc(self) -> dict[str, int]:
        """Drop program blobs no memo references, then compact."""
        if self._con is None or self.read_only:
            return {"removed": 0, "reclaimed_bytes": 0}
        try:
            before = os.path.getsize(self.path)
        except OSError:
            before = 0
        try:
            cursor = self._con.execute(
                "DELETE FROM programs WHERE hash NOT IN"
                " (SELECT program_hash FROM truth_memo)"
            )
            removed = cursor.rowcount
            self._con.commit()
            self._con.execute("VACUUM")
        except _STORE_ERRORS:
            self._fail()
            return {"removed": 0, "reclaimed_bytes": 0}
        try:
            after = os.path.getsize(self.path)
        except OSError:
            after = before
        return {"removed": removed, "reclaimed_bytes": max(0, before - after)}


def open_store(
    path: str, *, read_only: bool = False, metrics=None
) -> ArtifactStore | None:
    """Open a store, degrading to ``None`` (cold) on any failure."""
    try:
        store = ArtifactStore(path, read_only=read_only, metrics=metrics)
    except _STORE_ERRORS:
        return None
    if store.disabled:
        store.close()
        return None
    return store
