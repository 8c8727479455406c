"""Test-case reduction (C-Reduce-style, paper §4.3), speculative and parallel.

A delta-debugging loop over the MiniC AST: repeatedly try to delete or
simplify program fragments, keeping a candidate iff the caller's
*interestingness* predicate still holds — for missed-optimization
triage that predicate is "the ground truth still says the marker is
dead, one compiler still keeps it, and the witness still eliminates
it" (:class:`MissedMarkerPredicate`).

Transformations, largest first:

* drop whole function definitions and global variables,
* delete statements (chunks, then singletons),
* unwrap ``if``/loop bodies into their parent block,
* replace expression operands by small literals.

Speculative evaluation
----------------------

The engine enumerates each transformation's candidates in a fixed
deterministic order, evaluates them in **batches** of ``speculation``
(C-Reduce's parallel interestingness testing; diopter wraps the same
trick around creduce workers), and commits the *first candidate in
enumeration order* whose oracle succeeds — evaluations at later batch
positions are speculative and discarded after the commit point
(``reduction.speculative_wasted``).  Every batch is evaluated in full
and the batch size never depends on ``jobs``, so the candidate set,
the commit sequence, the reduced program, and every counter are a pure
function of (program, predicate, speculation window): ``jobs`` only
decides whether the fresh evaluations run in-process or fan out across
a ``ProcessPoolExecutor``, making ``reduce_program(jobs=N)``
byte-identical to ``jobs=1``.

Oracle memoization
------------------

Verdicts are memoized on :func:`candidate_key` — a hash of the printed
candidate scoped by the predicate's ``cache_key`` — in a plain dict
that can outlive one ``reduce_program`` call: the campaign
:class:`ReductionQueue` seeds each finding's reduction with the memo
entries earlier findings shipped back in their
:class:`FindingEnvelope`, so textually identical candidates under the
same oracle are never recompiled twice anywhere in the campaign.
Errors are never cached, and memoization never changes verdicts, so
the memo affects only the fresh-call/cache-hit split — results and
attempt counts are memo-independent.

The campaign reduction queue
----------------------------

``campaign --reduce-findings --reduce-jobs N`` moves finding reduction
off the critical path: each finding is submitted to a process pool the
moment the differential layer records it, reductions overlap the
remaining seed analysis, and the campaign drains the queue (in finding
order, for a deterministic event stream) just before ``campaign_end``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Iterator

from ..compilers import CompilerSpec, compile_minic
from ..frontend.typecheck import CheckError, check_program
from ..interp import StepLimitExceeded
from ..lang import ast_nodes as ast
from ..lang import parse_program, print_program
from ..observability.metrics import MetricsRegistry
from ..testing import chaos
from .ground_truth import compute_ground_truth
from .markers import InstrumentedProgram

Predicate = Callable[[ast.Program], bool]
#: receives ``(event type, attrs)`` pairs from the engine —
#: deterministic content only (counts and names, never durations)
EventSink = Callable[[str, dict], None]

#: candidates evaluated per speculative batch.  Deliberately a
#: jobs-independent constant: the batch defines which candidates get
#: evaluated, so tying it to ``jobs`` would make attempt/oracle
#: counters depend on parallelism.  Raise via ``speculation=`` to feed
#: more than this many workers.
DEFAULT_SPECULATION = 4

#: event types the engine feeds its sink (re-exported by
#: :mod:`repro.observability.events` for the campaign stream)
REDUCTION_ROUND = "reduction.round"
REDUCTION_COMMIT = "reduction.commit"


@dataclass
class ReductionResult:
    program: ast.Program
    attempts: int
    successes: int
    stmts_before: int
    stmts_after: int
    #: oracle invocations answered from the memo (0 when memoization
    #: is off or no candidate ever repeated)
    oracle_cache_hits: int = 0
    #: oracle invocations that raised (treated as "not interesting";
    #: the loop keeps its best-so-far program and moves on)
    oracle_errors: int = 0
    #: fresh predicate evaluations (memo misses), including the
    #: initial interestingness check
    oracle_calls: int = 0
    #: fresh evaluations issued at batch positions after the committed
    #: candidate — speculative work the commit discarded
    speculative_wasted: int = 0
    #: delta rounds executed (each runs every transformation to fixpoint)
    rounds: int = 0
    #: wall-clock seconds spent in :func:`reduce_program`
    wall_time: float = 0.0


@dataclass(frozen=True)
class MissedMarkerPredicate:
    """The paper's interestingness check: ``marker`` is really dead,
    ``keeper`` fails to eliminate it, and (if given) ``witness``
    eliminates it.

    A frozen dataclass rather than a closure so it pickles into pool
    workers and has a stable :attr:`cache_key` for the cross-worker
    oracle memo.
    """

    marker: str
    keeper: CompilerSpec
    witness: CompilerSpec | None = None
    marker_prefix: str = "DCEMarker"

    @property
    def cache_key(self) -> str:
        """Scopes memo entries to this oracle: the same candidate text
        has different verdicts under different markers or specs."""
        return (
            f"missed:{self.marker}|{self.keeper}|{self.witness}"
            f"|{self.marker_prefix}"
        )

    def __call__(self, program: ast.Program) -> bool:
        try:
            info = check_program(program)
        except CheckError:
            return False
        try:
            truth = compute_ground_truth(_as_instrumented(program), info=info)
        except (StepLimitExceeded, KeyError):
            return False
        if self.marker not in truth.dead:
            return False
        kept = compile_minic(
            program, self.keeper, info=info
        ).alive_markers(self.marker_prefix)
        if self.marker not in kept:
            return False
        if self.witness is not None:
            w = compile_minic(
                program, self.witness, info=info
            ).alive_markers(self.marker_prefix)
            if self.marker in w:
                return False
        return True


def missed_marker_predicate(
    marker: str,
    keeper: CompilerSpec,
    witness: CompilerSpec | None = None,
    marker_prefix: str = "DCEMarker",
) -> MissedMarkerPredicate:
    """Factory kept for callers of the original closure-based API."""
    return MissedMarkerPredicate(marker, keeper, witness, marker_prefix)


def _as_instrumented(program: ast.Program) -> InstrumentedProgram:
    """Wrap an already-instrumented program (markers = its opaque
    ``DCEMarker*`` declarations)."""
    from .markers import MarkerInfo

    markers = [
        MarkerInfo(d.name, "unknown", "")
        for d in program.extern_decls()
        if d.name.startswith("DCEMarker")
    ]
    return InstrumentedProgram(program, markers)


def count_statements(program: ast.Program) -> int:
    return sum(1 for _ in ast.walk_program_stmts(program))


# -- oracle memo -----------------------------------------------------------


def candidate_key(predicate_key: str, text: str) -> str:
    """Memo key for one printed candidate under one oracle.

    The printed program is a faithful serialization of the AST and the
    predicate is a deterministic function of it, so (oracle identity,
    text) fully determines the verdict.  Predicates without a
    ``cache_key`` get an empty scope — safe within one
    :func:`reduce_program` call, but such a memo must not be shared
    across different predicates.
    """
    digest = hashlib.sha256()
    digest.update(predicate_key.encode())
    digest.update(b"\x00")
    digest.update(text.encode())
    return digest.hexdigest()[:32]


def evaluate_printed(predicate: Predicate, text: str) -> tuple[bool, bool]:
    """Parse and judge one printed candidate: ``(verdict, errored)``.

    The single evaluation path shared by the in-process engine and the
    pool workers (:func:`repro.core.parallel.evaluate_candidates`), so
    ``jobs`` cannot change what a verdict means.  Exceptions answer
    ``(False, True)`` — a crashing candidate is declined, never fatal
    (the old ``_GuardedOracle`` contract).
    """
    try:
        return bool(predicate(parse_program(text))), False
    except Exception:
        return False, True


class _BudgetExhausted(Exception):
    """Internal: the per-reduction oracle-call budget ran out."""


class _SpeculativeEngine:
    """Batched candidate evaluation with deterministic commits.

    The jobs-invariance contract: every batch is evaluated in full (no
    early exit on the first success), verdicts come from
    :func:`evaluate_printed` (a pure function of the printed text), and
    the engine commits the first interesting candidate in enumeration
    order.  ``jobs`` therefore only chooses *where* fresh evaluations
    run; every counter and the reduced program are identical at any
    jobs count.
    """

    def __init__(
        self,
        predicate: Predicate,
        jobs: int,
        speculation: int,
        memoize: bool,
        memo: dict[str, bool] | None,
        metrics: MetricsRegistry | None,
        event_sink: EventSink | None,
        max_oracle_calls: int | None = None,
    ) -> None:
        self._predicate = predicate
        self._jobs = jobs
        self._speculation = max(1, speculation)
        self._max_oracle_calls = max_oracle_calls
        self._memoize = memoize
        self._memo = memo if memo is not None else {}
        self._metrics = metrics
        self._sink = event_sink
        self._key_scope = getattr(predicate, "cache_key", "") or ""
        self._pool = None
        self.attempts = 0
        self.successes = 0
        self.cache_hits = 0
        self.errors = 0
        self.oracle_calls = 0
        self.wasted = 0

    # -- counters ------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None and amount:
            self._metrics.counter(name).inc(amount)

    # -- evaluation ----------------------------------------------------

    def _ensure_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        from .parallel import OraclePoolConfig, _init_oracle_worker, pool_context

        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._jobs,
                mp_context=pool_context(),
                initializer=_init_oracle_worker,
                initargs=(
                    OraclePoolConfig(self._predicate, chaos.current_plan()),
                ),
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _evaluate_fresh(
        self, items: list[tuple[str, str]]
    ) -> list[tuple[bool, bool]]:
        """``(verdict, errored)`` per ``(key, text)``, preserving order."""
        if self._jobs > 1 and len(items) > 1:
            from concurrent.futures import BrokenExecutor

            from .parallel import evaluate_candidates

            try:
                pool = self._ensure_pool()
                futures = [
                    pool.submit(evaluate_candidates, [item]) for item in items
                ]
                return [f.result()[0][1:] for f in futures]
            except BrokenExecutor:
                # a dying worker must not doom the round: drop the
                # broken pool (recreated lazily for the next batch) and
                # answer this whole batch in-process — verdicts are the
                # same either way
                self.close()
                self._count("reduction.worker_restarts")
        return [evaluate_printed(self._predicate, text) for _, text in items]

    def evaluate_batch(
        self, texts: list[str]
    ) -> tuple[list[bool], list[bool]]:
        """Verdicts for printed candidates, memo first, fresh calls for
        the rest (pooled when ``jobs > 1``).  Returns ``(verdicts,
        fresh)`` where ``fresh[i]`` marks positions whose verdict cost
        an actual evaluation (the speculative-waste accounting)."""
        verdicts: list[bool | None] = [None] * len(texts)
        fresh = [False] * len(texts)
        pending: list[tuple[str, str, list[int]]] = []  # key, text, positions
        by_key: dict[str, list[int]] = {}
        for i, text in enumerate(texts):
            key = candidate_key(self._key_scope, text)
            if self._memoize:
                cached = self._memo.get(key)
                if cached is not None:
                    verdicts[i] = cached
                    self.cache_hits += 1
                    self._count("reduction.oracle_cache_hits")
                    continue
                positions = by_key.get(key)
                if positions is not None:
                    # duplicate within the batch: the first occurrence's
                    # evaluation answers it (counts as a memo hit)
                    positions.append(i)
                    self.cache_hits += 1
                    self._count("reduction.oracle_cache_hits")
                    continue
                by_key[key] = positions = [i]
                pending.append((key, text, positions))
            else:
                pending.append((key, text, [i]))
        self.oracle_calls += len(pending)
        self._count("reduction.oracle_calls", len(pending))
        results = self._evaluate_fresh([(k, t) for k, t, _ in pending])
        for (key, _text, positions), (verdict, errored) in zip(
            pending, results
        ):
            if errored:
                self.errors += 1
                self._count("reduction.oracle_errors")
            elif self._memoize:
                self._memo[key] = verdict  # errors are never cached
            for pos in positions:
                verdicts[pos] = verdict
                fresh[pos] = True
        return [bool(v) for v in verdicts], fresh

    def check_initial(self, program: ast.Program) -> bool:
        verdicts, _ = self.evaluate_batch([print_program(program)])
        return verdicts[0]

    # -- the speculative commit loop -----------------------------------

    def run_transform(
        self,
        name: str,
        generate: Callable[[ast.Program], Iterator[tuple[str, ast.Program]]],
        current: ast.Program,
        context: dict[str, Any],
    ) -> ast.Program | None:
        """One enumeration of ``name``'s candidates over ``current``;
        returns the first committed candidate, or ``None`` when the
        full enumeration found nothing (fixpoint for this transform)."""
        iterator = generate(current)
        while True:
            if (
                self._max_oracle_calls is not None
                and self.oracle_calls >= self._max_oracle_calls
            ):
                # checked only at batch boundaries, on a jobs-invariant
                # counter, so a budgeted reduction is still byte-
                # identical at any jobs count
                raise _BudgetExhausted
            batch = list(islice(iterator, self._speculation))
            if not batch:
                return None
            texts = [print_program(candidate) for _, candidate in batch]
            verdicts, fresh = self.evaluate_batch(texts)
            commit = next(
                (i for i, verdict in enumerate(verdicts) if verdict), None
            )
            if commit is None:
                self.attempts += len(batch)
                continue
            self.attempts += commit + 1
            self.successes += 1
            wasted = sum(1 for i in range(commit + 1, len(batch)) if fresh[i])
            self.wasted += wasted
            self._count("reduction.speculative_wasted", wasted)
            desc, program = batch[commit]
            if self._sink is not None:
                self._sink(REDUCTION_COMMIT, {
                    **context, "transform": name, "what": desc,
                    "stmts": count_statements(program),
                })
            return program


def reduce_program(
    program: ast.Program,
    interesting: Predicate,
    max_rounds: int = 12,
    memoize_oracle: bool = True,
    metrics: MetricsRegistry | None = None,
    jobs: int = 1,
    speculation: int | None = None,
    memo: dict[str, bool] | None = None,
    event_sink: EventSink | None = None,
    event_attrs: dict[str, Any] | None = None,
    max_oracle_calls: int | None = None,
) -> ReductionResult:
    """Shrink ``program`` while ``interesting`` holds.

    The input program itself must satisfy the predicate, which must be
    a deterministic function of the candidate program (true of
    :class:`MissedMarkerPredicate`); ``memoize_oracle`` then answers
    repeated candidates from a memo keyed on the printed program —
    byte-identical output, far fewer compilations.

    ``jobs`` fans speculative batch evaluations across a process pool
    (the predicate must pickle — module-level classes/functions, not
    closures); the result is byte-identical to ``jobs=1``, counters
    included.  ``speculation`` sets the batch size (default
    :data:`DEFAULT_SPECULATION`; part of the determinism contract, so
    changing it changes which candidates get evaluated).  ``memo``
    shares a verdict dict across calls — only sound when every sharer's
    predicate has a distinct ``cache_key``.  ``event_sink`` receives
    ``reduction.round``/``reduction.commit`` records (deterministic
    attrs; ``event_attrs`` is folded into each).

    ``max_oracle_calls`` caps the total number of fresh oracle
    evaluations: once the cap is reached (checked at batch boundaries,
    so still jobs-invariant) reduction stops cleanly and returns the
    best program so far.  Real campaign findings can cost thousands of
    oracle calls to shrink fully; the budget trades residual size for
    bounded wall time.  The cap is part of the determinism contract —
    the same budget always yields the same partially-reduced program.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    start = time.perf_counter()
    context = dict(event_attrs or {})
    engine = _SpeculativeEngine(
        interesting, jobs, speculation or DEFAULT_SPECULATION,
        memoize_oracle, memo, metrics, event_sink,
        max_oracle_calls=max_oracle_calls,
    )
    rounds = 0
    try:
        current = ast.clone_program(program)
        if not engine.check_initial(current):
            raise ValueError("the initial program is not interesting")
        before = count_statements(current)
        try:
            for _ in range(max_rounds):
                changed = False
                for name, generate in TRANSFORMS:
                    while True:
                        committed = engine.run_transform(
                            name, generate, current, context
                        )
                        if committed is None:
                            break
                        current = committed
                        changed = True
                rounds += 1
                if event_sink is not None:
                    event_sink(REDUCTION_ROUND, {
                        **context, "round": rounds,
                        "stmts": count_statements(current),
                        "attempts": engine.attempts,
                        "commits": engine.successes,
                    })
                if not changed:
                    break
        except _BudgetExhausted:
            # best-so-far is still a valid interesting program; the
            # round counter only covers completed rounds
            pass
    finally:
        engine.close()
    wall_time = time.perf_counter() - start
    if metrics is not None:
        metrics.histogram("reduction.wall_time_ms").observe(wall_time * 1e3)
    return ReductionResult(
        current, engine.attempts, engine.successes, before,
        count_statements(current),
        oracle_cache_hits=engine.cache_hits,
        oracle_errors=engine.errors,
        oracle_calls=engine.oracle_calls,
        speculative_wasted=engine.wasted,
        rounds=rounds,
        wall_time=wall_time,
    )


# -- transformations -------------------------------------------------------
#
# Each transformation is a generator of ``(description, candidate)``
# pairs over a *fixed* snapshot of the program, in deterministic
# largest-first order.  The engine restarts the enumeration after every
# commit (a deletion changes what later candidates should look like)
# and declares the transform done when a full enumeration commits
# nothing.


def _blocks_of(program: ast.Program):
    for func in program.functions():
        for stmt in ast.walk_stmts(func.body):
            if isinstance(stmt, ast.Block):
                yield stmt
        for stmt in ast.walk_stmts(func.body):
            if isinstance(stmt, ast.Switch):
                for case in stmt.cases:
                    yield case.body


def _drop_decl_candidates(program: ast.Program):
    """Drop whole function definitions and globals (``main`` stays)."""
    for i, decl in enumerate(program.decls):
        if isinstance(decl, ast.FuncDef) and decl.name == "main":
            continue
        candidate = ast.clone_program(program)
        del candidate.decls[i]
        name = getattr(decl, "name", decl.__class__.__name__)
        yield f"decl:{name}", candidate


def _delete_stmt_candidates(program: ast.Program):
    """ddmin-flavoured: chunk deletions (whole block, half, singles)."""
    blocks = list(_blocks_of(program))
    for b_idx, block in enumerate(blocks):
        n = len(block.stmts)
        if n == 0:
            continue
        sizes: list[int] = []
        for size in (n, max(n // 2, 1), 1):
            if size not in sizes:
                sizes.append(size)
        for size in sizes:
            for start in range(0, n, size):
                candidate = ast.clone_program(program)
                cand_blocks = list(_blocks_of(candidate))
                del cand_blocks[b_idx].stmts[start:start + size]
                yield f"stmts:b{b_idx}@{start}+{size}", candidate


def _unwrap_candidates(program: ast.Program):
    """Replace ``if (c) { body }`` by ``body``, loops by their bodies."""
    blocks = list(_blocks_of(program))
    for b_idx, block in enumerate(blocks):
        for i, stmt in enumerate(block.stmts):
            if not isinstance(stmt, (ast.If, ast.While, ast.DoWhile, ast.For)):
                continue
            candidate = ast.clone_program(program)
            cand_stmt = list(_blocks_of(candidate))[b_idx].stmts[i]
            if isinstance(cand_stmt, ast.If):
                body = list(cand_stmt.then.stmts)
            else:
                body = list(cand_stmt.body.stmts)  # type: ignore[union-attr]
            list(_blocks_of(candidate))[b_idx].stmts[i:i + 1] = body
            yield f"unwrap:b{b_idx}@{i}", candidate


def _condition_sites(program: ast.Program):
    for func in program.functions():
        for stmt in ast.walk_stmts(func.body):
            if isinstance(stmt, ast.If) and isinstance(stmt.cond, ast.Binary):
                yield stmt


def _simplify_cond_candidates(program: ast.Program):
    """Replace condition subtrees by literals (0 keeps branches dead)."""
    count = sum(1 for _ in _condition_sites(program))
    for idx in range(count):
        for literal in (0, 1):
            candidate = ast.clone_program(program)
            list(_condition_sites(candidate))[idx].cond = ast.IntLit(literal)
            yield f"cond:{idx}={literal}", candidate


TRANSFORMS: tuple[tuple[str, Callable], ...] = (
    ("drop_decls", _drop_decl_candidates),
    ("delete_stmts", _delete_stmt_candidates),
    ("unwrap", _unwrap_candidates),
    ("simplify_conds", _simplify_cond_candidates),
)


# -- finding reduction (campaign follow-up) --------------------------------


def reduction_targets(
    finding: dict, compare_level: str, version: int | None
):
    """Candidate (marker, keeper, witness) triples for one campaign
    finding dict, strongest pairing first."""
    if finding["kind"] == "cross-compiler":
        sides = (
            [("gcclike", "llvmlike", m) for m in finding.get("gcc_misses", ())]
            + [("llvmlike", "gcclike", m) for m in finding.get("llvm_misses", ())]
        )
        for keeper_family, witness_family, marker in sides:
            keeper = CompilerSpec(keeper_family, compare_level, version)
            yield marker, keeper, CompilerSpec(
                witness_family, compare_level, version
            )
            yield marker, keeper, None
    else:
        family = finding.get("family", "gcclike")
        keeper = CompilerSpec(family, compare_level, version)
        for marker in finding["markers"]:
            for witness_level in ("O2", "O1"):
                yield marker, keeper, CompilerSpec(
                    family, witness_level, version
                )
            yield marker, keeper, None


def reduce_finding(
    finding: dict,
    program: ast.Program,
    *,
    compare_level: str = "O3",
    version: int | None = None,
    max_rounds: int = 12,
    speculation: int | None = None,
    jobs: int = 1,
    memo: dict[str, bool] | None = None,
    metrics: MetricsRegistry | None = None,
    event_sink: EventSink | None = None,
    event_attrs: dict[str, Any] | None = None,
    max_oracle_calls: int | None = None,
) -> tuple[str, ReductionResult] | None:
    """Reduce one campaign finding to its paper-faithful fingerprint.

    Tries each :func:`reduction_targets` pairing until one makes the
    initial program interesting, reduces under it, and hashes the
    canonical IR of the result ("we deduplicate cases after reducing
    them", §4.3).  Returns ``(fingerprint, result)``, or ``None`` when
    no pairing holds (the structural fingerprint then applies).
    """
    from ..frontend.lower import lower_program
    from ..ir.printer import fingerprint_module

    for marker, keeper, witness in reduction_targets(
        finding, compare_level, version
    ):
        predicate = MissedMarkerPredicate(marker, keeper, witness)
        try:
            result = reduce_program(
                program, predicate, max_rounds=max_rounds, metrics=metrics,
                jobs=jobs, speculation=speculation, memo=memo,
                event_sink=event_sink, event_attrs=event_attrs,
                max_oracle_calls=max_oracle_calls,
            )
        except ValueError:
            continue  # not interesting as posed; try the next pairing
        reduced = result.program
        info = check_program(reduced)
        module_fp = fingerprint_module(lower_program(reduced, info))
        payload = {"kind": finding["kind"], "module": module_fp}
        fingerprint = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:16]
        return fingerprint, result
    return None


@dataclass(frozen=True)
class FindingReductionConfig:
    """Per-pool bootstrap for finding-reduction workers, shipped once
    per pool through the initializer."""

    generator_config: Any = None
    compare_level: str = "O3"
    version: int | None = None
    max_rounds: int = 12
    speculation: int | None = None
    fault_plan: chaos.FaultPlan | None = None
    #: per-finding oracle-call budget (``None`` = unbounded); real
    #: campaign findings can cost thousands of calls to shrink fully
    max_oracle_calls: int | None = None
    #: memo keys seeded from the persistent artifact store, so workers
    #: can tally ``store_hits`` separately from same-run memo hits
    store_keys: frozenset = frozenset()


_FINDING_WORKER: dict[str, Any] = {}


def _init_finding_worker(config: FindingReductionConfig) -> None:
    _FINDING_WORKER["config"] = config
    chaos.install_plan(config.fault_plan)


class _RecordingMemo(dict):
    """A verdict memo that remembers which entries this process added,
    so a worker ships only its *new* entries back to the parent.

    ``store_keys`` marks entries seeded from the persistent artifact
    store; hits against them tally :attr:`store_hits` (the
    ``store.oracle_hits`` counter) without affecting verdicts.
    """

    def __init__(
        self, seed_entries: dict[str, bool], store_keys=()
    ) -> None:
        super().__init__(seed_entries)
        self.added: dict[str, bool] = {}
        self._store_keys = frozenset(store_keys)
        self.store_hits = 0

    def __setitem__(self, key: str, value: bool) -> None:
        super().__setitem__(key, value)
        self.added[key] = value

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not None and key in self._store_keys:
            self.store_hits += 1
        return value


@dataclass
class FindingEnvelope:
    """Everything a reduction worker says about one finding, picklable."""

    index: int
    seed: int
    #: reduced-case fingerprint, or ``None`` when no pairing held (the
    #: ledger then falls back to the structural fingerprint)
    fingerprint: str | None
    #: recorded ``(event type, attrs)`` pairs, re-emitted by the parent
    #: in finding order
    events: list[tuple[str, dict[str, Any]]]
    #: memo entries this reduction added (seeds later submissions)
    memo: dict[str, bool]
    #: raw MetricsRegistry.dump() of the worker-side reduction counters
    metrics: dict[str, Any] | None
    #: contained crash, as a CrashEnvelope dict (``phase="reduce"``)
    crash: dict | None = None
    stats: dict[str, Any] = field(default_factory=dict)


def _reduce_finding_task(
    index: int, finding: dict, memo: dict[str, bool]
) -> FindingEnvelope:
    """Pool-worker body: regenerate the finding's program and reduce it
    (crashes contained per finding, never poisoning the queue)."""
    from ..generator import generate_program
    from .markers import instrument_program
    from .resilience import REDUCE_PHASE, crash_envelope

    config: FindingReductionConfig = _FINDING_WORKER["config"]
    seed = finding["seed"]
    registry = MetricsRegistry()
    events: list[tuple[str, dict[str, Any]]] = []
    recording = _RecordingMemo(memo, config.store_keys)
    fingerprint = None
    crash = None
    stats: dict[str, Any] = {}
    try:
        program = instrument_program(
            generate_program(seed, config.generator_config)
        ).program
        outcome = reduce_finding(
            finding, program,
            compare_level=config.compare_level, version=config.version,
            max_rounds=config.max_rounds, speculation=config.speculation,
            max_oracle_calls=config.max_oracle_calls,
            memo=recording, metrics=registry,
            event_sink=lambda type_, attrs: events.append((type_, attrs)),
            event_attrs={"seed": seed, "finding": index},
        )
        if outcome is not None:
            fingerprint, result = outcome
            stats = {
                "oracle_calls": result.oracle_calls,
                "cache_hits": result.oracle_cache_hits,
                "speculative_wasted": result.speculative_wasted,
                "wall_time": result.wall_time,
            }
    except Exception as err:
        crash = crash_envelope(seed, REDUCE_PHASE, err).to_dict()
        events.clear()  # no partial streams: a crashed reduction is silent
    if recording.store_hits:
        stats["store_hits"] = recording.store_hits
    return FindingEnvelope(
        index, seed, fingerprint, events, recording.added,
        registry.dump(), crash, stats,
    )


class _CompletedTask:
    """Future stand-in for tasks the queue ran inline at ``jobs=1``."""

    def __init__(self, envelope: FindingEnvelope) -> None:
        self._envelope = envelope

    def result(self) -> FindingEnvelope:
        return self._envelope


@dataclass
class ReductionCampaignStats:
    """Campaign-level rollup of the reduction queue's work."""

    jobs: int = 1
    submitted: int = 0
    #: findings that produced a reduced fingerprint
    reduced: int = 0
    #: findings that fell back to the structural fingerprint
    fallbacks: int = 0
    crashed: int = 0
    oracle_calls: int = 0
    cache_hits: int = 0
    speculative_wasted: int = 0
    #: memo hits answered by verdicts persisted in the artifact store
    store_hits: int = 0
    #: summed per-finding reduction wall time (worker-side seconds —
    #: overlapped with seed analysis, so not campaign critical path)
    wall_time: float = 0.0


class ReductionQueue:
    """Async finding-reduction pipeline for campaigns.

    ``submit`` is called by the campaign seed loop the moment a
    finding is recorded; each finding becomes one pool task seeded with
    a snapshot of the shared oracle memo (entries shipped back by
    already-finished reductions — the cross-worker memoization).
    ``drain`` collects envelopes **in finding order** once the seed
    loop ends: events re-emit deterministically, worker metrics fold
    into the parent registry, and crashes land in the campaign's
    crash list with ``phase="reduce"``.

    Which memo entries a snapshot happens to contain depends on
    completion timing, so the fresh-call/cache-hit *split* may vary
    across runs at ``jobs > 1`` — but verdicts never do, so
    fingerprints, events, and every other output stay deterministic.

    At effective ``jobs == 1`` no pool is spun up at all: each task
    runs in-process at submit time through the *same* task body, so
    results stay byte-identical while skipping the process-pool
    overhead (measurably negative on 1-CPU hosts).  As a bonus the
    memo split becomes deterministic, since each inline task sees
    every earlier verdict.

    ``store`` is an optional :class:`~repro.store.ArtifactStore`: the
    shared memo seeds from its persisted oracle verdicts (hits tally
    ``store.oracle_hits``) and every *new* verdict is written back
    when the queue drains — so ``reduce`` CLI reruns and later
    campaigns start warm instead of losing worker memo entries at
    process exit.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        generator_config: Any = None,
        compare_level: str = "O3",
        version: int | None = None,
        max_rounds: int = 12,
        speculation: int | None = None,
        max_oracle_calls: int | None = None,
        store=None,
    ) -> None:
        import threading

        self.jobs = max(1, jobs)
        self._store = store
        seeded: dict[str, bool] = (
            store.oracle_entries() if store is not None else {}
        )
        self._config = FindingReductionConfig(
            generator_config, compare_level, version, max_rounds,
            speculation, chaos.current_plan(), max_oracle_calls,
            frozenset(seeded),
        )
        self._pool = None
        self._tasks: list[tuple[int, int, Any]] = []  # index, seed, future
        self._memo: dict[str, bool] = dict(seeded)
        self._lock = threading.Lock()
        self.submitted = 0

    def _ensure_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        from .parallel import pool_context

        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=pool_context(),
                initializer=_init_finding_worker,
                initargs=(self._config,),
            )
        return self._pool

    def submit(self, index: int, finding: dict) -> None:
        """Queue one finding for reduction (returns immediately; the
        reduction overlaps whatever the campaign does next).

        At ``jobs == 1`` the task body runs right here in-process —
        identical results, no pool to spin up or feed.
        """
        if self.jobs == 1:
            if _FINDING_WORKER.get("config") is not self._config:
                _init_finding_worker(self._config)
            envelope = _reduce_finding_task(index, finding, dict(self._memo))
            self._memo.update(envelope.memo)
            self._tasks.append(
                (index, finding["seed"], _CompletedTask(envelope))
            )
            self.submitted += 1
            return
        pool = self._ensure_pool()
        with self._lock:
            snapshot = dict(self._memo)
        future = pool.submit(_reduce_finding_task, index, finding, snapshot)
        future.add_done_callback(self._harvest_memo)
        self._tasks.append((index, finding["seed"], future))
        self.submitted += 1

    def _harvest_memo(self, future) -> None:
        # runs on the executor's collector thread as soon as a task
        # finishes, so later submissions see earlier verdicts even
        # while the campaign is still mid-seed-loop
        try:
            envelope = future.result()
        except Exception:
            return  # worker death etc.; drain() deals with it
        with self._lock:
            self._memo.update(envelope.memo)

    def drain(
        self,
        events=None,
        metrics: MetricsRegistry | None = None,
        crashes: list | None = None,
    ) -> tuple[dict[int, str | None], ReductionCampaignStats]:
        """Wait for every queued reduction and fold the envelopes in
        finding order.  Returns ``(fingerprints by finding index,
        stats)``; reduction events re-emit onto ``events``, worker
        metric snapshots merge into ``metrics``, and contained crashes
        append to ``crashes``."""
        from concurrent.futures import BrokenExecutor

        from .resilience import CrashEnvelope, reduction_death_envelope

        stats = ReductionCampaignStats(
            jobs=self.jobs, submitted=self.submitted
        )
        fingerprints: dict[int, str | None] = {}
        persisted: dict[str, bool] = {}
        try:
            for index, seed, future in self._tasks:
                try:
                    envelope = future.result()
                except BrokenExecutor:
                    # the worker died mid-reduction; contain it like any
                    # other crash and fall back to the structural
                    # fingerprint for this finding
                    fingerprints[index] = None
                    stats.fallbacks += 1
                    stats.crashed += 1
                    if crashes is not None:
                        crashes.append(reduction_death_envelope(seed))
                    self._pool = None  # executor is unusable; new one on demand
                    continue
                fingerprints[index] = envelope.fingerprint
                if envelope.crash is not None:
                    stats.crashed += 1
                    if crashes is not None:
                        crashes.append(CrashEnvelope.from_dict(envelope.crash))
                if envelope.fingerprint is None:
                    stats.fallbacks += 1
                else:
                    stats.reduced += 1
                stats.oracle_calls += envelope.stats.get("oracle_calls", 0)
                stats.cache_hits += envelope.stats.get("cache_hits", 0)
                stats.speculative_wasted += envelope.stats.get(
                    "speculative_wasted", 0
                )
                stats.wall_time += envelope.stats.get("wall_time", 0.0)
                store_hits = envelope.stats.get("store_hits", 0)
                if store_hits:
                    stats.store_hits += store_hits
                    if metrics is not None:
                        metrics.counter("store.oracle_hits").inc(store_hits)
                persisted.update(envelope.memo)
                if metrics is not None and envelope.metrics:
                    metrics.merge(envelope.metrics)
                if events is not None and envelope.events:
                    events.emit_all(envelope.events)
        finally:
            self.close()
        if self._store is not None and persisted:
            # satellite fix: worker-discovered verdicts used to die at
            # process exit; persist them so the next run starts warm
            self._store.record_oracle_entries(persisted)
        return fingerprints, stats

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self._tasks = []
