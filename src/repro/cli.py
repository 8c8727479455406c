"""``dce-hunt`` command-line interface.

Subcommands mirror the paper's workflow:

* ``analyze FILE``      — instrument + differential-test one program
  (``--trace`` prints the span tree of the whole analysis)
* ``generate --seed N`` — print a random program (optionally instrumented)
* ``campaign``          — run a corpus campaign and print Table 1/2 shapes
  (``--metrics-out FILE.json`` snapshots latency histograms + tallies,
  ``--progress`` reports per-program throughput on stderr,
  ``--events-out FILE.jsonl`` streams typed campaign events,
  ``--ledger FILE.sqlite`` persists the run + deduplicated findings,
  ``--dashboard`` renders a live single-line status on stderr,
  ``--seed-budget``/``--checkpoint``/``--chaos`` exercise the fault
  isolation layer)
* ``runs LEDGER``       — list recorded campaign runs
* ``show-run LEDGER N`` — dump one run row as JSON
* ``report LEDGER N``   — terminal or ``--html`` report for one run
* ``compare LEDGER A B``— flag regressions between two runs
* ``crashes JOURNAL``   — bucketed crash report from a checkpoint journal
* ``profile FILE``      — per-pass wall time / IR size / marker
  attribution table for one compilation
* ``asm FILE``          — show the generated assembly for one spec
* ``bisect FILE``       — bisect a marker regression to a commit
* ``reduce FILE MARKER``— delta-reduce a case under the missed-marker
  oracle (``--jobs N`` fans candidate evaluations across a process
  pool; output is byte-identical at any jobs count)
* ``store stats|gc|export`` — inspect or compact a persistent
  artifact store (``campaign --store FILE`` / ``reduce --store FILE``
  memoize compiles, ground truth, oracle verdicts and whole seed
  analyses there, making warm reruns near-free)
* ``serve DIR``         — run the supervised campaign daemon: accept
  seed/campaign jobs over a JSON HTTP API, survive crashes and
  SIGTERM, fold findings into a durable case-lifecycle table
* ``cases DIR``         — inspect that lifecycle table (``--state``
  filters; ``cases DIR FP --report`` marks a case reported)
"""

from __future__ import annotations

import argparse
import os
import sys

from . import api
from .compilers import CompilerSpec, compile_minic
from .core.bisect import bisect_marker_regression
from .core.corpus import run_campaign
from .core.markers import MARKER_PREFIX, instrument_program
from .core.stats import format_table, pct
from .frontend.typecheck import check_program
from .generator import generate_program
from .lang import ast_nodes as ast
from .lang import parse_program, print_program
from .observability import (
    PIPELINE_SPAN,
    CompareThresholds,
    EventBus,
    JsonlEventWriter,
    LiveDashboard,
    MetricsRegistry,
    ProgressPrinter,
    RunLedger,
    Tracer,
    compare_runs,
    comparison_text,
    format_trace,
    pass_profiles,
    run_report_html,
    run_report_text,
    use_tracer,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="dce-hunt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one program")
    p_analyze.add_argument("file")
    p_analyze.add_argument(
        "--trace", action="store_true",
        help="print the span tree (compiles, pipelines, interpreter runs)",
    )
    p_analyze.add_argument(
        "--no-incremental", action="store_true",
        help="compile every spec independently instead of sharing pass "
             "work through the incremental engine (identical results)",
    )
    p_analyze.add_argument(
        "--verify-ir", action="store_true",
        help="run the IR verifier after every optimization pass and "
             "fail loudly (naming the pass) on malformed IR",
    )

    p_gen = sub.add_parser("generate", help="generate a random program")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--instrument", action="store_true")

    p_campaign = sub.add_parser("campaign", help="run a corpus campaign")
    p_campaign.add_argument("--programs", type=int, default=20)
    p_campaign.add_argument("--seed-base", type=int, default=0)
    p_campaign.add_argument(
        "--metrics-out", metavar="FILE",
        help="write a JSON metrics snapshot (per-spec compile-latency "
             "histograms, throughput, missed/primary tallies)",
    )
    p_campaign.add_argument(
        "--progress", action="store_true",
        help="report per-program progress on stderr",
    )
    p_campaign.add_argument(
        "--events-out", metavar="FILE",
        help="append one JSON line per campaign event (campaign_start, "
             "seed_done, finding, crash, campaign_end, ...); the stream "
             "is identical at any --jobs count modulo timestamps",
    )
    p_campaign.add_argument(
        "--ledger", metavar="FILE",
        help="record this run (config fingerprint, yield, pass "
             "attribution, crash buckets) and its deduplicated findings "
             "in a SQLite ledger; inspect with runs/show-run/report/compare",
    )
    p_campaign.add_argument(
        "--reduce-findings", action="store_true",
        help="reduce each finding as it is recorded (async, overlapping "
             "the remaining seed analysis) and fingerprint ledger "
             "findings by the reduced case (paper-faithful dedup)",
    )
    p_campaign.add_argument(
        "--reduce-jobs", type=int, default=1, metavar="N",
        help="worker processes for the async finding-reduction queue "
             "(0 = one per CPU); requires --reduce-findings; "
             "fingerprints and events are identical at any N",
    )
    p_campaign.add_argument(
        "--reduce-budget", type=int, default=None, metavar="N",
        help="cap oracle calls per finding reduction (deterministic: "
             "the same budget always yields the same partially-reduced "
             "case); full reductions of large findings can cost "
             "thousands of calls, so budget when wall time matters",
    )
    p_campaign.add_argument(
        "--dashboard", action="store_true",
        help="live single-line status on stderr (seeds/sec, findings, "
             "crashes, ETA); falls back to plain progress lines when "
             "stderr is not a TTY",
    )
    p_campaign.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard seeds across N worker processes (0 = one per CPU); "
             "results are identical to --jobs 1 regardless of N",
    )
    p_campaign.add_argument(
        "--no-incremental", action="store_true",
        help="compile every spec independently instead of sharing pass "
             "work through the incremental engine (identical results)",
    )
    p_campaign.add_argument(
        "--no-bytecode", action="store_true",
        help="compute ground truth on the AST-walking interpreter "
             "instead of the bytecode VM (bit-identical results, "
             "several times slower; mainly a cross-check)",
    )
    p_campaign.add_argument(
        "--window", type=int, default=None, metavar="N",
        help="cap the parallel scheduler's in-flight shard window "
             "(default jobs*3); results are identical at any window",
    )
    p_campaign.add_argument(
        "--seed-budget", type=float, default=None, metavar="SECONDS",
        help="per-seed wall-clock budget; seeds that exceed it are "
             "recorded as budget_exceeded skips instead of hanging",
    )
    p_campaign.add_argument(
        "--checkpoint", metavar="FILE",
        help="append one JSONL record per finished seed; rerunning with "
             "the same file replays finished seeds and analyzes the rest",
    )
    p_campaign.add_argument(
        "--store", metavar="FILE",
        help="persistent content-addressed artifact store (SQLite): "
             "memoizes compile results, ground-truth executions, "
             "reduction-oracle verdicts and whole per-seed analyses, "
             "so rerunning the same campaign is near-free and "
             "byte-identical; a corrupt store degrades to a cold run",
    )
    p_campaign.add_argument(
        "--chaos", action="append", metavar="SPEC", default=None,
        help="inject a fault for resilience drills, e.g. "
             "'pass:gvn:raise:3,11' or 'ground_truth:spin:17' "
             "(site:kind[:seeds]; repeatable)",
    )

    p_crashes = sub.add_parser(
        "crashes", help="summarize crash buckets from a checkpoint journal"
    )
    p_crashes.add_argument("journal")

    p_runs = sub.add_parser("runs", help="list campaign runs in a ledger")
    p_runs.add_argument("ledger")
    p_runs.add_argument(
        "--config", metavar="PREFIX", default=None,
        help="only runs whose config fingerprint starts with PREFIX",
    )
    p_runs.add_argument("--limit", type=int, default=None, metavar="N")

    p_show = sub.add_parser("show-run", help="dump one ledger run as JSON")
    p_show.add_argument("ledger")
    p_show.add_argument("run_id", type=int)

    p_report = sub.add_parser(
        "report", help="render a report for one ledger run"
    )
    p_report.add_argument("ledger")
    p_report.add_argument("run_id", type=int)
    p_report.add_argument(
        "--html", metavar="FILE", default=None,
        help="write a self-contained HTML report instead of terminal text",
    )

    p_compare = sub.add_parser(
        "compare", help="compare two ledger runs and flag regressions"
    )
    p_compare.add_argument("ledger")
    p_compare.add_argument("baseline", type=int)
    p_compare.add_argument("candidate", type=int)
    p_compare.add_argument(
        "--threshold", type=float, default=10.0, metavar="PCT",
        help="relative-change limit in percent for every regression "
             "check (default 10)",
    )
    p_compare.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 1 when any regression is flagged (CI gate)",
    )

    p_profile = sub.add_parser(
        "profile", help="per-pass time/size/marker-attribution table"
    )
    p_profile.add_argument("file")
    p_profile.add_argument("--family", default="gcclike")
    p_profile.add_argument("--level", default="O2")
    p_profile.add_argument(
        "--instrument", action="store_true",
        help="insert optimization markers before profiling (for programs "
             "not already instrumented)",
    )

    p_asm = sub.add_parser("asm", help="compile one program to assembly")
    p_asm.add_argument("file")
    p_asm.add_argument("--family", default="gcclike")
    p_asm.add_argument("--level", default="O2")

    p_bisect = sub.add_parser("bisect", help="bisect a marker regression")
    p_bisect.add_argument("file")
    p_bisect.add_argument("marker")
    p_bisect.add_argument("--family", default="llvmlike")
    p_bisect.add_argument("--level", default="O3")

    p_reduce = sub.add_parser(
        "reduce",
        help="delta-reduce a program while a marker stays missed",
    )
    p_reduce.add_argument("file")
    p_reduce.add_argument("marker")
    p_reduce.add_argument(
        "--keeper", default="llvmlike:O3", metavar="FAMILY:LEVEL",
        help="spec that must keep the marker alive (default llvmlike:O3)",
    )
    p_reduce.add_argument(
        "--witness", default="gcclike:O3", metavar="FAMILY:LEVEL",
        help="spec that must eliminate the marker (default gcclike:O3; "
             "'none' drops the witness requirement)",
    )
    p_reduce.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="evaluate speculative candidates across N worker processes "
             "(0 = one per CPU); the reduced program is byte-identical "
             "to --jobs 1",
    )
    p_reduce.add_argument(
        "--speculation", type=int, default=None, metavar="N",
        help="candidates per speculative batch (default 4; part of the "
             "determinism contract — changing it changes which "
             "candidates get evaluated)",
    )
    p_reduce.add_argument("--max-rounds", type=int, default=12, metavar="N")
    p_reduce.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="stop after N oracle calls and print the best program so "
             "far (checked at batch boundaries, so still jobs-invariant)",
    )
    p_reduce.add_argument(
        "--store", metavar="FILE",
        help="warm-start the oracle memo from a persistent artifact "
             "store and persist new verdicts back, so rerunning the "
             "same reduction costs (almost) no oracle calls",
    )

    p_store = sub.add_parser(
        "store", help="inspect or compact a persistent artifact store"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_sstats = store_sub.add_parser(
        "stats", help="table/byte counts and compression ratio"
    )
    p_sstats.add_argument("store")
    p_sgc = store_sub.add_parser(
        "gc", help="drop unreferenced program bodies and VACUUM"
    )
    p_sgc.add_argument("store")
    p_sexport = store_sub.add_parser(
        "export", help="print a stored program (or list stored hashes)"
    )
    p_sexport.add_argument("store")
    p_sexport.add_argument(
        "hash", nargs="?", default=None,
        help="sha256 of the program text (a unique prefix works); "
             "omitted = list every stored hash",
    )

    p_cbuild = sub.add_parser(
        "corpus-build", help="generate and persist an artifact corpus"
    )
    p_cbuild.add_argument("directory")
    p_cbuild.add_argument("--programs", type=int, default=10)
    p_cbuild.add_argument("--seed-base", type=int, default=0)

    p_cval = sub.add_parser(
        "corpus-validate", help="re-run a persisted corpus and diff results"
    )
    p_cval.add_argument("directory")

    p_serve = sub.add_parser(
        "serve", help="run the supervised campaign daemon"
    )
    p_serve.add_argument(
        "data_dir", help="service state directory (SQLite DBs + journals)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 picks a free one and prints it)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="concurrent campaign worker threads",
    )
    p_serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock timeout (cancelled jobs retry "
             "with backoff and resume from their journal)",
    )
    p_serve.add_argument(
        "--retry-cap", type=int, default=3,
        help="attempts before a crashing/timing-out job fails for good",
    )
    p_serve.add_argument(
        "--backoff-base", type=float, default=0.5, metavar="SECONDS",
        help="retry delay is backoff-base * 2^attempt",
    )
    p_serve.add_argument(
        "--chaos-api", action="store_true",
        help="expose POST /api/v1/chaos for fault-injection drills",
    )
    p_serve.add_argument(
        "--events-out", default=None, metavar="FILE.jsonl",
        help="stream job/case lifecycle events to a JSONL file",
    )

    p_cases = sub.add_parser(
        "cases", help="inspect a service's case-lifecycle table"
    )
    p_cases.add_argument(
        "data_dir", help="service state directory (or a service.sqlite)"
    )
    p_cases.add_argument(
        "fingerprint", nargs="?", default=None,
        help="show one case (a unique prefix works); omitted = list",
    )
    p_cases.add_argument(
        "--state", default=None,
        help="filter the listing by lifecycle state",
    )
    p_cases.add_argument(
        "--report", action="store_true",
        help="advance the named case to 'reported'",
    )

    args = parser.parse_args(argv)
    if args.command == "analyze":
        incremental = not args.no_incremental
        if args.trace:
            tracer = Tracer()
            with use_tracer(tracer):
                report = api.analyze_source(
                    _read(args.file), incremental=incremental,
                    verify_ir=args.verify_ir,
                )
            print(report.summary())
            print("\ntrace:")
            print(format_trace(tracer))
        else:
            report = api.analyze_source(
                _read(args.file), incremental=incremental,
                verify_ir=args.verify_ir,
            )
            print(report.summary())
    elif args.command == "generate":
        program = generate_program(args.seed)
        if args.instrument:
            program = instrument_program(program).program
            check_program(program)
        print(print_program(program))
    elif args.command == "campaign":
        if args.programs < 0:
            p_campaign.error(
                f"--programs must be >= 0, got {args.programs}"
            )
        if args.window is not None and args.window < 1:
            p_campaign.error(f"--window must be >= 1, got {args.window}")
        if args.reduce_jobs != 1 and not args.reduce_findings:
            p_campaign.error("--reduce-jobs requires --reduce-findings")
        if args.reduce_jobs < 0:
            p_campaign.error(
                f"--reduce-jobs must be >= 0, got {args.reduce_jobs}"
            )
        if args.reduce_budget is not None and not args.reduce_findings:
            p_campaign.error("--reduce-budget requires --reduce-findings")
        if args.reduce_budget is not None and args.reduce_budget < 1:
            p_campaign.error(
                f"--reduce-budget must be >= 1, got {args.reduce_budget}"
            )
        _campaign(args.programs, args.seed_base,
                  metrics_out=args.metrics_out, show_progress=args.progress,
                  jobs=args.jobs, incremental=not args.no_incremental,
                  seed_budget=args.seed_budget, checkpoint=args.checkpoint,
                  chaos_specs=args.chaos, events_out=args.events_out,
                  ledger_path=args.ledger, dashboard=args.dashboard,
                  reduce_findings=args.reduce_findings,
                  reduce_jobs=args.reduce_jobs,
                  reduce_budget=args.reduce_budget,
                  interp="ast" if args.no_bytecode else None,
                  window=args.window, store_path=args.store)
    elif args.command == "crashes":
        return _crashes(args.journal)
    elif args.command == "runs":
        return _runs(args.ledger, args.config, args.limit)
    elif args.command == "show-run":
        return _show_run(args.ledger, args.run_id)
    elif args.command == "report":
        return _report(args.ledger, args.run_id, args.html)
    elif args.command == "compare":
        return _compare(args.ledger, args.baseline, args.candidate,
                        args.threshold, args.fail_on_regression)
    elif args.command == "profile":
        _profile(_read(args.file), args.family, args.level, args.instrument)
    elif args.command == "asm":
        print(api.compile_to_asm(_read(args.file), args.family, args.level))
    elif args.command == "bisect":
        program = parse_program(_read(args.file))
        result = bisect_marker_regression(program, args.marker, args.family, args.level)
        if result is None:
            print("not a regression (missed at every version, or not missed at tip)")
            return 1
        print(f"first bad version: {result.first_bad}")
        print(f"commit {result.commit.sha}: {result.commit.subject}")
        print(f"component: {result.commit.component}")
        print(f"files: {', '.join(result.commit.files)}")
    elif args.command == "reduce":
        return _reduce(
            _read(args.file), args.marker, args.keeper, args.witness,
            args.jobs, args.speculation, args.max_rounds, args.budget,
            store_path=args.store,
        )
    elif args.command == "store":
        return _store(args.store_command, args.store,
                      getattr(args, "hash", None))
    elif args.command == "corpus-build":
        from .core.artifact import build_corpus

        records = build_corpus(
            args.directory,
            seeds=list(range(args.seed_base, args.seed_base + args.programs)),
        )
        print(f"wrote {len(records)} programs to {args.directory}")
    elif args.command == "corpus-validate":
        from .core.artifact import validate_corpus

        report = validate_corpus(args.directory)
        print(f"checked {report.checked} programs")
        for mismatch in report.mismatches:
            print(f"  MISMATCH: {mismatch}")
        if not report.ok:
            return 1
        print("all recorded results reproduce")
    elif args.command == "serve":
        if args.workers < 1:
            p_serve.error(f"--workers must be >= 1, got {args.workers}")
        if args.retry_cap < 1:
            p_serve.error(f"--retry-cap must be >= 1, got {args.retry_cap}")
        return _serve(args)
    elif args.command == "cases":
        if args.report and args.fingerprint is None:
            p_cases.error("--report needs a case fingerprint")
        return _cases(args.data_dir, args.fingerprint,
                      state=args.state, report=args.report)
    return 0


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _profile(source: str, family: str, level: str, instrument: bool) -> None:
    """Compile once under a tracer and print the per-pass table."""
    program = parse_program(source)
    if instrument:
        program = instrument_program(program).program
    check_program(program)
    declared_markers = sum(
        1
        for decl in program.decls
        if isinstance(decl, ast.FuncDecl) and decl.name.startswith(MARKER_PREFIX)
    )
    spec = CompilerSpec(family, level)
    tracer = Tracer()
    with use_tracer(tracer):
        compile_minic(program, spec)

    profiles = pass_profiles(tracer)
    pipeline_span = tracer.find(PIPELINE_SPAN)[0]
    markers_before = pipeline_span.attrs.get("markers_before", 0)
    rows = []
    # Markers already gone from the IR never met a pass: the frontend
    # dropped their (statically unreachable) blocks during lowering.
    frontend_killed = declared_markers - markers_before
    if frontend_killed:
        rows.append(["", "(frontend)", "", "", "", "", str(frontend_killed), ""])
    for p in profiles:
        killed = len(p.markers_eliminated)
        names = list(p.markers_eliminated[:6])
        if killed > len(names):
            names.append(f"(+{killed - len(names)} more)")
        rows.append([
            str(p.index),
            p.name,
            f"{p.wall_time * 1e3:.2f}",
            f"{p.instr_delta:+d}" if p.instr_delta else "0",
            f"{p.block_delta:+d}" if p.block_delta else "0",
            "yes" if p.changed else "",
            str(killed) if killed else "",
            ", ".join(names),
        ])
    print(format_table(
        ["#", "pass", "ms", "Δinstrs", "Δblocks", "changed",
         "markers", "killed markers"],
        rows,
        title=f"per-pass profile — {spec}",
    ))
    total_ms = pipeline_span.duration * 1e3
    first, last = profiles[0], profiles[-1]
    print(
        f"\ntotal pipeline: {total_ms:.2f} ms over {len(profiles)} passes; "
        f"instrs {first.instrs_before} -> {last.instrs_after}, "
        f"blocks {first.blocks_before} -> {last.blocks_after}, "
        f"markers {declared_markers} -> "
        f"{pipeline_span.attrs.get('markers_after', 0)}"
    )


def _spec_arg(value: str) -> CompilerSpec:
    """``family:level`` → :class:`CompilerSpec` (tip version)."""
    family, _, level = value.partition(":")
    return CompilerSpec(family, level or "O3")


def _reduce(
    source: str,
    marker: str,
    keeper: str,
    witness: str,
    jobs: int,
    speculation: int | None,
    max_rounds: int,
    budget: int | None = None,
    store_path: str | None = None,
) -> int:
    """``dce-hunt reduce <file> <marker>`` — reduced program to stdout
    (byte-identical at any ``--jobs``), stats line to stderr.

    With ``--store``, the oracle memo warm-starts from the store's
    persisted verdicts (same keys the campaign reducer uses), and the
    verdicts this run adds are persisted back — so rerunning the same
    reduction resolves almost entirely from memo.
    """
    from .core.reduction import (
        _RecordingMemo,
        missed_marker_predicate,
        reduce_program,
    )

    if jobs == 0:
        jobs = os.cpu_count() or 1
    store = None
    memo: dict[str, bool] | None = None
    if store_path:
        from .store import open_store

        store = open_store(store_path)
        if store is None:
            print(
                f"store: cannot open {store_path}; running cold",
                file=sys.stderr,
            )
        else:
            seeded = store.oracle_entries()
            memo = _RecordingMemo(seeded, frozenset(seeded))
    program = parse_program(source)
    predicate = missed_marker_predicate(
        marker,
        _spec_arg(keeper),
        None if witness == "none" else _spec_arg(witness),
    )
    try:
        result = reduce_program(
            program, predicate, max_rounds=max_rounds, jobs=jobs,
            speculation=speculation, max_oracle_calls=budget,
            memo=memo,
        )
    except ValueError:
        if store is not None:
            store.close()
        print(
            f"input is not interesting: {marker} must be dead, kept by "
            f"{keeper}, and eliminated by {witness}",
            file=sys.stderr,
        )
        return 1
    text = print_program(result.program)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    stats = (
        f"reduced {result.stmts_before} -> {result.stmts_after} statements "
        f"in {result.rounds} rounds: {result.attempts} attempts, "
        f"{result.oracle_calls} oracle calls, "
        f"{result.oracle_cache_hits} memo hits, "
        f"{result.speculative_wasted} speculative wasted, "
        f"{result.wall_time:.1f}s"
    )
    if store is not None and isinstance(memo, _RecordingMemo):
        store.record_oracle_entries(memo.added)
        store.close()
        stats += (
            f"; store: {memo.store_hits} warm hits, "
            f"{len(memo.added)} new verdicts persisted"
        )
    print(stats, file=sys.stderr)
    return 0


def _store(command: str, path: str, program_hash: str | None) -> int:
    """``dce-hunt store stats|gc|export <store>``."""
    from .store import ArtifactStore

    if not os.path.exists(path):
        print(f"no such store: {path}", file=sys.stderr)
        return 1
    try:
        store = ArtifactStore(path, read_only=(command != "gc"))
    except Exception:
        store = None
    if store is None or store.disabled:
        print(f"cannot open store: {path}", file=sys.stderr)
        return 1
    with store:
        if command == "stats":
            stats = store.stats()
            ratio = (
                stats["program_bytes"] / stats["compressed_bytes"]
                if stats["compressed_bytes"] else 0.0
            )
            rows = [
                ["programs", str(stats["programs"])],
                ["compile memo entries", str(stats["compile_memo"])],
                ["ground-truth records", str(stats["truth_memo"])],
                ["oracle verdicts", str(stats["oracle_memo"])],
                ["seed analyses", str(stats["seed_analyses"])],
                ["seed scopes", str(stats["seed_scopes"])],
                ["program text bytes", str(stats["program_bytes"])],
                ["compressed bytes",
                 f"{stats['compressed_bytes']} ({ratio:.1f}x)"],
                ["file bytes", str(stats["file_bytes"])],
            ]
            print(format_table(["", ""], rows, title=f"store {path}"))
        elif command == "gc":
            outcome = store.gc()
            print(
                f"gc: removed {outcome['removed']} unreferenced "
                f"program(s), reclaimed {outcome['reclaimed_bytes']} bytes"
            )
        elif command == "export":
            if program_hash is None:
                for h, size in store.program_hashes():
                    print(f"{h}  {size}")
                return 0
            matches = [
                h for h, _ in store.program_hashes()
                if h.startswith(program_hash)
            ]
            if not matches:
                print(f"no program {program_hash} in {path}",
                      file=sys.stderr)
                return 1
            if len(matches) > 1:
                print(
                    f"ambiguous prefix {program_hash} "
                    f"({len(matches)} matches)",
                    file=sys.stderr,
                )
                return 1
            text = store.get_program(matches[0])
            if text is None:
                print(f"cannot read program {matches[0]}", file=sys.stderr)
                return 1
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def _campaign(
    n_programs: int,
    seed_base: int,
    metrics_out: str | None = None,
    show_progress: bool = False,
    jobs: int = 1,
    incremental: bool = True,
    seed_budget: float | None = None,
    checkpoint: str | None = None,
    chaos_specs: list[str] | None = None,
    events_out: str | None = None,
    ledger_path: str | None = None,
    dashboard: bool = False,
    reduce_findings: bool = False,
    reduce_jobs: int = 1,
    reduce_budget: int | None = None,
    interp: str | None = None,
    window: int | None = None,
    store_path: str | None = None,
) -> None:
    import time

    from .testing import chaos

    # the ledger wants the metrics snapshot (pass attribution, latency
    # histograms) even when no --metrics-out file was asked for; the
    # store wants one too (hit counters feed the summary + ledger)
    metrics = (
        MetricsRegistry()
        if (metrics_out or ledger_path or store_path) else None
    )
    if jobs == 0:
        jobs = os.cpu_count() or 1
    events = writer = None
    if events_out or dashboard or show_progress:
        events = EventBus()
    if events_out:
        writer = JsonlEventWriter(events_out)
        events.subscribe(writer)
    if dashboard:
        # stderr so `campaign ... > result` stays machine-clean
        LiveDashboard(sys.stderr, metrics=metrics).attach(events)
    if show_progress:
        ProgressPrinter(sys.stderr).attach(events)
    store = None
    if store_path:
        from .store import open_store

        store = open_store(store_path, metrics=metrics)
        if store is None:
            print(
                f"store: cannot open {store_path}; running cold",
                file=sys.stderr,
            )
    plan = None
    if chaos_specs:
        plan = chaos.FaultPlan(
            tuple(chaos.parse_fault(spec) for spec in chaos_specs)
        )
        chaos.install_plan(plan)
    reduction = None
    if reduce_findings:
        from .core.reduction import ReductionQueue

        if reduce_jobs == 0:
            reduce_jobs = os.cpu_count() or 1
        reduction = ReductionQueue(
            reduce_jobs, max_oracle_calls=reduce_budget, store=store
        )
    started_at = time.time()
    wall_start = time.monotonic()
    try:
        result = run_campaign(
            n_programs=n_programs, seed_base=seed_base,
            metrics=metrics, jobs=jobs,
            incremental=incremental, seed_budget=seed_budget,
            checkpoint=checkpoint, events=events, interp=interp,
            window=window, reduction=reduction, store=store,
        )
    finally:
        if reduction is not None:
            reduction.close()
        if store is not None:
            store.close()
        if plan is not None:
            chaos.clear_plan()
        if writer is not None:
            writer.close()
    wall_time = time.monotonic() - wall_start
    if store is not None and metrics is not None:
        snapshot = metrics.to_dict()
        counters = {
            name: snapshot.get(name, {}).get("value", 0)
            for name in ("store.seeds_skipped", "store.compile_hits",
                         "store.truth_hits", "store.oracle_hits",
                         "store.errors")
        }
        line = (
            f"store: {counters['store.seeds_skipped']} seeds replayed, "
            f"{counters['store.compile_hits']} compile hits, "
            f"{counters['store.truth_hits']} truth hits, "
            f"{counters['store.oracle_hits']} oracle hits"
        )
        if counters["store.errors"] or store.disabled:
            line += (
                f" ({counters['store.errors']} store errors; "
                "degraded to cold)"
            )
        print(line, file=sys.stderr)
    if metrics is not None and metrics_out:
        metrics.write_json(metrics_out)
        print(f"metrics written to {metrics_out}", file=sys.stderr)
    if ledger_path:
        with RunLedger(ledger_path) as ledger:
            run_id = ledger.record_run(
                result, n_programs=n_programs, seed_base=seed_base,
                jobs=jobs, incremental=incremental, metrics=metrics,
                wall_time=wall_time, started_at=started_at,
                reduce_findings=reduce_findings, interp=interp,
                window=window,
                reduce_jobs=reduce_jobs if reduce_findings else None,
                store_used=store is not None,
            )
        print(f"ledger: recorded run {run_id} in {ledger_path}",
              file=sys.stderr)
    print(
        f"programs: {len(result.seeds)} (skipped {len(result.skipped)}), "
        f"markers: {result.total_markers}, dead: {pct(result.dead_pct)}"
    )
    if result.reduction_stats is not None:
        stats = result.reduction_stats
        print(
            f"reduction: {stats.reduced}/{stats.submitted} findings reduced "
            f"({stats.fallbacks} structural fallbacks, "
            f"{stats.crashed} crashed) with {stats.oracle_calls} oracle "
            f"calls, {stats.cache_hits} memo hits across "
            f"{stats.jobs} worker(s)"
        )
    if result.crashes or result.budget_exceeded or result.degraded:
        print(
            f"fault isolation: {len(result.crashes)} crashes in "
            f"{len(result.crash_buckets)} buckets, "
            f"{len(result.budget_exceeded)} over budget, "
            f"{len(result.degraded)} degraded (non-incremental retry)"
        )
        if result.crashes:
            print(_crash_bucket_table(result.crash_buckets))
    rows = []
    for level in ("O0", "O1", "Os", "O2", "O3"):
        g = result.level_stats("gcclike", level)
        l = result.level_stats("llvmlike", level)
        rows.append([level, pct(g.missed_pct), pct(l.missed_pct),
                     pct(g.primary_missed_pct), pct(l.primary_missed_pct)])
    print(format_table(
        ["level", "gcc missed", "llvm missed", "gcc primary", "llvm primary"],
        rows, title="\n% of dead markers missed (Tables 1 & 2 shape)",
    ))
    cc = result.cross_compiler
    print(
        f"\ncross-compiler @O3: gcclike misses {cc.gcc_misses_llvm_catches} "
        f"that llvmlike catches (primary {cc.gcc_primary}); llvmlike misses "
        f"{cc.llvm_misses_gcc_catches} (primary {cc.llvm_primary})"
    )
    for family, stats in result.cross_level.items():
        print(
            f"cross-level {family}: O3 misses {stats.missed_at_high} markers "
            f"seized at O1/O2 (primary {stats.primary})"
        )


def _crash_bucket_table(buckets) -> str:
    """Render deduplicated crash buckets as a table."""
    rows = []
    for bucket, envelopes in buckets.items():
        seeds = [str(e.seed) for e in envelopes[:5]]
        if len(envelopes) > len(seeds):
            seeds.append(f"(+{len(envelopes) - len(seeds)} more)")
        first = envelopes[0]
        rows.append([
            bucket,
            str(len(envelopes)),
            first.phase,
            ", ".join(seeds),
            first.repro,
        ])
    return format_table(
        ["bucket", "count", "phase", "seeds", "repro"],
        rows, title="crash buckets",
    )


def _open_ledger(path: str) -> RunLedger | None:
    if not os.path.exists(path):
        print(f"no such ledger: {path}", file=sys.stderr)
        return None
    return RunLedger(path)


def _runs(path: str, config: str | None, limit: int | None) -> int:
    """``dce-hunt runs <ledger>`` — one line per recorded campaign."""
    import time as _time

    ledger = _open_ledger(path)
    if ledger is None:
        return 1
    with ledger:
        rows = ledger.runs(config=config, limit=limit)
    if not rows:
        print("no runs recorded")
        return 0
    table = [[
        str(r.run_id),
        _time.strftime("%Y-%m-%d %H:%M", _time.localtime(r.started_at)),
        r.config_fingerprint,
        str(r.programs),
        str(r.completed),
        str(r.findings),
        str(r.crashed),
        f"{r.dead_pct:.1f}%",
        f"{r.wall_time:.1f}s",
        f"j{r.jobs}" + ("" if r.incremental else " noinc")
        + ("" if (r.interp or "bytecode") == "bytecode" else f" {r.interp}"),
    ] for r in rows]
    print(format_table(
        ["run", "started", "config", "progs", "done", "findings",
         "crashes", "dead", "wall", "flags"],
        table,
    ))
    return 0


def _show_run(path: str, run_id: int) -> int:
    """``dce-hunt show-run <ledger> <id>`` — the full row as JSON."""
    import dataclasses
    import json

    ledger = _open_ledger(path)
    if ledger is None:
        return 1
    with ledger:
        run = ledger.run(run_id)
        findings = ledger.findings(run_id) if run is not None else []
    if run is None:
        print(f"no run {run_id} in {path}", file=sys.stderr)
        return 1
    payload = dataclasses.asdict(run)
    payload["findings_detail"] = [dataclasses.asdict(f) for f in findings]
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _report(path: str, run_id: int, html_out: str | None) -> int:
    """``dce-hunt report <ledger> <id> [--html FILE]``."""
    ledger = _open_ledger(path)
    if ledger is None:
        return 1
    with ledger:
        run = ledger.run(run_id)
        findings = ledger.findings(run_id) if run is not None else []
        counts = ledger.lifecycle_counts() if run is not None else {}
    if run is None:
        print(f"no run {run_id} in {path}", file=sys.stderr)
        return 1
    # lifecycle section only when the ledger actually carries cases
    # (one-shot campaign ledgers have none; service ledgers do)
    lifecycle = counts if any(counts.values()) else None
    if html_out:
        with open(html_out, "w") as handle:
            handle.write(run_report_html(run, findings, lifecycle))
        print(f"report written to {html_out}", file=sys.stderr)
    else:
        print(run_report_text(run, findings, lifecycle))
    return 0


def _compare(
    path: str,
    baseline_id: int,
    candidate_id: int,
    threshold_pct: float,
    fail_on_regression: bool,
) -> int:
    """``dce-hunt compare <ledger> <baseline> <candidate>``."""
    ledger = _open_ledger(path)
    if ledger is None:
        return 1
    with ledger:
        baseline = ledger.run(baseline_id)
        candidate = ledger.run(candidate_id)
    for run_id, row in ((baseline_id, baseline), (candidate_id, candidate)):
        if row is None:
            print(f"no run {run_id} in {path}", file=sys.stderr)
            return 1
    fraction = threshold_pct / 100.0
    comparison = compare_runs(baseline, candidate, CompareThresholds(
        pass_execs_saved_drop=fraction,
        compilations_increase=fraction,
        yield_drop=fraction,
    ))
    print(comparison_text(comparison))
    if fail_on_regression and not comparison.ok:
        return 1
    return 0


def _crashes(journal: str) -> int:
    """``dce-hunt crashes <journal>`` — bucketed crash report."""
    from .core.resilience import bucket_crashes, read_journal_crashes

    if not os.path.exists(journal):
        print(f"no such journal: {journal}", file=sys.stderr)
        return 1
    crashes = read_journal_crashes(journal)
    if not crashes:
        print("no crashes recorded")
        return 0
    print(_crash_bucket_table(bucket_crashes(crashes)))
    return 0


def _serve(args) -> int:
    """``dce-hunt serve <dir>`` — run the campaign daemon."""
    from .service import serve

    events = None
    writer = None
    if args.events_out is not None:
        events = EventBus()
        writer = events.subscribe(JsonlEventWriter(args.events_out))
    try:
        return serve(
            args.data_dir,
            host=args.host,
            port=args.port,
            workers=args.workers,
            job_timeout=args.job_timeout,
            retry_cap=args.retry_cap,
            backoff_base=args.backoff_base,
            chaos_api=args.chaos_api,
            events=events,
            on_ready=lambda host, port: print(
                f"listening on http://{host}:{port}", flush=True
            ),
        )
    finally:
        if writer is not None:
            writer.close()


def _service_db(data_dir: str) -> str | None:
    """Resolve a ``cases`` argument to the service SQLite file."""
    from .service.core import SERVICE_DB

    path = (
        os.path.join(data_dir, SERVICE_DB)
        if os.path.isdir(data_dir)
        else data_dir
    )
    if not os.path.exists(path):
        print(f"no service database at {path}", file=sys.stderr)
        return None
    return path


def _cases(
    data_dir: str,
    fingerprint: str | None,
    *,
    state: str | None,
    report: bool,
) -> int:
    """``dce-hunt cases <dir> [fp]`` — lifecycle table inspection."""
    import json

    from .observability.ledger import CASE_STATES

    path = _service_db(data_dir)
    if path is None:
        return 1
    if state is not None and state not in CASE_STATES:
        print(
            f"unknown state {state!r}; one of {CASE_STATES}",
            file=sys.stderr,
        )
        return 1
    with RunLedger(path) as ledger:
        if fingerprint is None:
            rows = ledger.cases(state)
            counts = ledger.lifecycle_counts()
            header = "  ".join(
                f"{name}={counts[name]}" for name in CASE_STATES
            )
            print(header)
            table = []
            for case in rows:
                table.append([
                    case.fingerprint[:16],
                    case.state,
                    case.kind,
                    ",".join(str(s) for s in case.seeds[:4])
                    + ("…" if len(case.seeds) > 4 else ""),
                    str(case.occurrences),
                ])
            print(format_table(
                ["fingerprint", "state", "kind", "seeds", "occ"], table
            ))
            return 0
        matches = [
            case for case in ledger.cases()
            if case.fingerprint.startswith(fingerprint)
        ]
        if not matches:
            resolved = ledger.case(fingerprint)
            matches = [resolved] if resolved is not None else []
        if not matches:
            print(f"no case matches {fingerprint!r}", file=sys.stderr)
            return 1
        if len(matches) > 1:
            print(
                f"ambiguous prefix {fingerprint!r}"
                f" ({len(matches)} matches)",
                file=sys.stderr,
            )
            return 1
        case = matches[0]
        if report:
            canonical, advanced = ledger.advance_case(
                case.fingerprint, "reported"
            )
            case = ledger.case(canonical)
            if not advanced:
                print("already reported", file=sys.stderr)
        print(json.dumps(case.to_dict(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
