"""Run reports and cross-run regression comparison.

Renders one :class:`~repro.observability.ledger.RunRow` as a terminal
report or a self-contained HTML page (``dce-hunt report``), and
compares two runs (``dce-hunt compare``) flagging regressions against
configurable thresholds:

* **compilation-cost increase** — ``campaign.compilations`` per
  program rose (cache or sharing regression);
* **yield drop** — findings per completed program fell (generator or
  oracle regression);
* **interpreter throughput drop** — ``interp.steps`` per wall-clock
  second fell (ground-truth engine slowdown, e.g. a bytecode-VM
  regression or an accidental ``--no-bytecode`` run).

All comparisons normalize per completed program so runs of different
sizes compare meaningfully.  The HTML report embeds its styling inline
and references nothing external, so it can be archived as a single CI
artifact.
"""

from __future__ import annotations

import html
import time
from dataclasses import dataclass, field

from .ledger import FindingRow, RunRow

COMPILATIONS = "campaign.compilations"
INTERP_STEPS = "interp.steps"


def steps_per_sec(run: RunRow) -> float:
    """Ground-truth interpreter throughput: total ``interp.steps``
    over campaign wall time (0 when either is unrecorded)."""
    if run.wall_time <= 0:
        return 0.0
    return run.metric_value(INTERP_STEPS) / run.wall_time

LATENCY_PREFIX = "compile_latency_ms/"
PERCENTILE_KEYS = ("p50", "p90", "p99")


# -- comparison ------------------------------------------------------------


@dataclass(frozen=True)
class CompareThresholds:
    """Relative-change limits; fractions (0.10 = 10%)."""

    compilations_increase: float = 0.10
    yield_drop: float = 0.10
    steps_per_sec_drop: float = 0.10


@dataclass
class Delta:
    """One compared quantity between baseline and candidate."""

    name: str
    baseline: float
    candidate: float
    #: signed relative change vs baseline (0.25 = +25%); ``None``
    #: when the baseline is 0 and the candidate is not
    change: float | None
    regression: bool = False
    note: str = ""

    @property
    def change_pct(self) -> str:
        if self.change is None:
            return "n/a"
        return f"{self.change:+.1%}"


@dataclass
class RunComparison:
    """``compare_runs`` output: every delta plus the regressed subset."""

    baseline: RunRow
    candidate: RunRow
    deltas: list[Delta] = field(default_factory=list)

    @property
    def regressions(self) -> list[Delta]:
        return [d for d in self.deltas if d.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _relative_change(baseline: float, candidate: float) -> float | None:
    if baseline == 0:
        return None if candidate else 0.0
    return (candidate - baseline) / baseline


def compare_runs(
    baseline: RunRow,
    candidate: RunRow,
    thresholds: CompareThresholds | None = None,
) -> RunComparison:
    """Compare ``candidate`` against ``baseline`` (see module docs)."""
    limits = thresholds or CompareThresholds()
    comparison = RunComparison(baseline, candidate)

    def add(
        name: str,
        base: float,
        cand: float,
        *,
        bad_drop: float | None = None,
        bad_rise: float | None = None,
        note: str = "",
    ) -> Delta:
        change = _relative_change(base, cand)
        regression = False
        if bad_drop is not None:
            # a vanished quantity (baseline > 0, candidate 0) is a
            # full drop; a quantity absent on both sides is no change
            drop = -(change if change is not None else 0.0)
            regression = base > 0 and drop > bad_drop
        if bad_rise is not None and change is not None:
            regression = regression or change > bad_rise
        if bad_rise is not None and change is None:
            regression = True  # appeared out of nothing: treat as rise
        delta = Delta(name, base, cand, change, regression, note)
        comparison.deltas.append(delta)
        return delta

    add(
        "compilations/program",
        baseline.per_program(COMPILATIONS),
        candidate.per_program(COMPILATIONS),
        bad_rise=limits.compilations_increase,
        note="compile cost",
    )
    add(
        "findings/program",
        baseline.findings / baseline.completed if baseline.completed else 0.0,
        candidate.findings / candidate.completed if candidate.completed else 0.0,
        bad_drop=limits.yield_drop,
        note="campaign yield",
    )
    add(
        "interp_steps_per_sec",
        steps_per_sec(baseline),
        steps_per_sec(candidate),
        bad_drop=limits.steps_per_sec_drop,
        note="ground-truth interpreter throughput",
    )
    # informational rows (never flagged)
    add("dead_markers_pct", baseline.dead_pct, candidate.dead_pct)
    add("crashes", baseline.crashed, candidate.crashed)
    add("wall_time_s", baseline.wall_time, candidate.wall_time)
    return comparison


def comparison_text(comparison: RunComparison) -> str:
    """Terminal rendering of a :class:`RunComparison`."""
    a, b = comparison.baseline, comparison.candidate
    lines = [
        f"compare: run {a.run_id} (baseline) -> run {b.run_id} (candidate)",
        f"  configs: {a.config_fingerprint} -> {b.config_fingerprint}"
        + ("" if a.config_fingerprint == b.config_fingerprint else "  [differ]"),
        "",
    ]
    rows = [
        (
            ("REGRESSION" if d.regression else "ok"),
            d.name,
            f"{d.baseline:.3f}",
            f"{d.candidate:.3f}",
            d.change_pct,
            d.note,
        )
        for d in comparison.deltas
    ]
    lines.extend(_text_table(
        ("", "metric", "baseline", "candidate", "change", ""), rows
    ))
    lines.append("")
    if comparison.ok:
        lines.append("no regressions")
    else:
        names = ", ".join(d.name for d in comparison.regressions)
        lines.append(f"{len(comparison.regressions)} regression(s): {names}")
    return "\n".join(lines)


# -- single-run report -----------------------------------------------------


def _fmt_when(epoch: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(epoch))


def _report_sections(
    run: RunRow, findings: list[FindingRow]
) -> list[tuple[str, list[tuple], list[tuple]]]:
    """(title, header row, data rows) triples shared by both renderers."""
    sections: list[tuple[str, list[tuple], list[tuple]]] = []

    sections.append((
        "Outcome",
        [("completed", "skipped", "crashed", "budget",
          "markers", "dead", "dead %", "findings", "soundness")],
        [(run.completed, run.skipped, run.crashed, run.budget_exceeded,
          run.total_markers, run.total_dead,
          f"{run.dead_pct:.1f}", run.findings, run.soundness_violations)],
    ))

    sections.append((
        "Marker yield by O-level",
        [("pipeline", "dead total", "missed", "primary")],
        [
            (spec, s["dead_total"], s["missed"], s["primary_missed"])
            for spec, s in sorted(run.by_level.items())
        ],
    ))

    if run.shape_yield:
        sections.append((
            "Yield by program shape",
            [("shape", "programs", "markers", "dead", "missed", "primary",
              "findings", "findings/program")],
            [
                (shape, s["programs"], s["markers"], s["dead"], s["missed"],
                 s["primary"], s["findings"],
                 f"{s['findings'] / s['programs']:.2f}" if s["programs"] else "0")
                for shape, s in sorted(run.shape_yield.items())
            ],
        ))

    if run.pass_attribution:
        total = sum(run.pass_attribution.values())
        sections.append((
            "Marker kills by pass",
            [("pass", "markers killed", "share")],
            [
                (name, kills, f"{100.0 * kills / total:.1f}%")
                for name, kills in sorted(
                    run.pass_attribution.items(), key=lambda kv: -kv[1]
                )
            ],
        ))

    latency_rows = []
    for name, entry in sorted(run.metrics.items()):
        if not name.startswith(LATENCY_PREFIX) or entry.get("type") != "histogram":
            continue
        if not entry.get("count"):
            continue
        latency_rows.append((
            name[len(LATENCY_PREFIX):],
            entry["count"],
            f"{entry.get('mean', 0.0):.2f}",
            *(f"{entry.get(k, 0.0):.2f}" for k in PERCENTILE_KEYS),
        ))
    if latency_rows:
        sections.append((
            "Compile latency (ms)",
            [("pipeline", "count", "mean", *PERCENTILE_KEYS)],
            latency_rows,
        ))

    if run.crash_buckets:
        sections.append((
            "Crash buckets",
            [("bucket", "crashes")],
            sorted(run.crash_buckets.items()),
        ))

    if run.reduction_oracle_calls:
        cache_hits = run.metric_value("reduction.oracle_cache_hits")
        total = run.reduction_oracle_calls + cache_hits
        sections.append((
            "Finding reduction",
            [("reduce jobs", "oracle calls", "cache hits", "memo hit %",
              "speculative wasted", "reduce wall (s)")],
            [(
                run.reduce_jobs or 1,
                run.reduction_oracle_calls,
                int(cache_hits),
                f"{100.0 * cache_hits / total:.1f}%" if total else "0%",
                run.reduction_speculative_wasted or 0,
                f"{run.reduction_wall_time or 0.0:.1f}",
            )],
        ))

    if run.store_seeds_skipped is not None:
        # a --store run: show how much of it resolved from the store.
        # compilations counts only *cold* compiles, so hit rate is
        # hits / (hits + compiles); replayed seeds never reach the
        # compile layer at all and get their own column.
        compile_hits = run.store_compile_hits or 0
        cold = int(run.metric_value(COMPILATIONS))
        compile_total = compile_hits + cold
        sections.append((
            "Persistent store",
            [("seeds replayed", "compile hits", "compile hit %",
              "truth hits", "oracle hits", "store errors")],
            [(
                run.store_seeds_skipped,
                compile_hits,
                f"{100.0 * compile_hits / compile_total:.1f}%"
                if compile_total else "n/a",
                run.store_truth_hits or 0,
                run.store_oracle_hits or 0,
                int(run.metric_value("store.errors")),
            )],
        ))

    if findings:
        sections.append((
            "Findings (deduplicated)",
            [("fingerprint", "kind", "occurrences", "first run", "last run",
              "seeds")],
            [
                (f.fingerprint, f.kind, f.occurrences, f.first_seen_run,
                 f.last_seen_run,
                 ", ".join(str(s) for s in f.seeds[:8])
                 + ("…" if len(f.seeds) > 8 else ""))
                for f in findings
            ],
        ))
    return sections


def _interp_blurb(run: RunRow) -> str:
    blurb = f"interp={run.interp or 'bytecode'}"
    rate = steps_per_sec(run)
    if rate > 0:
        blurb += f" ({rate:,.0f} steps/sec)"
    return blurb


def _run_header(run: RunRow) -> list[str]:
    return [
        f"run {run.run_id}  [{_fmt_when(run.started_at)}]"
        f"  config {run.config_fingerprint}",
        f"  {run.programs} programs from seed {run.seed_base}, "
        f"compare {run.compare_level}, jobs={run.jobs}, "
        f"{_interp_blurb(run)}, "
        f"wall {run.wall_time:.1f}s",
    ]


def _lifecycle_section(lifecycle: dict) -> tuple:
    """A report section for the service's case-lifecycle tallies
    (``found -> reduced -> bisected -> reported``)."""
    states = list(lifecycle)
    return (
        "case lifecycle",
        [tuple(states)],
        [tuple(lifecycle[state] for state in states)],
    )


def run_report_text(
    run: RunRow,
    findings: list[FindingRow],
    lifecycle: dict | None = None,
) -> str:
    """Terminal report for one ledger run.  ``lifecycle`` (the
    service's :meth:`~.ledger.RunLedger.lifecycle_counts`) adds a
    case-state tally section when the ledger carries cases."""
    lines = _run_header(run)
    sections = list(_report_sections(run, findings))
    if lifecycle is not None:
        sections.append(_lifecycle_section(lifecycle))
    for title, header, rows in sections:
        lines.append("")
        lines.append(f"== {title} ==")
        lines.extend(_text_table(header[0], rows))
    return "\n".join(lines)


def _text_table(header: tuple, rows: list[tuple]) -> list[str]:
    table = [tuple(str(c) for c in header)]
    table.extend(tuple(str(c) for c in row) for row in rows)
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    out = []
    for index, row in enumerate(table):
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if index == 0:
            out.append("  ".join("-" * w for w in widths))
    return out


_HTML_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 70rem; color: #222; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 1.6rem; }
.meta { color: #555; }
table { border-collapse: collapse; margin-top: .4rem; }
th, td { border: 1px solid #ccc; padding: .25rem .6rem;
         font-size: .85rem; text-align: left; }
th { background: #f2f2f2; }
tr:nth-child(even) td { background: #fafafa; }
code { background: #f4f4f4; padding: 0 .2rem; }
""".strip()


def run_report_html(
    run: RunRow,
    findings: list[FindingRow],
    lifecycle: dict | None = None,
) -> str:
    """Self-contained single-file HTML report (inline CSS, no external
    references — safe to archive as a CI artifact)."""
    esc = html.escape
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>dce-hunt run {run.run_id}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>dce-hunt run {run.run_id}</h1>",
        '<p class="meta">'
        + esc(
            f"{_fmt_when(run.started_at)} · config {run.config_fingerprint}"
            f" · {run.programs} programs from seed {run.seed_base}"
            f" · compare {run.compare_level} · jobs={run.jobs}"
            f" · {_interp_blurb(run)}"
            f" · wall {run.wall_time:.1f}s"
        )
        + "</p>",
    ]
    sections = list(_report_sections(run, findings))
    if lifecycle is not None:
        sections.append(_lifecycle_section(lifecycle))
    for title, header, rows in sections:
        parts.append(f"<h2>{esc(title)}</h2>")
        parts.append("<table><tr>")
        parts.extend(f"<th>{esc(str(c))}</th>" for c in header[0])
        parts.append("</tr>")
        for row in rows:
            parts.append("<tr>")
            parts.extend(f"<td>{esc(str(c))}</td>" for c in row)
            parts.append("</tr>")
        parts.append("</table>")
    parts.append("</body></html>")
    return "\n".join(parts)
