"""Campaign scaling — programs/sec of the campaign at jobs ∈ {1, 2, 4}
on one corpus, plus the pool scheduler's streaming window against an
all-shards-upfront (barriered) one.

The paper's 10k-file campaigns are embarrassingly parallel per seed
(diopter's ``generate_programs_parallel`` shape); this bench records
how the process-pool envelope source scales on the host and asserts
that the merged result stays byte-identical to the in-process run at
every jobs count and window — the determinism guarantee that makes
``--jobs`` safe to use everywhere.

Method: every variant runs once per repetition, repetitions
interleaved (ABAB...), so host-speed drift hits every row alike; each
row reports the median wall time and rate with the rate's
interquartile range.

``CAMPAIGN_SCALING_PROGRAMS`` overrides the corpus size (default 50).
"""

import os
import statistics
import time

from repro.core.corpus import run_campaign
from repro.core.parallel import shard_seeds
from repro.core.stats import format_table

from conftest import emit

PROGRAMS = int(os.environ.get("CAMPAIGN_SCALING_PROGRAMS", "50"))
#: repetitions per variant: the fewest that give a median and a spread
REPS = 3
SEED_BASE = 40_000

#: (row label, jobs, window); the first row is the speedup base.  The
#: two jobs=2 rows compare the streaming scheduler (default bounded
#: window) with the old barriered one (every shard submitted upfront).
VARIANTS = (
    ("1", 1, None),
    ("2 streaming", 2, None),
    ("4", 4, None),
    ("2 barriered", 2, 1_000_000),
)


def _fingerprint(result):
    return (
        result.seeds,
        result.skipped,
        result.total_markers,
        result.total_dead,
        result.by_level,
        result.cross_compiler,
        result.cross_level,
        result.findings,
        result.soundness_violations,
    )


def _run(jobs, window):
    start = time.perf_counter()
    result = run_campaign(
        n_programs=PROGRAMS, seed_base=SEED_BASE, jobs=jobs, window=window
    )
    elapsed = time.perf_counter() - start
    done = len(result.seeds) + len(result.skipped)
    return result, elapsed, done / elapsed


def _iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def test_campaign_scaling(benchmark):
    benchmark(lambda: shard_seeds(range(10_000), jobs=4))
    runs = {label: [] for label, _, _ in VARIANTS}
    for _ in range(REPS):
        for label, jobs, window in VARIANTS:
            runs[label].append(_run(jobs, window))

    base_fingerprint = _fingerprint(runs[VARIANTS[0][0]][0][0])
    base_rate = statistics.median(r[2] for r in runs[VARIANTS[0][0]])
    rows = []
    for label, _, _ in VARIANTS:
        rates = [rate for _, _, rate in runs[label]]
        rate = statistics.median(rates)
        identical = all(
            _fingerprint(result) == base_fingerprint
            for result, _, _ in runs[label]
        )
        rows.append([
            label,
            f"{statistics.median(r[1] for r in runs[label]):.1f}",
            f"{rate:.2f}",
            f"{_iqr(rates):.2f}",
            f"{rate / base_rate:.2f}x",
            "yes" if identical else "NO",
        ])
    lines = [
        f"Campaign scaling — {PROGRAMS} programs, seed base {SEED_BASE}, "
        f"{os.cpu_count()} CPU(s), median of {REPS} interleaved reps",
        format_table(
            ["jobs", "seconds", "programs/sec", "rate IQR", "speedup",
             "identical result"],
            rows,
        ),
    ]
    emit("campaign_scaling", "\n".join(lines))

    for label, _, _ in VARIANTS:
        for result, _, rate in runs[label]:
            # determinism is the hard guarantee; speedup depends on cores
            assert rate > 0, label
            assert _fingerprint(result) == base_fingerprint, label
