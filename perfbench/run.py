"""End-to-end benchmark of the DCE-hunting campaign and reducer.

Run from the repository root::

    python3 perfbench/run.py --workload campaign_cold --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same work in this process at jobs=1, alternating
untraced and traced units, and reports the per-layer breakdown (self
time per seed, or per oracle call on ``reduce_finding``; counts per
unit) and writes the raw spans to ``.perfbench_work/spans-*.jsonl``.
The workloads and their fixed seed ranges are in ``perfbench/spec.json``;
``--heldout`` runs a workload's held-out range instead.  Every metric
is printed by name with its unit, and the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

All files go to a scratch directory under the repository root, removed
on exit.  Without the program's sources next to this directory the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout", action="store_true",
                        help="run the workload's held-out seed range")
    # internal: one fresh process timing setup_s
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program():
    """Make the sources importable; exit 2 when they are not there."""
    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        print(f"perfbench: no program sources at {SOURCES}", file=sys.stderr)
        sys.exit(2)
    for path in (SOURCES, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def _workload(args, workdir: str, *, jobs=None, size=None):
    import workloads

    spec = workloads.load_spec()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    return workloads.WORKLOADS[args.workload](
        spec, workdir, args.seed, heldout=args.heldout, jobs=jobs, size=size,
    )


def probe(args) -> None:
    """Child side of a setup_s sample: set up, report the moment the
    first timed operation could start (CLOCK_MONOTONIC is system-wide)."""
    workload = _workload(args, args.workdir)
    workload.setup()
    ready = time.monotonic()
    workload.close()
    print(json.dumps({"ready": ready}))


def setup_samples(args, workdir: str, count: int) -> list[float]:
    """``count`` fresh processes, each timed from spawn to set-up done."""
    samples = []
    for _ in range(count):
        command = [
            sys.executable, os.path.abspath(__file__), "--probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", workdir,
        ] + (["--heldout"] if args.heldout else [])
        start = time.monotonic()
        done = subprocess.run(
            command, capture_output=True, text=True, check=True, timeout=120,
        )
        ready = json.loads(done.stdout.strip().splitlines()[-1])["ready"]
        samples.append(ready - start)
    return samples


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key: int) -> None:
        self.key = key
        self.kids: list = []


def reference_work() -> int:
    """A fixed pure-Python routine (objects, lists, dicts, strings) that
    shares no code with the program: its duration tracks how fast the
    host runs Python right now."""
    total = 0
    for _ in range(12):
        nodes = [_Node(i) for i in range(20000)]
        for i in range(1, len(nodes)):
            nodes[(i * 7919) % i].kids.append(nodes[i])
        index = {node.key: node for node in nodes}
        stack = [nodes[0]]
        while stack:
            node = stack.pop()
            total += node.key % 13
            stack.extend(node.kids)
        total += sum(len(str(key)) for key in index)
    return total


def calibrate() -> float:
    """Seconds :func:`reference_work` takes, with the cyclic GC off so
    the program's live heap does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        reference_work()
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


#: at most one calibration per this many seconds of units
CALIBRATE_EVERY_S = 2.0


def run_units(workload, seconds: float) -> tuple[list, list[float], float]:
    """Repeat the workload's unit while another one fits in ``seconds``
    (at least one), calibrating between units and after the last;
    return the units, the calibrations, and the peak RSS after the
    first unit, so that memory does not depend on how many units fit."""
    units = []
    calibrations: list[float] = []
    start = time.perf_counter()
    calibrated = float("-inf")
    while True:
        if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            calibrations.append(calibrate())
            calibrated = time.perf_counter()
        workload.prepare()
        began = time.perf_counter()
        units.append(workload.unit())
        last = time.perf_counter() - began
        if len(units) == 1:
            rss = peak_rss_mb()
        if time.perf_counter() - start + last > seconds:
            calibrations.append(calibrate())
            return units, calibrations, rss


def peak_rss_mb() -> float:
    """Peak RSS of this process and its waited-for children, in MiB."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def end_to_end(
    units, calibrations: list[float], reference_s: float,
    setup: list[float], rss: float,
) -> dict[str, float]:
    """Medians over the units.  Rates are scaled to the host speed at
    which :func:`reference_work` takes ``reference_s``: the host's
    speed drifts by up to ~25% over minutes, and the calibrations
    interleaved with the units measure that drift (the unscaled rates
    are reported too, as ``*.raw``)."""
    reduce = any(u.reduced for u in units)
    seeds = statistics.median(u.seeds / u.campaign_s for u in units)
    findings = statistics.median(
        (u.reduced / u.reduce_s) if reduce else (u.findings / u.campaign_s)
        for u in units
    )
    speed = statistics.median(calibrations) / reference_s
    return {
        "setup_s": statistics.median(setup),
        "seeds_per_s": seeds * speed,
        "findings_per_s": findings * speed,
        "peak_rss_mb": rss,
        "seeds_per_s.raw": seeds,
        "findings_per_s.raw": findings,
        "calibration_s": statistics.median(calibrations),
    }


#: interleaved untraced/traced repetitions in a traced run
TRACE_REPS = 2
STORE_COUNTERS = ("store.compile_hits", "store.seeds_skipped")


def _unit_counts(workload, tracer, unit, store: dict) -> dict[str, float]:
    """The counts one traced unit made (deterministic for fixed code)."""
    counts = tracer.counts
    execs = counts["compilers.pass_execs"]
    saved = counts["compilers.pass_execs_saved"]
    reduction = unit.counts
    calls = reduction.get("oracle_calls", 0)
    return {
        "interp.steps": counts["interp.steps"],
        "ir.clone_calls": tracer.calls["ir.clone"],
        "ir.fingerprint_calls": tracer.calls["ir.fingerprint"],
        "compilers.pass_execs": execs,
        "compilers.pass_execs_saved": saved,
        "compilers.memo_hits": counts["compile.memo_hits"],
        "compilers.prefix_hits": counts["compile.prefix_hits"],
        "compilers.reuse_share": saved / (execs + saved) if execs + saved else 0.0,
        "reduction.oracle_calls": calls,
        "reduction.memo_hit_share": (
            reduction["memo_hits"] / (reduction["memo_hits"] + calls)
            if calls else 0.0
        ),
        "reduction.speculative_wasted_share": (
            reduction["wasted"] / calls if calls else 0.0
        ),
        "reduction.rounds": reduction.get("rounds", 0),
        "campaign.findings": unit.findings,
        **store,
    }


def traced(workload) -> tuple[dict[str, float], list, list[str]]:
    """Warm the process with one unit, then alternate untraced and
    traced units :data:`TRACE_REPS` times; return the per-layer metrics
    (self times averaged over the traced units, counts of one), the
    tracers, and the layers found absent.  Counts that differ between
    the traced units are a determinism failure."""
    from layers import ROOT as ROOT_SPAN
    from layers import LayerTracer

    workload.prepare()
    workload.unit()
    untraced_walls, tracers, counts = [], [], []
    for _ in range(TRACE_REPS):
        workload.prepare()
        began = time.perf_counter()
        workload.unit()
        untraced_walls.append(time.perf_counter() - began)
        workload.prepare()
        tracer = LayerTracer()
        before = {name: workload.counter(name) for name in STORE_COUNTERS}
        with tracer.installed(), tracer.root():
            unit = workload.unit()
        store = {
            name: workload.counter(name) - before[name]
            for name in STORE_COUNTERS
        }
        tracers.append(tracer)
        counts.append(_unit_counts(workload, tracer, unit, store))
    if any(c != counts[0] for c in counts):
        workload.tally.fail(1, f"traced counts differ between units: {counts}")

    walls = [tracer.wall_s() for tracer in tracers]
    wall = statistics.mean(walls)
    per = unit.counts.get("oracle_calls") or unit.seeds
    layer: dict[str, float] = {}
    for tracer in tracers:
        for name, seconds in tracer.self_s.items():
            key = "core.unaccounted_share" if name == ROOT_SPAN else f"{name}_ms"
            scale = 1 / wall if name == ROOT_SPAN else 1e3 / per
            layer[key] = layer.get(key, 0.0) + seconds * scale / len(tracers)
    layer.update(counts[0])
    layer.update({
        "tracing_overhead_share": (
            statistics.median(walls) / statistics.median(untraced_walls) - 1.0
        ),
        "trace.wall_s": wall,
        "trace.per": per,
    })
    return layer, tracers, tracers[0].absent


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def measure(args, *, size=None, probes=None) -> dict:
    """Run one benchmark invocation; return the result object (plus the
    undeclared extras under ``"extra"`` for the self-test)."""
    import workloads

    workdir = os.path.join(WORK_ROOT, f"run-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(workdir)
    bench = load_benchmark()
    declared = bench["per_layer" if args.trace else "end_to_end"]
    spec = workloads.load_spec()
    if probes is None:
        probes = spec["setup_probes"]
    workload = _workload(
        args, workdir, jobs=1 if args.trace else None, size=size,
    )
    try:
        workload.prerequisite()
        if args.trace:
            workload.setup()
            values, tracers, absent = traced(workload)
            workload.verify()
            values["error_rate"] = (
                workload.tally.failed / max(workload.tally.attempted, 1)
            )
            for i, tracer in enumerate(tracers):
                tracer.write_spans(os.path.join(
                    WORK_ROOT, f"spans-{args.workload}-{i}.jsonl"
                ))
        else:
            setup = setup_samples(args, workdir, probes)
            workload.setup()
            units, calibrations, rss = run_units(workload, args.seconds)
            workload.verify()
            values = end_to_end(
                units, calibrations, spec["calibration_reference_s"],
                setup, rss,
            )
            absent = []
        tally = workload.tally
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    extra = {k: v for k, v in values.items() if k not in metrics}
    return {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
        "extra": extra,
        "absent": absent,
        "problems": tally.problems,
    }


def report(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    bench = load_benchmark()
    better_of = {
        m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]
    }
    for name, metric in result["metrics"].items():
        better = better_of[name]
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']:10s} "
              f"({better} is better)")
    for name, value in sorted(result["extra"].items()):
        print(f"{name:40s} {value:14.6g} (not declared)")
    rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':40s} {rate:14.6g} {'share':10s} (lower is better)"
          f"  [{result['failed']} failed / {result['attempted']} attempted]")
    if result["absent"]:
        print("absent layers: " + ", ".join(result["absent"]))
    for problem in result["problems"]:
        print(f"failure: {problem}", file=sys.stderr)
    print(json.dumps({
        key: result[key] for key in ("correct", "attempted", "failed", "metrics")
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    os.makedirs(WORK_ROOT, exist_ok=True)
    # keep SQLite and pool temp files inside the checkout
    os.environ["TMPDIR"] = WORK_ROOT
    if args.probe:
        probe(args)
        return 0
    report(measure(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
