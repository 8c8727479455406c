"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 perfbench/selftest.py

Checks, per workload, that the untraced run prints every end-to-end
metric and the traced run every per-layer metric of BENCHMARK.json
with its unit, that no layer is absent and no operation fails, and
that the per-layer self times plus the unaccounted share add up to the
traced wall time.  Then it injects a fault through the public
``repro.testing.chaos`` plan (a ``raise`` at ``generate`` on one seed)
and checks that the failure is counted.  Finally it checks that a
traced site that no longer exists is reported as absent, and that the
benchmark exits non-zero, printing no result, where the program's
sources are missing.  Takes about two minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import run

#: a fixed range per workload, small enough to run in seconds
TINY = {
    "campaign_cold": {"base": 4, "seeds": 1},
    "campaign_store": {"base": 0, "seeds": 4},
    "store_warm": {"base": 0, "seeds": 4},
    "reduce_finding": {"base": 7, "seeds": 1},
}
FAULT_SEED = {"campaign_cold": 4, "campaign_store": 2, "store_warm": 2,
              "reduce_finding": 7}


def _args(workload: str, trace: int):
    return run.parse_args([
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace),
    ])


def _check_names(result: dict, declared: list[dict], errors: list, label: str):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        errors.append(f"{label}: metrics {sorted(set(got) ^ set(want))} "
                      f"or units differ")


def check_workload(workload: str, bench: dict, errors: list) -> None:
    untraced = run.measure(_args(workload, 0), size=TINY[workload], probes=1)
    _check_names(untraced, bench["end_to_end"], errors, f"{workload} trace 0")
    for name, metric in untraced["metrics"].items():
        if not metric["value"] > 0:
            errors.append(f"{workload}: {name} is {metric['value']}")
    if untraced["failed"]:
        errors.append(f"{workload}: failures {untraced['problems']}")

    traced = run.measure(_args(workload, 1), size=TINY[workload])
    _check_names(traced, bench["per_layer"], errors, f"{workload} trace 1")
    if traced["absent"]:
        errors.append(f"{workload}: absent layers {traced['absent']}")
    values = {name: m["value"] for name, m in traced["metrics"].items()}
    values.update(traced["extra"])
    if values["error_rate"] != 0:
        errors.append(f"{workload}: traced error_rate {values['error_rate']}")
    wall = values["trace.wall_s"]
    layers_s = sum(
        value for name, value in values.items() if name.endswith("_ms")
    ) * values["trace.per"] / 1e3
    total = layers_s + values["core.unaccounted_share"] * wall
    if abs(total - wall) > 1e-6 * wall:
        errors.append(f"{workload}: layers add up to {total} s, wall {wall} s")
    print(f"selftest: {workload} ok "
          f"(unaccounted {values['core.unaccounted_share']:.3f}, "
          f"tracing overhead {values['tracing_overhead_share']:.3f})")


def check_fault(workload: str, errors: list) -> None:
    from repro.testing import chaos

    plan = chaos.FaultPlan((
        chaos.Fault("generate", "raise", frozenset({FAULT_SEED[workload]})),
    ))
    chaos.install_plan(plan)
    try:
        result = run.measure(_args(workload, 0), size=TINY[workload], probes=1)
    finally:
        chaos.clear_plan()
    rate = result["failed"] / result["attempted"]
    if not (rate > 0 and result["correct"] is False):
        errors.append(f"{workload}: injected fault not counted ({rate})")
    print(f"selftest: {workload} with an injected fault: error_rate {rate:.3f}")


def check_absent_site(errors: list) -> None:
    """A traced site that no longer exists is reported, not fatal."""
    import layers

    sites = layers.SITES
    layers.SITES = sites + (("gone", "repro.core.corpus", "no_such_function"),)
    try:
        tracer = layers.LayerTracer()
        with tracer.installed():
            pass
    finally:
        layers.SITES = sites
    if tracer.absent != ["gone at repro.core.corpus.no_such_function"]:
        errors.append(f"missing site not reported: {tracer.absent}")
    print(f"selftest: missing site reported as {tracer.absent}")


def check_without_sources(errors: list) -> None:
    """Only BENCHMARK.json and the benchmark's own files: exit non-zero."""
    bare = os.path.join(run.WORK_ROOT, f"bare-{os.getpid()}")
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.BENCHMARK_JSON, bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "campaign_cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        errors.append("without sources: exit 0 or printed a result")
    print(f"selftest: without sources exit {done.returncode}")


def main() -> int:
    run._import_program()
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    os.environ["TMPDIR"] = run.WORK_ROOT
    bench = run.load_benchmark()
    errors: list[str] = []
    for workload in TINY:
        check_workload(workload, bench, errors)
    for workload in TINY:
        check_fault(workload, errors)
    check_absent_site(errors)
    check_without_sources(errors)
    for error in errors:
        print(f"selftest: FAIL {error}")
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
