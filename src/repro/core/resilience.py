"""Fault isolation for campaigns: crash containment and budgets.

The paper's campaigns survive hundreds of thousands of Csmith programs
only because no single pathological input can take the harness down.
This module gives our campaign engine the same property:

* :func:`analyze_one_resilient` wraps each phase of the per-seed
  pipeline (generate → instrument → ground-truth → compile → analyze)
  in containment.  A crash anywhere becomes a structured
  :class:`CrashEnvelope` — seed, phase, exception type, trimmed
  traceback, a deduplication *bucket* (exception type + deepest
  in-repo frame), and a one-line repro command — instead of aborting
  the campaign (or poisoning a whole parallel shard).
* **Wall-clock budgets**: ``seed_budget`` arms a cooperative deadline
  (:mod:`repro.budget`) polled at pass boundaries and at the
  interpreter's step check, so runaway seeds become ``budget_exceeded``
  skips rather than hangs.

The chaos harness (:mod:`repro.testing.chaos`) injects faults at the
phase hooks below so tests and CI can prove all of this end to end.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .. import budget
from ..budget import SeedBudgetExceeded
from ..compilers import CompilerSpec
from ..compilers.pipeline import PassPipelineError
from ..frontend.typecheck import check_program
from ..generator import GeneratorConfig, generate_program
from ..interp import StepLimitExceeded
from ..observability.metrics import MetricsRegistry
from ..testing import chaos
from .differential import analyze_markers
from .ground_truth import compute_ground_truth
from .markers import instrument_program

#: phases of the per-seed pipeline, in execution order
PHASES = ("generate", "instrument", "ground_truth", "compile", "analyze")

#: synthetic phase for seeds that took a pool worker down with them
WORKER_PHASE = "worker"

#: post-campaign phase for crashes inside finding reduction
REDUCE_PHASE = "reduce"

#: phase for crashes contained by the campaign service's supervisor
#: (a job crashed outside any single seed's analysis)
SERVE_PHASE = "serve"

_REPRO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TESTING_DIR = os.path.join(_REPRO_ROOT, "testing")


@dataclass(frozen=True)
class CrashEnvelope:
    """Everything worth keeping about one contained per-seed crash."""

    seed: int
    phase: str
    exc_type: str
    message: str
    #: dedup key: exception type + deepest in-repo frame (+ pass name
    #: for pass-pipeline crashes) — stable across runs and jobs counts
    bucket: str
    #: trimmed traceback lines (most recent call last)
    traceback: tuple[str, ...] = ()
    #: one-liner that re-runs the failing seed outside the campaign
    repro: str = ""

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "phase": self.phase,
            "exc_type": self.exc_type,
            "message": self.message,
            "bucket": self.bucket,
            "traceback": list(self.traceback),
            "repro": self.repro,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CrashEnvelope":
        return cls(
            seed=data["seed"],
            phase=data["phase"],
            exc_type=data["exc_type"],
            message=data["message"],
            bucket=data["bucket"],
            traceback=tuple(data.get("traceback", ())),
            repro=data.get("repro", ""),
        )


def repro_command(seed: int) -> str:
    """A shell one-liner reproducing the failing seed's analysis."""
    return (
        f"dce-hunt generate --seed {seed} --instrument | dce-hunt analyze -"
    )


def crash_envelope(
    seed: int, phase: str, exc: BaseException, max_tb_lines: int = 12
) -> CrashEnvelope:
    """Fold a caught exception into a :class:`CrashEnvelope`."""
    import traceback as tb_module

    root = exc
    while root.__cause__ is not None:
        root = root.__cause__
    frame = _deepest_repro_frame(root)
    bucket = type(root).__name__
    if frame is not None:
        bucket += f"@{frame}"
    pass_name = getattr(exc, "pass_name", None)
    if pass_name:
        bucket += f"#{pass_name}"
    lines = tb_module.format_exception(type(exc), exc, exc.__traceback__)
    trimmed = "".join(lines).rstrip("\n").split("\n")[-max_tb_lines:]
    return CrashEnvelope(
        seed=seed,
        phase=phase,
        exc_type=type(root).__name__,
        message=str(exc),
        bucket=bucket,
        traceback=tuple(trimmed),
        repro=repro_command(seed),
    )


def _deepest_repro_frame(exc: BaseException) -> str | None:
    """``file.py:function`` of the deepest traceback frame inside this
    package (line numbers excluded so refactors don't split buckets;
    the chaos harness is excluded so injected faults bucket by the
    production site they fired at, not by the injector)."""
    deepest: str | None = None
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        path = os.path.abspath(code.co_filename)
        if path.startswith(_REPRO_ROOT) and not path.startswith(_TESTING_DIR):
            deepest = f"{os.path.basename(path)}:{code.co_name}"
        tb = tb.tb_next
    return deepest


def bucket_crashes(
    crashes: list[CrashEnvelope],
) -> dict[str, list[CrashEnvelope]]:
    """Group envelopes by bucket, deterministically: buckets sorted by
    key, envelopes within a bucket in seed order."""
    grouped: dict[str, list[CrashEnvelope]] = {}
    for envelope in sorted(crashes, key=lambda e: e.seed):
        grouped.setdefault(envelope.bucket, []).append(envelope)
    return dict(sorted(grouped.items()))


# -- per-seed resilient analysis -------------------------------------------


@dataclass
class SeedReport:
    """The campaign-facing verdict on one seed — always returned,
    never raised (except for :class:`KeyboardInterrupt` and friends)."""

    seed: int
    outcome: object | None = None  # ProgramOutcome, kept untyped to
    # avoid a circular import with corpus
    #: ground truth exceeded the interpreter step budget (the
    #: pre-existing skip path)
    skipped: bool = False
    crash: CrashEnvelope | None = None
    budget_exceeded: bool = False

    @property
    def completed(self) -> bool:
        return self.outcome is not None


def analyze_one_resilient(
    seed: int,
    specs: list[CompilerSpec],
    version: int | None = None,
    generator_config: GeneratorConfig | None = None,
    metrics: MetricsRegistry | None = None,
    seed_budget: float | None = None,
    interp: str | None = None,
    store=None,
) -> SeedReport:
    """Run :func:`repro.core.corpus.analyze_one`'s pipeline with full
    fault isolation; see the module docstring for the contract.

    ``store`` is an optional :class:`~repro.store.StoreSession` threaded
    into the ground-truth and compile phases so known executions and
    eliminated-marker sets are replayed instead of recomputed (and new
    ones recorded into the session's delta for the parent to commit).
    """
    report = SeedReport(seed=seed)
    chaos.set_current_seed(seed)
    try:
        with budget.deadline(seed_budget):
            _run_phases(report, seed, specs, version, generator_config,
                        metrics, interp, store)
    except SeedBudgetExceeded:
        report.outcome = None
        report.crash = None
        report.budget_exceeded = True
    finally:
        chaos.set_current_seed(None)
    return report


def _run_phases(
    report: SeedReport,
    seed: int,
    specs: list[CompilerSpec],
    version: int | None,
    generator_config: GeneratorConfig | None,
    metrics: MetricsRegistry | None,
    interp: str | None,
    store=None,
) -> None:
    from .corpus import ProgramOutcome

    phase = "generate"
    try:
        chaos.trigger("generate")
        program = generate_program(seed, generator_config)
        phase = "instrument"
        chaos.trigger("instrument")
        instrumented = instrument_program(program)
        info = check_program(instrumented.program)
        phase = "ground_truth"
        try:
            chaos.trigger("ground_truth")
            truth = compute_ground_truth(
                instrumented, info=info, backend=interp, metrics=metrics,
                store=store,
            )
        except StepLimitExceeded:
            report.skipped = True
            return
    except SeedBudgetExceeded:
        raise
    except Exception as err:
        report.crash = crash_envelope(seed, phase, err)
        return

    try:
        chaos.trigger("analyze")
        analysis = analyze_markers(
            instrumented, specs, info=info, ground_truth=truth,
            metrics=metrics, store=store,
        )
    except SeedBudgetExceeded:
        raise
    except Exception as err:
        report.crash = crash_envelope(seed, _analyze_phase(err), err)
        return
    report.outcome = ProgramOutcome(
        seed, len(instrumented.markers), len(truth.dead), analysis
    )


def _analyze_phase(err: Exception) -> str:
    """Attribute an analysis-stage failure: pass-pipeline errors are
    *compile* crashes, anything else failed in the comparison layer."""
    return "compile" if isinstance(err, PassPipelineError) else "analyze"


def worker_death_envelope(seed: int) -> CrashEnvelope:
    """The synthesized envelope for a seed that killed its pool worker
    (isolated by the parallel engine's shard bisection)."""
    return CrashEnvelope(
        seed=seed,
        phase=WORKER_PHASE,
        exc_type="WorkerDeath",
        message=(
            "worker process died while analyzing this seed "
            "(BrokenProcessPool; isolated by shard bisection)"
        ),
        bucket="WorkerDeath@worker",
        traceback=(),
        repro=repro_command(seed),
    )


def reduction_death_envelope(seed: int) -> CrashEnvelope:
    """The synthesized envelope for a finding whose reduction killed
    its pool worker; the campaign keeps the structural fingerprint."""
    return CrashEnvelope(
        seed=seed,
        phase=REDUCE_PHASE,
        exc_type="WorkerDeath",
        message=(
            "worker process died while reducing this finding "
            "(BrokenProcessPool; structural fingerprint kept)"
        ),
        bucket="WorkerDeath@reduce",
        traceback=(),
        repro=repro_command(seed),
    )


def service_crash_envelope(job_id: str, exc: BaseException) -> CrashEnvelope:
    """Fold a service job's crash into the standard envelope machinery.

    There is no single seed to blame (the job may span many), so the
    seed slot is ``-1`` and the repro one-liner is the job itself.
    The bucket keeps the usual ``ExcType@file:func`` dedup key, so a
    flaky handler shows up as one bucket across many retries.
    """
    envelope = crash_envelope(-1, SERVE_PHASE, exc)
    return replace(envelope, repro=f"resubmit job {job_id} via POST /api/v1")
