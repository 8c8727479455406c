"""Differential marker testing (paper §3.1, steps ②–③).

Compile one instrumented program under several compiler specs, read
each compiler's alive-marker set off its assembly, and compare:

* against the *ground truth* (the hypothetically ideal compiler),
* across compilers at the same level (``gcclike`` vs ``llvmlike``),
* across levels of one compiler (-O1/-O2 vs -O3).

A compiler that keeps a marker another one (or the ground truth
witness) removes has missed an optimization; a compiler that *removes
an alive marker* has miscompiled, which :func:`soundness_violations`
surfaces (none are expected — the test suite asserts it).
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field

from ..backend.asm import alive_markers as asm_alive_markers
from ..backend.asm import emit_module
from ..compilers import CompilerSpec
from ..compilers.config import config_fingerprint_of
from ..compilers.pipeline import run_pipeline
from ..frontend.lower import lower_program
from ..ir.printer import fingerprint_module
from ..frontend.typecheck import SymbolInfo, check_program
from ..observability.metrics import MetricsRegistry
from ..observability.tracer import current_tracer
from .ground_truth import GroundTruth, compute_ground_truth
from .markers import InstrumentedProgram


@dataclass
class MarkerOutcome:
    """One compiler's verdict on every marker of one program."""

    spec: CompilerSpec
    alive: frozenset[str]
    all_markers: frozenset[str]

    @property
    def eliminated(self) -> frozenset[str]:
        return self.all_markers - self.alive


@dataclass
class ProgramAnalysis:
    instrumented: InstrumentedProgram
    ground_truth: GroundTruth
    outcomes: dict[str, MarkerOutcome] = field(default_factory=dict)

    def outcome(self, spec: CompilerSpec) -> MarkerOutcome:
        return self.outcomes[str(spec)]

    def missed_vs_ideal(self, spec: CompilerSpec) -> frozenset[str]:
        """Dead markers this compiler failed to eliminate."""
        return self.ground_truth.dead & self.outcome(spec).alive

    def missed_vs(self, spec: CompilerSpec, witness: CompilerSpec) -> frozenset[str]:
        """Markers ``spec`` keeps that ``witness`` eliminates — the
        paper's missed-optimization set for ``spec``."""
        return self.outcome(spec).alive & self.outcome(witness).eliminated

    def soundness_violations(self, spec: CompilerSpec) -> frozenset[str]:
        """Alive markers the compiler (wrongly) eliminated."""
        return self.ground_truth.alive & self.outcome(spec).eliminated


def analyze_markers(
    instrumented: InstrumentedProgram,
    specs: list[CompilerSpec],
    info: SymbolInfo | None = None,
    ground_truth: GroundTruth | None = None,
    marker_prefix: str = "DCEMarker",
    metrics: MetricsRegistry | None = None,
    verify_ir: bool = False,
    store=None,
) -> ProgramAnalysis:
    """Run the full marker pipeline for ``instrumented`` under ``specs``.

    With a ``metrics`` registry, each compilation's latency is observed
    into a per-spec ``compile_latency_ms/<spec>`` histogram.

    Alive-marker sets are a pure function of (program, pipeline
    config), so specs whose resolved :class:`PipelineConfig` coincide
    (e.g. ``gcclike-O0`` and ``llvmlike-O0`` at tip, or unchanged
    levels across versions in a regression watch) compile once and
    share the result.  A cache hit still observes the (near-zero)
    lookup latency into the spec's histogram — the per-spec
    observation count stays one per call — and bumps the
    ``campaign.compile_cache_hits`` counter instead of
    ``campaign.compilations``.

    Each distinct config compiles independently, as in the paper: the
    program is lowered afresh, the config's pass pipeline runs over it
    (counting per-pass marker kills into ``metrics``), and the alive
    set is read off the emitted assembly.

    ``verify_ir`` runs the IR verifier after every pass of every
    compilation: a pass that produces malformed IR then
    fails the compile with a
    :class:`~repro.compilers.pipeline.PassPipelineError` naming the
    offending pass, instead of silently miscounting markers downstream.
    Off by default — it roughly doubles compile time.

    ``store`` is an optional :class:`~repro.store.StoreSession`
    providing a persistent L2 behind the in-memory caches: eliminated-
    marker sets are memoized on ``(fingerprint of the lowered module,
    config fingerprint)``, so a config whose result is on record skips
    the compiler entirely (``store.compile_hits`` instead of
    ``campaign.compilations``).  Alive sets are a pure function of that
    key, so results are byte-identical either way.
    """
    if info is None:
        info = check_program(instrumented.program)
    if ground_truth is None:
        ground_truth = compute_ground_truth(instrumented, info=info)
    analysis = ProgramAnalysis(instrumented, ground_truth)
    tracer = current_tracer()
    base_fp: str | None = None
    if store is not None:
        lowered = lower_program(instrumented.program, info)
        base_fp = fingerprint_module(lowered)
    by_config: dict[tuple, frozenset[str]] = {}
    config_fps: dict[tuple, str] = {}
    for spec in specs:
        start = time.perf_counter()
        config = spec.config()
        config_key = astuple(config)
        alive = by_config.get(config_key)
        config_fp: str | None = None
        if alive is None and store is not None:
            config_fp = config_fps.get(config_key)
            if config_fp is None:
                config_fp = config_fingerprint_of(config)
                config_fps[config_key] = config_fp
            eliminated = store.lookup_compile(base_fp, config_fp)
            if eliminated is not None:
                alive = instrumented.marker_names - eliminated
                by_config[config_key] = alive
                with tracer.span("compile.stored", spec=str(spec)):
                    pass
                if metrics is not None:
                    elapsed_ms = (time.perf_counter() - start) * 1e3
                    metrics.histogram(
                        f"compile_latency_ms/{spec}"
                    ).observe(elapsed_ms)
                analysis.outcomes[str(spec)] = MarkerOutcome(
                    spec, alive, instrumented.marker_names
                )
                continue
        if alive is None:
            with tracer.span("compile", spec=str(spec)) as span:
                module = lower_program(instrumented.program, info)
                changed = run_pipeline(
                    module, config, verify_each=verify_ir, tracer=tracer,
                    marker_prefix=marker_prefix, metrics=metrics,
                )
                asm = emit_module(module)
                span.set("changed_passes", len(changed))
            alive = asm_alive_markers(asm, marker_prefix)
            alive &= instrumented.marker_names
            by_config[config_key] = alive
            if metrics is not None:
                metrics.counter("campaign.compilations").inc()
            if store is not None and config_fp is not None:
                store.record_compile(
                    base_fp, config_fp, instrumented.marker_names - alive
                )
        else:
            with tracer.span("compile.cached", spec=str(spec)):
                pass
            if metrics is not None:
                metrics.counter("campaign.compile_cache_hits").inc()
        if metrics is not None:
            elapsed_ms = (time.perf_counter() - start) * 1e3
            metrics.histogram(f"compile_latency_ms/{spec}").observe(elapsed_ms)
        analysis.outcomes[str(spec)] = MarkerOutcome(
            spec, alive, instrumented.marker_names
        )
    return analysis


def missed_between_levels(
    analysis: ProgramAnalysis,
    family: str,
    high: str = "O3",
    lows: tuple[str, ...] = ("O1", "O2"),
    version: int | None = None,
) -> frozenset[str]:
    """Markers the higher level keeps although a lower level of the
    *same* compiler eliminates them (paper §4.2, 'between optimization
    levels')."""
    high_spec = CompilerSpec(family, high, version)
    high_alive = analysis.outcome(high_spec).alive
    seized_by_low: set[str] = set()
    for low in lows:
        low_spec = CompilerSpec(family, low, version)
        seized_by_low |= analysis.outcome(low_spec).eliminated
    return frozenset(high_alive & seized_by_low)
