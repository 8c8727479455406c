"""Pipeline execution: run a configured pass sequence over a module.

When the current tracer is enabled (or one is passed explicitly) the
pipeline emits one ``pipeline.run`` span wrapping one ``pipeline.pass``
span per configured pass, each carrying wall time, IR size before and
after (instructions/blocks), whether the pass reported changes, and the
optimization markers whose calls disappeared during the pass — the
per-pass attribution that powers ``dce-hunt profile`` and the
component tables (see :mod:`repro.observability.attribution`).  With
tracing disabled none of the bookkeeping runs.

Given a metrics registry, every pass that eliminates markers also bumps
``attribution.marker_kills/<pass>`` by the number it killed — the run
ledger's pass-attribution rollup, counted once per compiled config.
Without a registry the marker scan is skipped entirely.
"""

from __future__ import annotations

from ..budget import SeedBudgetExceeded, check_deadline
from ..ir import instructions as ins
from ..ir.function import Module
from ..ir.verify import VerificationError, verify_module
from ..observability.attribution import PASS_SPAN, PIPELINE_SPAN
from ..observability.metrics import MetricsRegistry
from ..observability.tracer import Tracer, current_tracer
from ..passes.registry import PASS_REGISTRY, available_passes
from ..testing.chaos import trigger as _chaos_trigger
from .config import PipelineConfig

#: marker symbol prefix tracked for per-pass attribution (mirrors
#: :data:`repro.core.markers.MARKER_PREFIX`; kept literal to avoid a
#: compilers → core import cycle)
MARKER_PREFIX = "DCEMarker"

#: per-pass marker-attribution counter prefix
MARKER_KILLS = "attribution.marker_kills"


class PassPipelineError(RuntimeError):
    """A pass is unknown, crashed, or produced unverifiable IR."""

    def __init__(
        self,
        pass_name: str,
        original: BaseException | None = None,
        message: str | None = None,
    ) -> None:
        super().__init__(message or f"pass {pass_name!r} failed: {original}")
        self.pass_name = pass_name
        self.original = original


def validate_passes(pass_names: tuple[str, ...] | list[str]) -> None:
    """Raise :class:`PassPipelineError` if any name is not registered."""
    unknown = sorted({name for name in pass_names if name not in PASS_REGISTRY})
    if unknown:
        raise PassPipelineError(
            unknown[0],
            message=(
                f"unknown pass(es) {', '.join(repr(n) for n in unknown)}; "
                f"valid passes: {', '.join(available_passes())}"
            ),
        )


def module_size(module: Module) -> tuple[int, int]:
    """(instruction count, block count) over all functions."""
    n_instrs = 0
    n_blocks = 0
    for func in module.functions.values():
        n_blocks += len(func.blocks)
        for block in func.blocks:
            n_instrs += len(block.instrs)
    return n_instrs, n_blocks


def module_markers(module: Module, prefix: str = MARKER_PREFIX) -> frozenset[str]:
    """Marker symbols still called anywhere in the IR.

    Every ``Call`` lowers to a ``call`` line in the emitted assembly
    (including ones in unreachable-but-present blocks), so scanning the
    IR agrees with the backend's :func:`repro.backend.asm.alive_markers`
    oracle while being much cheaper than emitting text.
    """
    found: set[str] = set()
    for func in module.functions.values():
        for instr in func.instructions():
            if isinstance(instr, ins.Call) and instr.callee.startswith(prefix):
                found.add(instr.callee)
    return frozenset(found)


def execute_pass(
    module: Module,
    name: str,
    config: PipelineConfig,
    verify_each: bool = False,
) -> bool:
    """Run one (already validated) pass over ``module`` in place.

    Returns the pass's changed flag; wraps failures in
    :class:`PassPipelineError`.

    Every pass boundary polls the cooperative seed budget
    (:mod:`repro.budget`): a :class:`SeedBudgetExceeded` is a skip
    signal for the campaign layer, never wrapped as a pass crash.
    """
    check_deadline()
    pass_fn = PASS_REGISTRY[name]
    try:
        _chaos_trigger(f"pass:{name}")
        changed = pass_fn(module, config)
        if verify_each:
            verify_module(module)
    except SeedBudgetExceeded:
        raise
    except VerificationError as err:
        summary = str(err).splitlines()[0] if str(err) else "invalid IR"
        raise PassPipelineError(
            name, err,
            message=f"pass {name!r} produced unverifiable IR: {summary}",
        ) from err
    except Exception as err:
        raise PassPipelineError(name, err) from err
    return changed


def run_pipeline(
    module: Module,
    config: PipelineConfig,
    verify_each: bool = False,
    tracer: Tracer | None = None,
    marker_prefix: str = MARKER_PREFIX,
    metrics: MetricsRegistry | None = None,
) -> list[str]:
    """Run ``config.passes`` over ``module`` in order.

    Returns the list of pass names that reported changes.  With
    ``verify_each`` the IR verifier runs after every pass (slow; used
    by the test suite to localize pass bugs).  With ``metrics`` each
    pass's marker kills are counted (see the module docstring).
    """
    validate_passes(config.passes)
    if tracer is None:
        tracer = current_tracer()
    if not tracer.enabled:
        return _run_untraced(
            module, config, verify_each, marker_prefix, metrics
        )

    changed_by: list[str] = []
    with tracer.span(
        PIPELINE_SPAN, module=module.name, n_passes=len(config.passes)
    ) as pipeline_span:
        markers_before = module_markers(module, marker_prefix)
        pipeline_span.set("markers_before", len(markers_before))
        for index, name in enumerate(config.passes):
            instrs_before, blocks_before = module_size(module)
            with tracer.span(PASS_SPAN, index=index) as span:
                span.set("pass", name)
                changed = execute_pass(module, name, config, verify_each)
                if changed:
                    changed_by.append(name)
                instrs_after, blocks_after = module_size(module)
                markers_after = module_markers(module, marker_prefix)
                span.update(
                    changed=changed,
                    instrs_before=instrs_before,
                    instrs_after=instrs_after,
                    blocks_before=blocks_before,
                    blocks_after=blocks_after,
                    markers_eliminated=sorted(markers_before - markers_after),
                )
            if metrics is not None:
                _count_kills(metrics, name, markers_before, markers_after)
            markers_before = markers_after
        pipeline_span.set("markers_after", len(markers_before))
        pipeline_span.set("changed_passes", len(changed_by))
    return changed_by


def _run_untraced(
    module: Module,
    config: PipelineConfig,
    verify_each: bool,
    marker_prefix: str,
    metrics: MetricsRegistry | None,
) -> list[str]:
    """The measurement-free hot path (pass names already validated);
    markers are scanned only to count kills into ``metrics``."""
    changed_by: list[str] = []
    markers_before = (
        module_markers(module, marker_prefix) if metrics is not None else None
    )
    for name in config.passes:
        if execute_pass(module, name, config, verify_each):
            changed_by.append(name)
        if metrics is not None:
            markers_after = module_markers(module, marker_prefix)
            _count_kills(metrics, name, markers_before, markers_after)
            markers_before = markers_after
    return changed_by


def _count_kills(
    metrics: MetricsRegistry,
    name: str,
    markers_before: frozenset[str],
    markers_after: frozenset[str],
) -> None:
    killed = len(markers_before - markers_after)
    if killed:
        metrics.counter(f"{MARKER_KILLS}/{name}").inc(killed)
