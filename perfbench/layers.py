"""Out-of-tree layer tracing for the benchmark's traced run.

The program is not edited: :class:`LayerTracer` replaces the layers'
public functions *at the import sites through which the campaign and
the reducer call them* with timing wrappers, records one span per call
(name, start, end, parent), and restores the originals afterwards.

A layer's self time is its spans' durations minus the time covered by
their child spans, so the self times of every layer plus the root
span's own self time (``core.unaccounted``) add up to the root span's
wall time exactly.  An import site that no longer exists is reported
as absent instead of failing, so a refactor that moves a function
leaves the benchmark running.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: root span; its self time is the work no wrapped layer accounts for
#: (campaign loop, merge, resilience wrapper, pickling, metrics)
ROOT = "core.unaccounted"
#: the incremental engine's layer; its pass counters are read per call
ENGINE = "compilers.engine"


def _engine_counts(engine) -> tuple[int, int]:
    """The engine's lifetime (pass executions, executions saved)."""
    return engine.pass_execs, engine.pass_execs_saved


def _pass_name(args, kwargs) -> str:
    name = args[1] if len(args) > 1 else kwargs.get("name", "?")
    return f"passes.{name}"


#: (layer, module, attribute path) — attribute paths with a dot name a
#: method on a class.  ``passes`` is special: one span per pass, named
#: after the pass.
SITES: tuple[tuple[str, str, str], ...] = (
    ("generator.generate", "repro.core.resilience", "generate_program"),
    ("core.instrument", "repro.core.resilience", "instrument_program"),
    ("frontend.typecheck", "repro.core.resilience", "check_program"),
    ("frontend.typecheck", "repro.core.reduction", "check_program"),
    ("frontend.typecheck", "repro.compilers.driver", "check_program"),
    ("core.ground_truth", "repro.core.resilience", "compute_ground_truth"),
    ("core.ground_truth", "repro.core.reduction", "compute_ground_truth"),
    ("core.differential", "repro.core.resilience", "analyze_markers"),
    ("frontend.lower", "repro.core.differential", "lower_program"),
    ("frontend.lower", "repro.compilers.driver", "lower_program"),
    (ENGINE, "repro.compilers.incremental", "IncrementalEngine.compile"),
    ("ir.clone", "repro.ir.function", "Module.clone"),
    ("ir.fingerprint", "repro.compilers.incremental", "fingerprint_module"),
    ("ir.fingerprint", "repro.core.differential", "fingerprint_module"),
    ("passes", "repro.compilers.incremental", "execute_pass"),
    ("passes", "repro.compilers.pipeline", "execute_pass"),
    ("compilers.compile_minic", "repro.core.reduction", "compile_minic"),
    ("lang.parse", "repro.core.reduction", "parse_program"),
    ("lang.print", "repro.core.reduction", "print_program"),
    ("reduction.engine", "repro.core.reduction", "reduce_program"),
    ("backend.emit", "repro.core.differential", "emit_module"),
    ("backend.emit", "repro.compilers.driver", "emit_module"),
    ("core.primary", "repro.core.corpus", "build_marker_graph"),
    ("core.primary", "repro.core.corpus", "primary_missed_markers"),
    ("store.read", "repro.store.artifact", "ArtifactStore.load_seed_reports"),
    ("store.read", "repro.store.artifact", "ArtifactStore.get_compile"),
    ("store.read", "repro.store.artifact", "ArtifactStore.get_truth"),
    ("store.write", "repro.store.artifact", "ArtifactStore.commit_seed"),
    ("store.write", "repro.store.artifact", "ArtifactStore.apply_delta"),
    ("store.write", "repro.store.artifact", "ArtifactStore.record_seed_report"),
    ("store.write", "repro.store.artifact", "ArtifactStore.commit"),
    ("observability.events", "repro.observability.events", "EventBus.emit"),
    ("observability.ledger", "repro.observability.ledger", "RunLedger.record_run"),
)

#: count-only sites: the engine's reuse bookkeeping, by kind
#: (``compile.memo_hits`` / ``compile.prefix_hits`` / ...)
COUNT_SITES: tuple[tuple[str, str], ...] = (
    ("repro.compilers.incremental", "IncrementalEngine._saved"),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value), or None when the site is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = owner.__dict__.get(attr)
    else:
        value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class LayerTracer:
    """In-memory span recorder over wrapped import sites."""

    def __init__(self) -> None:
        #: [name, start, end, parent index]
        self.spans: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: counts gathered at layer boundaries (engine reuse, steps)
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self._restore: list[tuple] = []

    # -- spans --------------------------------------------------------

    def _enter(self, name: str) -> float:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self._child_s.append(0.0)
        start = time.perf_counter()
        self.spans.append([name, start, None, parent])
        return start

    def _exit(self, name: str, start: float) -> None:
        end = time.perf_counter()
        index = self._stack.pop()
        child = self._child_s.pop()
        self.spans[index][2] = end
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._child_s:
            self._child_s[-1] += duration

    @contextmanager
    def root(self):
        """The traced wall-time interval every layer nests under."""
        start = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(ROOT, start)

    def wall_s(self) -> float:
        return sum(
            end - start for name, start, end, parent in self.spans
            if parent is None
        )

    # -- wrapping -----------------------------------------------------

    def _wrap(self, layer: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            name = _pass_name(args, kwargs) if layer == "passes" else layer
            before = _engine_counts(args[0]) if layer == ENGINE else None
            start = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, start)
            tracer._observe(layer, args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, layer: str, args, result, before) -> None:
        """Counts read off a layer's arguments and results."""
        if layer == "core.ground_truth":
            self.counts["interp.steps"] += result.execution.steps
        elif layer == ENGINE:
            execs, saved = _engine_counts(args[0])
            self.counts["compilers.pass_execs"] += execs - before[0]
            self.counts["compilers.pass_execs_saved"] += saved - before[1]

    def _count_wrap(self, layer: str, fn):
        counts = self.counts

        def counted(engine, kind, *args, **kwargs):
            counts[kind] += 1
            return fn(engine, kind, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Wrap every site that exists; list the missing ones in
        :attr:`absent` (their layers then read 0)."""
        sites = [(layer, m, p, self._wrap) for layer, m, p in SITES]
        sites += [("counts", m, p, self._count_wrap) for m, p in COUNT_SITES]
        for layer, module_name, path, wrap in sites:
            site = _resolve(module_name, path)
            if site is None:
                self.absent.append(f"{layer} at {module_name}.{path}")
                continue
            owner, attr, fn = site
            setattr(owner, attr, wrap(layer, fn))
            self._restore.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output -------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start/end (s), parent index."""
        with open(path, "w") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps([name, start, end, parent]) + "\n")
