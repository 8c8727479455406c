"""High-level one-call API.

The shortest path from "I have a C-subset program" to "which compiler
misses what":

>>> from repro import api
>>> report = api.analyze_source('''
... int main() {
...   int x = 0;
...   if (x) { x = 1; }
...   return x;
... }''')
>>> report.missed["gcclike-O3"]  # doctest: +SKIP
frozenset()
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .compilers import CompilerSpec, compile_minic
from .core.differential import ProgramAnalysis, analyze_markers
from .core.ground_truth import compute_ground_truth
from .core.markers import instrument_program
from .core.primary import build_marker_graph, primary_missed_markers
from .frontend.typecheck import check_program
from .lang import parse_program, print_program


@dataclass
class AnalysisReport:
    """Human-friendly summary of one program's marker analysis."""

    analysis: ProgramAnalysis
    missed: dict[str, frozenset[str]] = field(default_factory=dict)
    primary: dict[str, frozenset[str]] = field(default_factory=dict)

    @property
    def dead_markers(self) -> frozenset[str]:
        return self.analysis.ground_truth.dead

    @property
    def alive_markers(self) -> frozenset[str]:
        return self.analysis.ground_truth.alive

    def summary(self) -> str:
        lines = [
            f"markers: {len(self.analysis.instrumented.markers)} "
            f"({len(self.dead_markers)} dead, {len(self.alive_markers)} alive)",
        ]
        for spec, missed in sorted(self.missed.items()):
            primary = self.primary.get(spec, frozenset())
            lines.append(
                f"  {spec}: missed {len(missed)} dead markers"
                f" ({len(primary)} primary)"
                + (f" -> {', '.join(sorted(missed))}" if missed else "")
            )
        return "\n".join(lines)


def default_specs() -> list[CompilerSpec]:
    return [
        CompilerSpec(family, level)
        for family in ("gcclike", "llvmlike")
        for level in ("O0", "O1", "Os", "O2", "O3")
    ]


def analyze_source(
    source: str,
    specs: list[CompilerSpec] | None = None,
    verify_ir: bool = False,
) -> AnalysisReport:
    """Instrument, ground-truth, and differentially compile a program
    given as MiniC/C-subset source text.

    ``verify_ir`` runs the IR verifier after every optimization pass
    and fails loudly (naming the pass) if one produces malformed IR.
    """
    program = parse_program(source)
    return analyze_program(program, specs, verify_ir=verify_ir)


def analyze_program(
    program,
    specs: list[CompilerSpec] | None = None,
    verify_ir: bool = False,
) -> AnalysisReport:
    specs = specs or default_specs()
    instrumented = instrument_program(program)
    info = check_program(instrumented.program)
    truth = compute_ground_truth(instrumented, info=info)
    analysis = analyze_markers(
        instrumented, specs, info=info, ground_truth=truth,
        verify_ir=verify_ir,
    )
    graph = build_marker_graph(instrumented, truth.executed_functions(), info)
    report = AnalysisReport(analysis)
    for spec in specs:
        missed = analysis.missed_vs_ideal(spec)
        eliminated = analysis.outcome(spec).eliminated
        primary = primary_missed_markers(instrumented, truth, eliminated, graph=graph)
        report.missed[str(spec)] = missed
        report.primary[str(spec)] = frozenset(missed & primary)
    return report


def instrumented_source(source: str) -> str:
    """The instrumented version of a program, as C text (step ① of the
    paper's Figure 1, for inspection)."""
    program = parse_program(source)
    instrumented = instrument_program(program)
    check_program(instrumented.program)
    return print_program(instrumented.program)


def compile_to_asm(source: str, family: str = "gcclike", level: str = "O2") -> str:
    """Compile source text and return the generated assembly."""
    return compile_minic(source, CompilerSpec(family, level)).asm
