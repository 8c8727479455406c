from collections import Counter
from dataclasses import astuple

import pytest

from repro.compilers import CompilerSpec, run_pipeline
from repro.core.corpus import default_specs
from repro.core.differential import analyze_markers, missed_between_levels
from repro.core.ground_truth import compute_ground_truth
from repro.core.markers import instrument_program
from repro.core.primary import build_marker_graph, primary_missed_markers
from repro.frontend.lower import lower_program
from repro.frontend.typecheck import check_program
from repro.generator import generate_program
from repro.lang import parse_program
from repro.observability import PASS_SPAN, Tracer, use_tracer
from repro.observability.metrics import MetricsRegistry

LISTING_1 = """
char a;
char b[2];
static int c = 0;
int main() {
  char *d = &a;
  char *e = &b[1];
  if (d == e) {
    int f = 0;
    int g = 0;
    for (; f < 10; f++) {
      g += f;
    }
  }
  if (c) {
    b[0] = 1;
  }
  c = 0;
  return 0;
}
"""


def analyzed(source, specs):
    inst = instrument_program(parse_program(source))
    info = check_program(inst.program)
    truth = compute_ground_truth(inst, info=info)
    return inst, truth, analyze_markers(inst, specs, info=info, ground_truth=truth)


def test_cross_compiler_differential_on_listing_1():
    gcc = CompilerSpec("gcclike", "O3")
    llvm = CompilerSpec("llvmlike", "O3")
    inst, truth, analysis = analyzed(LISTING_1, [gcc, llvm])
    gcc_misses = analysis.missed_vs(gcc, llvm)
    llvm_misses = analysis.missed_vs(llvm, gcc)
    assert len(gcc_misses) == 1  # the if (c) marker
    assert len(llvm_misses) == 2  # the pointer-compare if + its loop
    assert not analysis.soundness_violations(gcc)
    assert not analysis.soundness_violations(llvm)


def test_missed_vs_ideal_counts_all_misses():
    gcc = CompilerSpec("gcclike", "O3")
    inst, truth, analysis = analyzed(LISTING_1, [gcc])
    assert analysis.missed_vs_ideal(gcc) == truth.dead & analysis.outcome(gcc).alive


def test_cross_level_differential():
    specs = [CompilerSpec("llvmlike", lvl) for lvl in ("O1", "O2", "O3")]
    source = """
        void opaque_sink(void);
        int opaque_source(void);
        int main() {
          long t[2];
          t[0] = opaque_source();
          t[1] = 0;
          long x = t[0];
          opaque_sink();
          if (t[0] != x) {
            t[1] = 1;
          }
          return (int)t[1];
        }
    """
    inst, truth, analysis = analyzed(source, specs)
    seized = missed_between_levels(analysis, "llvmlike", high="O3", lows=("O1", "O2"))
    assert len(seized) == 1  # the O3 regression (gvn across calls)


def test_primary_classification_nested_ifs():
    # Fig. 2 / Listing 5: inner dead block is secondary when the outer
    # one is missed.
    source = """
    int opaque_source(void);
    static int flag = 9;
    int main() {
      int v = opaque_source();
      if (flag == 13) {
        if (v) {
          v = 0;
        }
      }
      flag = 13;
      return v;
    }
    """
    inst = instrument_program(parse_program(source))
    info = check_program(inst.program)
    truth = compute_ground_truth(inst, info=info)
    # The instrumenter visits nested constructs first: markers[0] is
    # the inner if's, markers[1] the outer's.
    inner = inst.markers[0].name
    outer = inst.markers[1].name
    assert {outer, inner} <= truth.dead

    # Case 1: compiler eliminates nothing -> only the outer is primary.
    primary = primary_missed_markers(inst, truth, frozenset(), info=info)
    assert outer in primary
    assert inner not in primary

    # Case 2: outer eliminated, inner missed -> inner becomes primary.
    primary2 = primary_missed_markers(inst, truth, frozenset({outer}), info=info)
    assert inner in primary2

    # Case 3: everything eliminated -> nothing is missed at all.
    primary3 = primary_missed_markers(inst, truth, truth.dead, info=info)
    assert primary3 == frozenset()


def test_marker_graph_interprocedural_edges():
    source = """
    int opaque_source(void);
    static int flag = 9;
    static void callee(void) {
      if (flag == 77) {
        flag = 1;
      }
    }
    int main() {
      if (opaque_source()) {
        callee();
      }
      flag = 0;
      return 0;
    }
    """
    inst = instrument_program(parse_program(source))
    info = check_program(inst.program)
    truth = compute_ground_truth(inst, info=info)
    graph = build_marker_graph(inst, truth.executed_functions(), info)
    callee_marker = next(m.name for m in inst.markers if m.function == "callee")
    main_marker = next(m.name for m in inst.markers if m.function == "main")
    # The callee's dead if is predecessed by the call-site marker.
    assert main_marker in graph.preds[callee_marker]


def test_self_loop_markers_do_not_block_primary():
    source = """
    int main() {
      for (int i = 0; i < 0; i++) {
        i += 0;
      }
      return 0;
    }
    """
    inst = instrument_program(parse_program(source))
    info = check_program(inst.program)
    truth = compute_ground_truth(inst, info=info)
    loop_marker = inst.markers[0].name
    assert loop_marker in truth.dead
    primary = primary_missed_markers(inst, truth, frozenset(), info=info)
    # Its only pred path is the live entry; the back edge to itself is
    # ignored, so a missed loop marker is primary.
    assert loop_marker in primary


def _generated(seed):
    inst = instrument_program(generate_program(seed))
    info = check_program(inst.program)
    return inst, info, compute_ground_truth(inst, info=info)


@pytest.mark.parametrize("seed", [0, 11])
def test_verify_ir_does_not_change_alive_sets(seed):
    """Every pass of every default config produces verifier-clean IR,
    and verifying never changes what survives."""
    inst, info, truth = _generated(seed)
    specs = default_specs()
    checked = analyze_markers(
        inst, specs, info=info, ground_truth=truth, verify_ir=True
    )
    plain = analyze_markers(inst, specs, info=info, ground_truth=truth)
    assert set(checked.outcomes) == set(plain.outcomes)
    for name, outcome in checked.outcomes.items():
        assert outcome.alive == plain.outcomes[name].alive, (seed, name)
        assert outcome.all_markers == plain.outcomes[name].all_markers


def test_marker_kill_counters_match_traced_pass_attribution():
    """``attribution.marker_kills/<pass>`` counts once per compiled
    config: it equals that pass's traced ``markers_eliminated`` summed
    over the distinct default configs, with tracing on or off."""
    inst, info, truth = _generated(3)
    specs = default_specs()
    configs = {astuple(spec.config()): spec.config() for spec in specs}
    tracer = Tracer()
    for config in configs.values():
        run_pipeline(lower_program(inst.program, info), config, tracer=tracer)
    traced = Counter()
    for span in tracer.find(PASS_SPAN):
        traced[span.attrs["pass"]] += len(span.attrs["markers_eliminated"])
    expected = {name: kills for name, kills in traced.items() if kills}
    assert expected

    def kills(metrics):
        prefix = "attribution.marker_kills/"
        return {
            name[len(prefix):]: entry["value"]
            for name, entry in metrics.to_dict().items()
            if name.startswith(prefix)
        }

    untraced = MetricsRegistry()
    analyze_markers(inst, specs, info=info, ground_truth=truth,
                    metrics=untraced)
    assert kills(untraced) == expected
    both = MetricsRegistry()
    with use_tracer(Tracer()):
        analyze_markers(inst, specs, info=info, ground_truth=truth,
                        metrics=both)
    assert kills(both) == expected
