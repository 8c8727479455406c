"""Fault-isolation units: crash envelopes, fault plans, the verify-ir
gate, and the guarded reduction oracle."""

import pytest

from repro.compilers import PipelineConfig, run_pipeline
from repro.compilers.pipeline import PassPipelineError
from repro.core.corpus import ProgramOutcome, default_specs, run_campaign
from repro.core.reduction import count_statements, reduce_program
from repro.core.resilience import (
    CrashEnvelope,
    analyze_one_resilient,
    bucket_crashes,
    crash_envelope,
    worker_death_envelope,
)
from repro.lang import parse_program
from repro.observability.metrics import MetricsRegistry
from repro.passes.registry import PASS_REGISTRY
from repro.testing import chaos


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    chaos.clear_plan()
    chaos.set_current_seed(None)


# -- crash envelopes -------------------------------------------------------


def _boom(seed):
    raise ValueError(f"boom for {seed}")


def _caught(seed):
    try:
        _boom(seed)
    except ValueError as err:
        return crash_envelope(seed, "analyze", err)


def test_crash_envelope_buckets_by_type_and_frame():
    a, b = _caught(1), _caught(2)
    assert a.exc_type == "ValueError"
    assert a.bucket == b.bucket  # same site, different seeds/messages
    # raised outside src/repro: no in-repo frame, type-only bucket
    assert a.bucket == "ValueError"
    assert a.message == "boom for 1"
    assert a.repro.startswith("dce-hunt generate --seed 1")
    assert any("boom for 1" in line for line in a.traceback)


def test_crash_envelope_follows_cause_chain_and_pass_name():
    try:
        run_pipeline(
            _module(), PipelineConfig(passes=("chaos",)),
        )
    except PassPipelineError:
        pytest.fail("no fault installed: chaos pass must be a no-op")
    chaos.install_plan(chaos.FaultPlan((chaos.Fault(site="chaos"),)))
    with pytest.raises(PassPipelineError) as exc_info:
        run_pipeline(_module(), PipelineConfig(passes=("chaos",)))
    envelope = crash_envelope(7, "compile", exc_info.value)
    # bucket uses the ROOT cause type plus the failing pass
    assert envelope.exc_type == "InjectedFault"
    assert envelope.bucket.endswith("#chaos")
    assert envelope.seed == 7


def _module():
    from repro.frontend.lower import lower_program
    from repro.frontend.typecheck import check_program

    program = parse_program("int main() { return 0; }")
    return lower_program(program, check_program(program))


def test_bucket_crashes_sorted_and_seed_ordered():
    envs = [
        CrashEnvelope(5, "analyze", "E", "m", "B@y"),
        CrashEnvelope(3, "analyze", "E", "m", "B@y"),
        CrashEnvelope(4, "generate", "F", "m", "A@x"),
    ]
    buckets = bucket_crashes(envs)
    assert list(buckets) == ["A@x", "B@y"]
    assert [e.seed for e in buckets["B@y"]] == [3, 5]


def test_worker_death_envelope_shape():
    envelope = worker_death_envelope(42)
    assert envelope.phase == "worker"
    assert envelope.bucket == "WorkerDeath@worker"
    assert envelope.seed == 42


# -- fault plans -----------------------------------------------------------


def test_parse_fault_roundtrips():
    fault = chaos.parse_fault("pass:gvn:raise:3,11")
    assert fault == chaos.Fault(
        site="pass:gvn", kind="raise", seeds=frozenset({3, 11})
    )
    assert chaos.parse_fault("ground_truth:spin:17").kind == "spin"
    assert chaos.parse_fault("generate:raise").seeds == frozenset()
    assert chaos.parse_fault("ground_truth:skip:4").kind == "skip"


@pytest.mark.parametrize(
    "bad", ["generate", "generate:explode", "pass:gvn:raise:x", "a:raise:1:2"]
)
def test_parse_fault_rejects_malformed(bad):
    with pytest.raises(ValueError):
        chaos.parse_fault(bad)


def test_fault_targets_only_named_seeds():
    plan = chaos.FaultPlan(
        (chaos.Fault(site="generate", seeds=frozenset({3})),)
    )
    assert plan.fault_at("generate", 3) is not None
    assert plan.fault_at("generate", 4) is None
    assert plan.fault_at("instrument", 3) is None
    # empty seed set = every seed, including "no campaign running"
    assert chaos.FaultPlan((chaos.Fault(site="x"),)).fault_at("x", None)


def test_chaos_pass_is_registered_and_inert_by_default():
    assert "chaos" in PASS_REGISTRY
    assert PASS_REGISTRY["chaos"](None, None) is False


# -- per-seed resilient analysis ------------------------------------------


def test_resilient_seed_matches_plain_outcome():
    specs = default_specs()
    report = analyze_one_resilient(0, specs)
    assert report.completed and report.crash is None
    assert isinstance(report.outcome, ProgramOutcome)
    assert report.outcome.seed == 0


def test_resilient_seed_contains_crash_with_phase():
    chaos.install_plan(
        chaos.FaultPlan((chaos.Fault(site="instrument"),))
    )
    report = analyze_one_resilient(0, default_specs())
    assert not report.completed
    assert report.crash is not None
    assert report.crash.phase == "instrument"
    assert report.crash.exc_type == "InjectedFault"


def test_resilient_seed_skip_kind_hits_skipped_path():
    chaos.install_plan(
        chaos.FaultPlan((chaos.Fault(site="ground_truth", kind="skip"),))
    )
    report = analyze_one_resilient(0, default_specs())
    assert report.skipped and report.crash is None


# -- negative n_programs ---------------------------------------------------


def test_run_campaign_rejects_negative_count():
    with pytest.raises(ValueError, match="n_programs must be >= 0"):
        run_campaign(n_programs=-5)


def test_cli_rejects_negative_programs(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["campaign", "--programs", "-5"])
    assert "--programs must be >= 0" in capsys.readouterr().err


# -- verify-ir gate --------------------------------------------------------


def test_verify_ir_names_offending_pass():
    def corrupting_pass(module, config):
        # drop a terminator: structurally invalid IR
        func = next(iter(module.functions.values()))
        func.blocks[0].instrs.pop()
        return True

    PASS_REGISTRY["corrupt"] = corrupting_pass
    try:
        module = _module()
        with pytest.raises(PassPipelineError) as exc_info:
            run_pipeline(
                module,
                PipelineConfig(passes=("corrupt",)),
                verify_each=True,
            )
        assert exc_info.value.pass_name == "corrupt"
        assert "unverifiable IR" in str(exc_info.value)
    finally:
        del PASS_REGISTRY["corrupt"]


def test_verify_ir_passes_clean_compilations():
    from repro import api

    report = api.analyze_source(
        "int main() { int x = 0; if (x) { x = 1; } return x; }",
        verify_ir=True,
    )
    assert report.missed  # analysis actually ran


# -- guarded reduction oracle ----------------------------------------------

REDUCIBLE = """
void DCEMarker0(void);
static int keep = 1;
int main() {
  int a = 1;
  int b = 2;
  int c = a + b;
  if (c == 100) { DCEMarker0(); }
  return keep;
}
"""


def test_reduction_survives_oracle_exceptions():
    from repro.lang import print_program

    def fragile(program):  # noqa: ANN001 - pytest-local predicate
        text = print_program(program)
        if "DCEMarker0()" not in text:
            return False
        if "keep" not in text:
            # simulate a predicate that crashes on this shape instead
            # of answering
            raise RuntimeError("oracle blew up")
        return True

    metrics = MetricsRegistry()
    result = reduce_program(
        parse_program(REDUCIBLE), fragile, max_rounds=3, metrics=metrics
    )
    text = print_program(result.program)
    # crashing candidates were declined, so the load-bearing parts stay
    assert "DCEMarker0()" in text
    assert "keep" in text
    assert result.oracle_errors >= 1
    assert (
        metrics.counter("reduction.oracle_errors").value
        == result.oracle_errors
    )
    # it still shrank: best-so-far was kept through the errors
    assert result.stmts_after < result.stmts_before
    assert count_statements(result.program) == result.stmts_after
