import pytest

from repro.compilers import CompilerSpec
from repro.core.reduction import (
    count_statements,
    missed_marker_predicate,
    reduce_program,
)
from repro.lang import parse_program, print_program
from repro.observability.metrics import MetricsRegistry

# A listing-1-flavoured program padded with removable noise.
BLOATED = """
void DCEMarker0(void);
char a;
char b[2];
static int noise1 = 4;
static long noise2[3] = {1, 2, 3};
static int helper(int x) { return x * 3; }
int main() {
  int pad1 = helper(2);
  noise1 += pad1;
  long pad2 = noise2[1] + noise1;
  char *d = &a;
  char *e = &b[1];
  if (d == e) {
    DCEMarker0();
  }
  noise2[2] = pad2;
  for (int i = 0; i < 3; i++) { noise1 += i; }
  return 0;
}
"""


def test_reduction_shrinks_while_preserving_interestingness():
    program = parse_program(BLOATED)
    predicate = missed_marker_predicate(
        "DCEMarker0",
        keeper=CompilerSpec("llvmlike", "O3"),
        witness=CompilerSpec("gcclike", "O3"),
    )
    assert predicate(program)
    result = reduce_program(program, predicate)
    assert result.stmts_after < result.stmts_before
    assert predicate(result.program)
    text = print_program(result.program)
    assert "DCEMarker0" in text
    # The noise should be gone.
    assert "helper" not in text
    assert "noise2" not in text


def test_reduction_requires_interesting_input():
    program = parse_program("void DCEMarker0(void); int main() { return 0; }")
    predicate = missed_marker_predicate(
        "DCEMarker0", keeper=CompilerSpec("llvmlike", "O3")
    )
    with pytest.raises(ValueError):
        reduce_program(program, predicate)


def test_predicate_rejects_alive_marker():
    program = parse_program(
        "void DCEMarker0(void); int main() { DCEMarker0(); return 0; }"
    )
    predicate = missed_marker_predicate(
        "DCEMarker0", keeper=CompilerSpec("llvmlike", "O3")
    )
    assert not predicate(program)


def test_count_statements():
    program = parse_program("int main() { int a = 1; a += 2; return a; }")
    assert count_statements(program) >= 4  # block + three statements


def test_reduction_byte_identical_with_memoized_oracle():
    predicate = missed_marker_predicate(
        "DCEMarker0",
        keeper=CompilerSpec("llvmlike", "O3"),
        witness=CompilerSpec("gcclike", "O3"),
    )
    metrics = MetricsRegistry()
    memoized = reduce_program(
        parse_program(BLOATED), predicate, metrics=metrics
    )
    plain = reduce_program(
        parse_program(BLOATED), predicate, memoize_oracle=False
    )
    assert print_program(memoized.program) == print_program(plain.program)
    assert memoized.attempts == plain.attempts
    assert memoized.successes == plain.successes
    assert memoized.stmts_before == plain.stmts_before
    assert memoized.stmts_after == plain.stmts_after
    # the memo actually fired, and the metrics agree with the result
    assert memoized.oracle_cache_hits > 0
    assert plain.oracle_cache_hits == 0
    assert (
        metrics.counter("reduction.oracle_cache_hits").value
        == memoized.oracle_cache_hits
    )
