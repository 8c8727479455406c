"""Pipeline configuration: every knob the passes consult.

A :class:`PipelineConfig` is assembled per (family, version, level) by
:mod:`repro.compilers.vendors` and :mod:`repro.compilers.versions`.
Each knob models a documented difference between real GCC and LLVM or
a regression mechanism from the paper's evaluation:

* ``global_fold_mode`` — GCC folds loads only of *never-written*
  internal globals (its global value analysis is not flow-sensitive,
  paper §2/Listing 4a); LLVM also folds when every store writes the
  initializer value back (so ``a = 0`` with ``a`` initialized to 0
  still folds, but ``a = 1`` does not — Listing 6a).
* ``addr_cmp`` — GCC folds comparisons of addresses of distinct
  objects; LLVM's EarlyCSE only manages it when both subscripts are 0
  (Listing 3: ``&a == &b[1]`` is missed, ``&a == &b[0]`` folds).
* ``fold_uniform_const_arrays`` — folding ``b[i]`` when every cell of
  a read-only array holds the same constant; GCC misses this
  (Listing 9f, GCC bug #99419), LLVM folds it.
* ``vectorize_*`` — models GCC's O3 vectorizer rewriting index
  arithmetic through ``unsigned long``, which blocks constant folding
  (Listing 9e).
* ``unswitch_*`` — models LLVM's aggressive loop unswitching at O3
  whose code-size blow-up interferes with later phases (Listings 7/8a).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace


@dataclass
class PipelineConfig:
    """Knobs consulted by the optimization passes.

    The defaults describe a generic mid-strength compiler; families
    and optimization levels override them.
    """

    # -- which passes run, in pipeline order ---------------------------
    passes: tuple[str, ...] = ()

    # -- SCCP / constant propagation ------------------------------------
    sccp_iterations: int = 2  # how many times SCCP+cleanup reruns

    # -- global value analysis ("globalopt") -----------------------------
    #: 'readonly'     — fold loads of internal globals that are never
    #:                  stored to (GCC-like).
    #: 'stored-init'  — additionally fold when every store writes the
    #:                  initial value back (LLVM-like).
    #: 'flow'         — flow-sensitive (the paper's "fix"; used by
    #:                  ablation benchmarks, no real family enables it).
    global_fold_mode: str = "readonly"
    #: fold loads from read-only arrays whose cells all hold the same
    #: constant (GCC misses this — bug #99419 / Listing 9f).
    fold_uniform_const_arrays: bool = False

    # -- pointer-comparison folding ----------------------------------------
    #: 'all'        — distinct objects compare unequal (GCC-like)
    #: 'zero-index' — only when both element indices are 0 (LLVM EarlyCSE)
    #: 'off'        — never fold
    addr_cmp: str = "all"

    # -- GVN / CSE ----------------------------------------------------------
    gvn_across_calls: bool = False  # may loads be forwarded across calls
    store_forwarding: bool = True

    # -- peephole groups ------------------------------------------------------
    #: collapse cast-of-cast chains (a real LLVM InstCombine feature
    #: whose absence/presence is a favourite source of missed folds)
    collapse_cast_chains: bool = True
    #: fold ``(x cmp c) == 0`` into the negated comparison
    fold_cmp_chains: bool = True
    #: apply algebraic identities (x*0, x^x, ...); off at -O0, where
    #: only literal constant folding happens (front-end behaviour)
    peephole_algebraic: bool = True

    # -- analysis precision limits ---------------------------------------------
    #: points-to gives up (treats everything as escaped) on modules
    #: with more objects than this — a classic compile-time/precision
    #: trade-off commits like to touch.
    alias_max_objects: int = 10_000
    #: VRP widening threshold (lower = less precise loop ranges)
    vrp_widen_after: int = 4
    #: range transfer functions for shift/modulo operands — the
    #: capability behind paper Listings 8b ("[X,X+1) % [Y,Y+1) could
    #: not be simplified", fixed 611a02cce50) and 9a ("could not
    #: deduce X << Y != 0 implies X != 0", fixed 5f9ccf17de7)
    vrp_extended_ops: bool = True

    # -- DSE ------------------------------------------------------------------
    dse: bool = True
    dse_dead_at_exit: bool = True  # remove final stores to statics in main

    # -- inlining ----------------------------------------------------------------
    inline_budget: int = 60  # max callee instruction count
    inline_single_call_bonus: int = 60  # extra budget for single-call-site statics

    # -- loops ------------------------------------------------------------------
    unroll_max_trip: int = 16
    unroll_max_body: int = 40  # instructions
    #: Loop "vectorization": rewrites small counted loops to use
    #: unsigned-long index arithmetic (modelled after GCC PR99776);
    #: vectorized loops are skipped by the unroller.
    vectorize: bool = False
    vectorize_min_trip: int = 4
    #: Aggressive loop unswitching: hoists invariant conditions by
    #: versioning loops.  Its size blow-up interacts with the unroll
    #: and inline cost models (modelled after LLVM PR49773).
    unswitch: bool = False
    unswitch_max_body: int = 60

    # -- value range propagation --------------------------------------------------
    vrp: bool = False

    # -- jump threading -------------------------------------------------------------
    jump_threading: bool = False

    def with_(self, **changes) -> "PipelineConfig":
        """A copy of this config with ``changes`` applied."""
        return replace(self, **changes)

    def describe_diff(self, other: "PipelineConfig") -> list[str]:
        """Human-readable field-by-field diff (for reports/bisection)."""
        out = []
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if a != b:
                out.append(f"{f.name}: {a!r} -> {b!r}")
        return out


def config_fingerprint_of(config: PipelineConfig) -> str:
    """Stable identity of one pipeline config across processes.

    Every :class:`PipelineConfig` field is a JSON-serializable
    primitive (the pass tuple serializes as a list), so the sorted
    JSON dump is canonical.  This keys the persistent compile memo in
    :mod:`repro.store` together with
    :func:`~repro.ir.printer.fingerprint_module` of the lowered input.
    """
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: The canonical full pipeline order.  Levels/families choose subsets;
#: the strings name entries in repro.passes.registry.
FULL_PIPELINE = (
    "simplify-cfg",
    "mem2reg",
    "sccp",
    "instcombine",
    "inline",
    "mem2reg",
    "globalopt",
    "memcp",
    "sccp",
    "instcombine",
    "licm",
    "unswitch",
    "vectorize",
    "unroll",
    "simplify-cfg",
    "memcp",
    "gvn",
    "sccp",
    "instcombine",
    "memcp",
    "sccp",
    "globalopt",
    "memcp",
    "vrp",
    "cprop",
    "jump-threading",
    "dse",
    "sccp",
    "gvn",
    "instcombine",
    "adce",
    "simplify-cfg",
)
