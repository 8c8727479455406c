"""Deterministic fault injection for resilience testing.

The campaign engine promises to survive pathological seeds: crashes
are contained into :class:`~repro.core.resilience.CrashEnvelope`\\ s,
runaway seeds hit their wall-clock budget, dead workers are restarted.
Those paths only fire on *rare* inputs in the wild, so tests and CI
prove them with injected faults instead: a picklable
:class:`FaultPlan` names **sites** (choke points the production code
already passes through) and the seeds at which each site should
misbehave.

Sites currently wired:

========================  ====================================================
``generate``              program generation (:mod:`repro.core.resilience`)
``instrument``            marker instrumentation + type check
``ground_truth``          interpreter-based liveness oracle
``analyze``               differential compilation + marker comparison
``pass:<name>``           :func:`execute_pass` boundary for one pass
``chaos``                 the registered no-op ``chaos`` pass (below)
``store_write``           :class:`~repro.store.ArtifactStore` write paths —
                          a ``raise`` here degrades the store to cold per
                          its never-crash contract (``store.errors`` bumps)
``worker_hang``           the service supervisor's per-job hang drill; a
                          ``spin`` here is converted into a job timeout by
                          the armed job deadline and retried with backoff
``serve:handler``         the service HTTP API's request dispatch (health
                          endpoints excluded — they must stay truthful);
                          a ``raise`` returns 500 and bumps
                          ``service.handler_errors``
``serve:drain``           between finishing in-flight jobs and the final
                          flush during graceful drain (``kill`` here is
                          the mid-drain-kill drill: the restarted daemon
                          must resume queued jobs exactly once)
========================  ====================================================

Service sites fault at *every* hit when the fault's ``seeds`` set is
empty; seed targeting applies only where a campaign seed is active
(``store_write`` during a campaign commit, for example).

Fault kinds:

* ``raise`` — raise :class:`InjectedFault` at the site;
* ``spin``  — busy-wait until the armed seed budget expires
  (:mod:`repro.budget`), modelling a runaway seed.  Without a budget
  the spin gives up after ``spin_seconds`` so tests can never hang;
* ``skip``  — raise :class:`~repro.interp.StepLimitExceeded`,
  modelling a program whose liveness oracle blows the interpreter
  budget (drives the campaign's pre-existing *skipped* path);
* ``kill``  — terminate the process with ``os._exit`` (worker-death
  drills for the process pool's restart/bisect recovery).

The installed plan is a per-process global so forked pool workers
inherit it; :func:`repro.core.parallel` additionally ships the parent's
plan through the pool initializer for spawn-only platforms.  With no
plan installed every hook is a single global ``None`` check.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from ..budget import check_deadline, deadline_armed

KINDS = ("raise", "spin", "skip", "kill")


class InjectedFault(RuntimeError):
    """A deliberately injected failure (never raised in production)."""


@dataclass(frozen=True)
class Fault:
    """Misbehave at ``site`` when analyzing any of ``seeds``.

    An empty ``seeds`` set means *every* seed (and also contexts where
    no campaign seed is active, e.g. a bare ``run_pipeline`` call).
    """

    site: str
    kind: str = "raise"
    seeds: frozenset[int] = field(default_factory=frozenset)
    #: spin faults give up after this long when no budget is armed
    spin_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {KINDS}")

    def matches(self, site: str, seed: int | None) -> bool:
        if site != self.site:
            return False
        return not self.seeds or seed in self.seeds


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable set of faults."""

    faults: tuple[Fault, ...] = ()

    def fault_at(self, site: str, seed: int | None) -> Fault | None:
        for fault in self.faults:
            if fault.matches(site, seed):
                return fault
        return None

    def skips(self, seed: int) -> bool:
        """Whether a ``skip`` fault targets ``seed`` (at any site)."""
        return any(
            fault.kind == "skip" and (not fault.seeds or seed in fault.seeds)
            for fault in self.faults
        )


def parse_fault(text: str) -> Fault:
    """Parse the CLI's ``site:kind[:seed,seed,...]`` fault syntax.

    Examples: ``generate:raise:3,11``, ``ground_truth:spin:17``,
    ``pass:gvn:raise:5`` (the site itself may contain one colon).
    """
    parts = text.split(":")
    # the kind is the first recognized keyword; everything before it is
    # the site (which may itself contain a colon, e.g. "pass:gvn")
    for index in range(1, len(parts)):
        if parts[index] in KINDS:
            site = ":".join(parts[:index])
            kind = parts[index]
            rest = parts[index + 1:]
            break
    else:
        raise ValueError(
            f"bad fault spec {text!r}: expected site:kind[:seeds] with "
            f"kind one of {KINDS}"
        )
    if len(rest) > 1:
        raise ValueError(f"bad fault spec {text!r}: trailing fields {rest[1:]}")
    seeds: frozenset[int] = frozenset()
    if rest and rest[0]:
        try:
            seeds = frozenset(int(s) for s in rest[0].split(","))
        except ValueError:
            raise ValueError(
                f"bad fault spec {text!r}: seeds must be integers"
            ) from None
    return Fault(site=site, kind=kind, seeds=seeds)


# -- installed plan + current seed (per-process globals) -------------------

_PLAN: FaultPlan | None = None
_SEED: int | None = None


def install_plan(plan: FaultPlan | None) -> None:
    global _PLAN
    _PLAN = plan


def clear_plan() -> None:
    install_plan(None)


def current_plan() -> FaultPlan | None:
    return _PLAN


#: alias used by the pool initializer for readability
installed_plan = current_plan


def set_current_seed(seed: int | None) -> None:
    """Record which campaign seed is being analyzed (targets faults)."""
    global _SEED
    _SEED = seed


def current_seed() -> int | None:
    return _SEED


def trigger(site: str) -> None:
    """Fault-injection hook: no-op unless an installed plan targets
    ``site`` at the current seed."""
    if _PLAN is None:
        return
    fault = _PLAN.fault_at(site, _SEED)
    if fault is None:
        return
    if fault.kind == "raise":
        raise InjectedFault(f"injected fault at {site} (seed {_SEED})")
    if fault.kind == "skip":
        from ..interp import StepLimitExceeded  # lazy: keep chaos light

        raise StepLimitExceeded(
            f"injected step-limit skip at {site} (seed {_SEED})"
        )
    if fault.kind == "kill":  # pragma: no cover - exercised via subprocess
        os._exit(86)
    _spin(fault)


def _spin(fault: Fault) -> None:
    """Busy-wait like a runaway seed: the armed budget converts the
    spin into ``SeedBudgetExceeded``; without one, give up after
    ``spin_seconds`` so unbudgeted tests never hang."""
    give_up = None if deadline_armed() else time.monotonic() + fault.spin_seconds
    while True:
        check_deadline()
        if give_up is not None and time.monotonic() > give_up:
            return
        time.sleep(0.001)


def chaos_pass(module, config) -> bool:
    """The registered ``chaos`` pass: a no-op unless a plan targets the
    ``chaos`` site, in which case it misbehaves like a buggy pass.

    Never part of any family pipeline; tests build explicit configs
    around it to drive crashes through the pass-pipeline containment.
    """
    trigger("chaos")
    return False
