"""Live campaign dashboard: a single-line TTY status renderer.

:class:`LiveDashboard` subscribes to the campaign
:class:`~repro.observability.events.EventBus` and keeps one status
line updated in place (carriage return + erase-to-end) while the
campaign runs::

    [ 12/50] 1.32 seeds/s · 3 findings · 1 crash · ETA 29s

On a non-TTY stream it degrades to plain per-seed progress lines (CI
logs stay readable, nothing is overprinted).  Either way the output
goes to *stderr* by default so redirected stdout
(``campaign ... > result.json``) stays machine-clean.

The renderer is a pure event consumer: it never touches campaign
state, so attaching it cannot perturb results, and tests drive it with
synthetic events and an injected clock.
"""

from __future__ import annotations

import sys
import time

from .events import Event, EventBus


class LiveDashboard:
    """Event-bus subscriber rendering live campaign status.

    ``stream`` defaults to ``sys.stderr``; ``force_tty`` overrides TTY
    detection (tests); ``now`` injects a clock.  ``metrics`` (the
    campaign's registry, optional) lets the status line surface
    artifact-store activity — replayed seeds and compile/oracle hits
    are visible only as counters, never as events, because warm
    replays keep the event stream byte-identical to a cold run.
    """

    def __init__(
        self,
        stream=None,
        *,
        force_tty: bool | None = None,
        now=time.monotonic,
        metrics=None,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        if force_tty is None:
            force_tty = bool(getattr(self._stream, "isatty", lambda: False)())
        self._tty = force_tty
        self._now = now
        self._metrics = metrics
        self._start: float | None = None
        self._total = 0
        self._done = 0
        self._findings = 0
        self._crashes = 0
        self._budget = 0
        self._reduction_commits = 0
        self._jobs_done = 0
        self._job_retries = 0
        self._cases = 0
        self._cases_advanced = 0
        self._line_open = False

    # -- wiring --------------------------------------------------------

    def attach(self, bus: EventBus) -> "LiveDashboard":
        bus.subscribe(self)
        return self

    def detach(self, bus: EventBus) -> None:
        bus.unsubscribe(self)

    # -- event consumption ---------------------------------------------

    def __call__(self, event: Event) -> None:
        # dot-named types (reduction.commit) map to _on_reduction_commit
        name = event.type.replace(".", "_")
        handler = getattr(self, f"_on_{name}", None)
        if handler is not None:
            handler(event)

    def _on_campaign_start(self, event: Event) -> None:
        self._start = self._now()
        self._total = event.attrs.get("programs", 0)
        self._done = self._findings = self._crashes = self._budget = 0
        self._reduction_commits = 0
        if not self._tty:
            self._print(
                f"campaign: {self._total} programs "
                f"from seed {event.attrs.get('seed_base', '?')}"
            )

    def _on_checkpoint_replayed(self, event: Event) -> None:
        self._seed_finished(event, event.attrs.get("status", "replayed"))

    def _on_seed_done(self, event: Event) -> None:
        detail = ""
        if "markers" in event.attrs:
            detail = (
                f" ({event.attrs['markers']} markers, "
                f"{event.attrs['dead']} dead)"
            )
        self._seed_finished(event, event.attrs.get("status", "ok") + detail)

    def _on_crash(self, event: Event) -> None:
        self._crashes += 1
        self._seed_finished(
            event, f"crash [{event.attrs.get('bucket', '?')}]"
        )

    def _on_budget_exceeded(self, event: Event) -> None:
        self._budget += 1
        self._seed_finished(event, "over budget")

    def _on_finding(self, event: Event) -> None:
        self._findings += 1
        if self._tty:
            self._render()

    def _on_reduction_round(self, event: Event) -> None:
        # round-level progress is noise on the one-line TTY; narrate it
        # only in plain mode (the drain happens after the seed loop, so
        # it never interleaves with per-seed lines)
        if not self._tty:
            self._print(
                f"reduce seed {event.attrs.get('seed', '?')}: "
                f"round {event.attrs.get('round', '?')}, "
                f"{event.attrs.get('stmts', '?')} stmts, "
                f"{event.attrs.get('commits', 0)} commits"
            )

    def _on_reduction_commit(self, event: Event) -> None:
        self._reduction_commits += 1
        if self._tty:
            self._render()

    # -- service (daemon) events ---------------------------------------

    def _on_job_started(self, event: Event) -> None:
        if not self._tty:
            attempt = event.attrs.get("attempt", 0)
            retry = f" (retry {attempt})" if attempt else ""
            self._print(
                f"job {event.attrs.get('job', '?')}: started{retry}"
            )

    def _on_job_retried(self, event: Event) -> None:
        self._job_retries += 1
        if self._tty:
            self._render()
        else:
            self._print(
                f"job {event.attrs.get('job', '?')}: "
                f"{event.attrs.get('kind', '?')}, retry "
                f"{event.attrs.get('attempt', '?')} in "
                f"{event.attrs.get('delay', 0):.1f}s"
            )

    def _on_job_done(self, event: Event) -> None:
        self._jobs_done += 1
        if self._tty:
            self._render()
        else:
            self._print(
                f"job {event.attrs.get('job', '?')}: done "
                f"({event.attrs.get('findings', 0)} findings)"
            )

    def _on_job_failed(self, event: Event) -> None:
        if not self._tty:
            self._print(
                f"job {event.attrs.get('job', '?')}: FAILED after "
                f"{event.attrs.get('attempts', '?')} attempts"
            )

    def _on_case_found(self, event: Event) -> None:
        self._cases += 1
        if self._tty:
            self._render()
        else:
            self._print(
                f"case {event.attrs.get('fingerprint', '?')[:16]}: found "
                f"({event.attrs.get('kind', '?')}, seed "
                f"{event.attrs.get('seed', '?')})"
            )

    def _on_case_advanced(self, event: Event) -> None:
        self._cases_advanced += 1
        if self._tty:
            self._render()
        else:
            self._print(
                f"case {event.attrs.get('fingerprint', '?')[:16]}: "
                f"-> {event.attrs.get('state', '?')}"
            )

    def _on_campaign_end(self, event: Event) -> None:
        if self._line_open:
            self._stream.write("\n")
            self._line_open = False
        elapsed = self._elapsed()
        reduced = event.attrs.get("findings_reduced")
        self._print(
            f"campaign done: {event.attrs.get('completed', self._done)} seeds, "
            f"{event.attrs.get('findings', self._findings)} findings, "
            f"{event.attrs.get('crashed', self._crashes)} crashes "
            + (f"({reduced} reduced) " if reduced is not None else "")
            + f"in {elapsed:.1f}s"
        )

    # -- rendering -----------------------------------------------------

    def _seed_finished(self, event: Event, status: str) -> None:
        self._done += 1
        if self._tty:
            self._render()
        else:
            self._print(self._seed_line(event.attrs.get("seed", "?"), status))

    def _seed_line(self, seed, status: str) -> str:
        """One plain-mode per-seed line."""
        return f"[{self._done}/{self._total}] seed {seed}: {status}"

    def _elapsed(self) -> float:
        return self._now() - self._start if self._start is not None else 0.0

    def status_line(self) -> str:
        """The current one-line status (what the TTY shows)."""
        elapsed = self._elapsed()
        rate = self._done / elapsed if elapsed > 0 else 0.0
        remaining = max(0, self._total - self._done)
        eta = f"{remaining / rate:.0f}s" if rate > 0 else "--"
        width = len(str(self._total))
        parts = [
            f"[{self._done:>{width}}/{self._total}]",
            f"{rate:.2f} seeds/s",
            f"{self._findings} findings",
            f"{self._crashes} crashes",
        ]
        if self._budget:
            parts.append(f"{self._budget} over budget")
        if self._reduction_commits:
            parts.append(f"{self._reduction_commits} shrinks")
        if self._jobs_done or self._job_retries:
            blurb = f"{self._jobs_done} jobs"
            if self._job_retries:
                blurb += f" ({self._job_retries} retries)"
            parts.append(blurb)
        if self._cases:
            blurb = f"{self._cases} cases"
            if self._cases_advanced:
                blurb += f" ({self._cases_advanced} advanced)"
            parts.append(blurb)
        store = self._store_blurb()
        if store:
            parts.append(store)
        parts.append(f"ETA {eta}")
        return " · ".join(parts)

    def _store_blurb(self) -> str:
        """Store activity out of the metrics registry ('' when idle)."""
        if self._metrics is None:
            return ""
        snapshot = self._metrics.to_dict()

        def value(name: str) -> int:
            return int(snapshot.get(name, {}).get("value", 0))

        skipped = value("store.seeds_skipped")
        hits = value("store.compile_hits") + value("store.oracle_hits")
        if not skipped and not hits:
            return ""
        bits = []
        if skipped:
            bits.append(f"{skipped} replayed")
        if hits:
            bits.append(f"{hits} hits")
        return "store " + "+".join(bits)

    def _render(self) -> None:
        # \r + erase-to-end keeps a single line updated in place
        self._stream.write("\r\x1b[K" + self.status_line())
        self._stream.flush()
        self._line_open = True

    def _print(self, line: str) -> None:
        self._stream.write(line + "\n")
        self._stream.flush()


class ProgressPrinter(LiveDashboard):
    """The plain per-seed lines behind ``campaign --progress``.

    Emits ``[n/total] seed S: STATUS (R programs/sec, Ts elapsed)`` to
    ``stream`` (stderr by default) for every finished seed, always in
    plain mode — driven by the same event stream at every ``--jobs``
    count, so parallel campaigns report progress in seed order.
    """

    def __init__(self, stream=None) -> None:
        super().__init__(stream, force_tty=False)

    def _seed_line(self, seed, status: str) -> str:
        elapsed = self._elapsed()
        rate = self._done / elapsed if elapsed > 0 else 0.0
        return (
            f"{super()._seed_line(seed, status)} "
            f"({rate:.2f} programs/sec, {elapsed:.1f}s elapsed)"
        )
