"""Live dashboard rendering: TTY single-line mode and the plain
fallback."""

import io
import itertools

from repro.observability import EventBus, LiveDashboard, ProgressPrinter


def clock(step=0.5):
    counter = itertools.count()
    return lambda: next(counter) * step


def drive(bus):
    bus.emit("campaign_start", programs=4, seed_base=10)
    bus.emit("seed_start", seed=10)
    bus.emit("seed_done", seed=10, status="ok", markers=20, dead=15)
    bus.emit("finding", seed=10, kind="cross-compiler")
    bus.emit("seed_start", seed=11)
    bus.emit("crash", seed=11, phase="compile", exc_type="ValueError",
             bucket="ValueError@passes/gvn.py:10")
    bus.emit("seed_start", seed=12)
    bus.emit("budget_exceeded", seed=12)
    bus.emit("seed_start", seed=13)
    bus.emit("seed_done", seed=13, status="ok")
    bus.emit("campaign_end", completed=2, findings=1, crashed=1)


def test_tty_mode_renders_single_updating_line():
    bus = EventBus()
    stream = io.StringIO()
    dashboard = LiveDashboard(stream, force_tty=True, now=clock())
    dashboard.attach(bus)
    drive(bus)
    output = stream.getvalue()
    # in-place updates: carriage return + erase, one real newline at end
    assert "\r\x1b[K" in output
    assert output.count("\n") == 2  # line close + final summary
    final = output.rsplit("\r\x1b[K", 1)[-1]
    assert final.startswith("[4/4]")
    assert "findings" in final and "crashes" in final
    assert "over budget" in final
    assert "ETA" in final
    assert "campaign done: 2 seeds, 1 findings, 1 crashes" in output


def test_status_line_reports_rate_and_eta():
    dashboard = LiveDashboard(io.StringIO(), force_tty=True, now=clock(1.0))
    bus = EventBus()
    dashboard.attach(bus)
    bus.emit("campaign_start", programs=10, seed_base=0)  # t=0
    bus.emit("seed_done", seed=0, status="ok", markers=1, dead=1)  # t=1
    bus.emit("seed_done", seed=1, status="ok", markers=1, dead=1)  # t=2
    line = dashboard.status_line()  # t=3: 2 done in 3s
    assert line.startswith("[ 2/10]")
    assert "0.67 seeds/s" in line
    assert "ETA 12s" in line


def test_non_tty_falls_back_to_plain_lines():
    bus = EventBus()
    stream = io.StringIO()
    LiveDashboard(stream, force_tty=False).attach(bus)
    drive(bus)
    lines = stream.getvalue().splitlines()
    assert lines[0] == "campaign: 4 programs from seed 10"
    assert "[1/4] seed 10: ok (20 markers, 15 dead)" in lines
    assert "[2/4] seed 11: crash [ValueError@passes/gvn.py:10]" in lines
    assert "[3/4] seed 12: over budget" in lines
    assert "[4/4] seed 13: ok" in lines
    assert "\r" not in stream.getvalue()


def test_non_tty_detection_defaults_off_for_stringio():
    stream = io.StringIO()
    dashboard = LiveDashboard(stream)
    bus = EventBus()
    dashboard.attach(bus)
    bus.emit("campaign_start", programs=1, seed_base=0)
    assert "\r" not in stream.getvalue()


def test_progress_printer_mirrors_classic_lines():
    bus = EventBus()
    stream = io.StringIO()
    printer = ProgressPrinter(stream).attach(bus)
    bus.emit("campaign_start", programs=2, seed_base=0)
    bus.emit("seed_done", seed=0, status="ok", markers=5, dead=4)
    printer.detach(bus)
    bus.emit("seed_done", seed=1, status="ok", markers=5, dead=4)
    output = stream.getvalue()
    assert "[1/2] seed 0: ok (5 markers, 4 dead)" in output
    assert "seed 1" not in output  # detached


def test_status_line_surfaces_store_metrics():
    from repro.observability import MetricsRegistry

    metrics = MetricsRegistry()
    bus = EventBus()
    dashboard = LiveDashboard(
        io.StringIO(), force_tty=True, now=clock(), metrics=metrics
    )
    dashboard.attach(bus)
    bus.emit("campaign_start", programs=4, seed_base=0)
    # store activity is visible only through counters — warm replays
    # keep the event stream identical to a cold run by design
    assert "store" not in dashboard.status_line()
    metrics.counter("store.seeds_skipped").inc(3)
    metrics.counter("store.compile_hits").inc(5)
    metrics.counter("store.oracle_hits").inc(2)
    line = dashboard.status_line()
    assert "store 3 replayed+7 hits" in line


def test_status_line_without_metrics_has_no_store_blurb():
    dashboard = LiveDashboard(io.StringIO(), force_tty=True, now=clock())
    bus = EventBus()
    dashboard.attach(bus)
    bus.emit("campaign_start", programs=2, seed_base=0)
    assert "store" not in dashboard.status_line()
