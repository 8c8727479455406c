import json

from repro.cli import main as cli_main
from repro.observability import RunLedger, read_events_jsonl

SOURCE = """
int main() {
  int x = 0;
  if (x) { x = 1; }
  return x;
}
"""


def test_cli_profile_prints_per_pass_table(tmp_path, capsys):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    assert cli_main(["profile", str(path), "--instrument",
                     "--family", "gcclike", "--level", "O2"]) == 0
    out = capsys.readouterr().out
    assert "per-pass profile — gcclike-O2" in out
    header = next(line for line in out.splitlines() if "Δinstrs" in line)
    assert "pass" in header and "ms" in header and "killed markers" in header
    assert "sccp" in out and "adce" in out
    assert "DCEMarker0" in out  # the dead `if (g)` marker, attributed
    assert "total pipeline:" in out


def test_cli_profile_on_generated_program(tmp_path, capsys):
    assert cli_main(["generate", "--seed", "5", "--instrument"]) == 0
    source = capsys.readouterr().out
    path = tmp_path / "gen.c"
    path.write_text(source)
    assert cli_main(["profile", str(path)]) == 0
    out = capsys.readouterr().out
    assert "per-pass profile" in out
    assert "DCEMarker" in out  # some marker got attributed to a pass
    assert "markers" in out


def test_cli_analyze_trace_prints_span_tree(tmp_path, capsys):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    assert cli_main(["analyze", "--trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "markers:" in out  # the normal report is still there
    assert "trace:" in out
    assert "ground_truth" in out
    assert "interp.run" in out
    assert "pipeline.pass" in out
    # one compile span per distinct pipeline config: 2 families x 5
    # levels, minus the O0 config the families share (served from the
    # cross-spec compile cache)
    assert out.count("compile ") == 9
    assert out.count("compile.cached") == 1


def test_cli_campaign_metrics_out(tmp_path, capsys):
    metrics_path = tmp_path / "metrics.json"
    assert cli_main([
        "campaign", "--programs", "1", "--seed-base", "901",
        "--metrics-out", str(metrics_path), "--progress",
    ]) == 0
    captured = capsys.readouterr()
    assert "Tables 1 & 2 shape" in captured.out
    assert "programs/sec" in captured.err  # --progress reporting

    snapshot = json.loads(metrics_path.read_text())
    latency_hists = {
        name: value
        for name, value in snapshot.items()
        if name.startswith("compile_latency_ms/")
    }
    # one histogram per (family, level) spec, each with one observation
    assert len(latency_hists) == 10
    for value in latency_hists.values():
        assert value["type"] == "histogram"
        assert value["count"] == 1
        assert value["p50"] > 0
    assert snapshot["campaign.programs_analyzed"]["value"] == 1
    assert snapshot["campaign.program_latency_ms"]["count"] == 1
    # the two families share one O0 config, so 9 real compiles + 1 hit
    assert snapshot["campaign.compilations"]["value"] == 9
    assert snapshot["campaign.compile_cache_hits"]["value"] == 1
    assert "campaign.missed/gcclike-O2" in snapshot
    assert "campaign.primary_missed/llvmlike-O3" in snapshot


def test_cli_campaign_telemetry_pipeline(tmp_path, capsys):
    """campaign --events-out/--ledger/--dashboard, then the ledger
    subcommands, end to end on one tiny seed."""
    events_path = tmp_path / "events.jsonl"
    ledger_path = tmp_path / "ledger.sqlite"
    args = [
        "campaign", "--programs", "1", "--seed-base", "901",
        "--events-out", str(events_path), "--ledger", str(ledger_path),
        "--dashboard",
    ]
    assert cli_main(args) == 0
    captured = capsys.readouterr()
    # stdout stays machine-clean: every telemetry line is on stderr
    assert "Tables 1 & 2 shape" in captured.out
    for line in ("campaign done:", "ledger: recorded run", "seed 901"):
        assert line not in captured.out
        assert line in captured.err

    events = read_events_jsonl(str(events_path))
    types = [e.type for e in events]
    assert types[0] == "campaign_start"
    assert types.count("campaign_end") == 1
    assert [e.seq for e in events] == list(range(len(events)))
    done = next(e for e in events if e.type == "seed_done")
    assert done.attrs["seed"] == 901 and done.attrs["status"] == "ok"

    # second run, same config: the findings rows dedupe across runs
    assert cli_main(args) == 0
    capsys.readouterr()
    with RunLedger(str(ledger_path)) as ledger:
        rows = ledger.runs()
        assert len(rows) == 2
        assert rows[0].config_fingerprint == rows[1].config_fingerprint
        assert rows[0].wall_time > 0
        assert all(f.occurrences == 2 for f in ledger.findings())

    assert cli_main(["runs", str(ledger_path)]) == 0
    out = capsys.readouterr().out
    assert "config" in out and str(rows[0].run_id) in out

    assert cli_main(["show-run", str(ledger_path), "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["programs"] == 1 and payload["seed_base"] == 901

    assert cli_main(["report", str(ledger_path), "1"]) == 0
    out = capsys.readouterr().out
    assert "== Outcome ==" in out and "== Marker yield by O-level ==" in out

    html_path = tmp_path / "report.html"
    assert cli_main([
        "report", str(ledger_path), "1", "--html", str(html_path),
    ]) == 0
    capsys.readouterr()
    document = html_path.read_text()
    assert document.startswith("<!DOCTYPE html>")
    assert "https://" not in document

    assert cli_main([
        "compare", str(ledger_path), "1", "2", "--fail-on-regression",
    ]) == 0  # identical configs: no regressions
    assert "no regressions" in capsys.readouterr().out


def test_cli_ledger_subcommands_reject_missing_files(tmp_path, capsys):
    missing = str(tmp_path / "nope.sqlite")
    assert cli_main(["runs", missing]) == 1
    assert cli_main(["show-run", missing, "1"]) == 1
    assert cli_main(["report", missing, "1"]) == 1
    assert cli_main(["compare", missing, "1", "2"]) == 1
    err = capsys.readouterr().err
    assert "no such ledger" in err
