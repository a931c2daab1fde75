"""Benchmark harness: scenarios run, the JSON schema holds, check passes.

Uses ``quick=True`` scenario scales throughout so the whole module stays
inside normal test-suite budgets; the full-scale numbers live in
``repro bench`` runs and CI's bench-smoke job.
"""

import json

import pytest

from repro.bench import harness
from repro.bench.harness import (BenchReport, bench_scenario,
                                 fingerprint_digest, run_bench, write_report)
from repro.bench.scenarios import SCENARIOS, run_scenario
from repro.cli import main as cli_main


class TestScenarios:
    def test_registry_has_the_macro_scenarios(self):
        assert set(SCENARIOS) == {"shuffle_wave", "shuffle_wave_10x",
                                  "idle_giant", "ssd_spill",
                                  "fig08_job", "node_crash",
                                  "stream_sustained", "timer_churn",
                                  "spill_pressure"}

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_quick_scenario_runs(self, name):
        result = run_scenario(name, quick=True)
        assert result.events > 0
        assert result.sim_time > 0
        assert result.fingerprint  # non-empty outcome to check against

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError):
            run_scenario("nope", quick=True)

    def test_fingerprint_is_deterministic(self):
        a = run_scenario("timer_churn", quick=True)
        b = run_scenario("timer_churn", quick=True)
        assert a.fingerprint == b.fingerprint
        assert a.events == b.events


class TestCheck:
    @pytest.mark.parametrize("name", ["timer_churn", "ssd_spill"])
    def test_optimized_matches_reference(self, name):
        """The goldens were captured where the optimized and reference
        engines agreed, so matching them matches the reference."""
        report = bench_scenario(name, quick=True, check=True)
        assert report.check_ran
        assert report.check_passed is True

    def test_no_baseline_means_no_reference(self):
        report = bench_scenario("timer_churn", quick=True)
        assert not report.check_ran
        assert report.check_passed is None
        doc = report.to_json()
        assert "reference" not in doc
        assert "speedup_events_per_s" not in doc

    @pytest.mark.parametrize("scale", ["quick", "full"])
    def test_goldens_cover_every_scenario(self, scale):
        with open(harness.GOLDENS_PATH) as fh:
            goldens = json.load(fh)[scale]
        assert set(goldens) == set(SCENARIOS)
        assert all(len(d) == 64 for d in goldens.values())

    def test_altered_golden_fails_check(self, tmp_path, monkeypatch,
                                        capsys):
        with open(harness.GOLDENS_PATH) as fh:
            goldens = json.load(fh)
        digest = goldens["quick"]["timer_churn"]
        goldens["quick"]["timer_churn"] = \
            ("0" if digest[0] != "0" else "1") + digest[1:]
        path = tmp_path / "goldens.json"
        path.write_text(json.dumps(goldens))
        monkeypatch.setattr(harness, "GOLDENS_PATH", str(path))
        argv = ["bench", "--quick", "--check", "--no-telemetry",
                "--out-dir", str(tmp_path)]
        assert cli_main(argv + ["--scenario", "ssd_spill"]) == 0
        assert cli_main(argv + ["--scenario", "timer_churn"]) == 1
        out = capsys.readouterr().out
        assert "check FAILED" in out
        assert "CHECK FAILED" in out and "timer_churn" in out

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_telemetry_run_matches_bare_fingerprint(self, name):
        report = bench_scenario(name, quick=True)
        assert report.telemetry is not None
        assert report.telemetry_matches is True
        assert report.telemetry_overhead_pct is not None

    def test_no_telemetry_skips_third_run(self):
        report = bench_scenario("timer_churn", quick=True, telemetry=False)
        assert report.telemetry is None
        assert report.telemetry_matches is None
        assert report.to_json()["telemetry"] is None
        assert report.spans is None
        assert report.to_json()["spans"] is None

    def test_capture_dir_exports_trace_and_runlog(self, tmp_path):
        from repro.obs.validate import (validate_chrome_trace,
                                        validate_runlog)
        bench_scenario("fig08_job", quick=True,
                       capture_dir=str(tmp_path))
        trace = tmp_path / "TRACE_fig08_job.json"
        runlog = tmp_path / "LOG_fig08_job.jsonl"
        assert trace.exists() and runlog.exists()
        assert validate_chrome_trace(json.loads(trace.read_text())) == []
        assert validate_runlog(
            runlog.read_text().splitlines()) == []


class TestReportSchema:
    def test_json_fields(self, tmp_path):
        report = bench_scenario("timer_churn", quick=True, check=True)
        path = write_report(report, str(tmp_path))
        assert path.endswith("BENCH_timer_churn.json")
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["schema"] == 5
        assert doc["name"] == "timer_churn"
        assert doc["quick"] is True
        run = doc["optimized"]
        assert run["events"] > 0
        assert run["wall_s"] >= 0
        assert run["events_per_s"] >= 0
        assert run["kernel_mode"] in ("c", "numpy")
        assert run["fingerprint_sha256"] == \
            harness.load_goldens(quick=True)["timer_churn"]
        assert doc["check"] == {"ran": True, "passed": True}
        assert "reference" not in doc
        tele = doc["telemetry"]
        assert tele["fingerprint_matches"] is True
        assert tele["wall_s"] >= 0
        assert isinstance(tele["overhead_pct"], float)
        spans = doc["spans"]
        assert spans["fingerprint_matches"] is True
        assert spans["wall_s"] >= 0
        assert spans["n_spans"] > 0
        assert isinstance(spans["overhead_pct"], float)

    def test_fingerprint_digest_stable(self):
        fp = [("a", 1.0), ("b", 2.0)]
        assert fingerprint_digest(fp) == fingerprint_digest(list(fp))
        assert fingerprint_digest(fp) != fingerprint_digest(fp[:1])


class TestRunBench:
    def test_writes_one_report_per_scenario(self, tmp_path, capsys):
        reports = run_bench(scenarios=["timer_churn"], quick=True,
                            out_dir=str(tmp_path))
        assert [r.name for r in reports] == ["timer_churn"]
        assert isinstance(reports[0], BenchReport)
        assert (tmp_path / "BENCH_timer_churn.json").exists()
        out = capsys.readouterr().out
        assert "timer_churn" in out and "events/s" in out
