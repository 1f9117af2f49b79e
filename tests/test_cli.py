"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class TestSta:
    def test_passing_design_exits_zero(self, capsys):
        rc = main(["sta", "--design", "tiny", "--period", "800"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "WNS" in out
        assert "slack histogram" in out

    def test_failing_design_exits_nonzero(self, capsys):
        rc = main(["sta", "--design", "tiny", "--period", "60"])
        assert rc == 1

    def test_paths_printed(self, capsys):
        main(["sta", "--design", "tiny", "--period", "800", "--paths", "2"])
        out = capsys.readouterr().out
        assert out.count("Path (setup)") == 2

    def test_corner_options(self, capsys):
        rc = main([
            "sta", "--design", "tiny", "--period", "800",
            "--process", "ss", "--vdd", "0.72", "--temp", "125",
        ])
        assert rc == 0
        assert "ss" in capsys.readouterr().out

    def test_si_flag(self, capsys):
        assert main(["sta", "--design", "tiny", "--period", "800",
                     "--si"]) == 0


class TestClosure:
    def test_closure_converges(self, capsys):
        rc = main([
            "closure", "--design", "rand", "--gates", "120",
            "--period", "600", "--iterations", "6",
        ])
        out = capsys.readouterr().out
        assert "WNS" in out
        assert rc == 0
        assert "converged" in out

    def test_closure_timing_modes_agree(self, capsys):
        outputs = {}
        for mode in ("incremental", "full"):
            rc = main([
                "closure", "--design", "rand", "--gates", "240",
                "--period", "440", "--iterations", "6",
                "--timing", mode,
            ])
            assert rc == 0
            outputs[mode] = capsys.readouterr().out
        # Same trajectory table either way; the incremental run also
        # surfaces its retime instrumentation.
        inc, full = outputs["incremental"], outputs["full"]
        assert "timing:" in inc
        assert "retime" in inc
        for line in inc.splitlines():
            if line.startswith("final WNS"):
                assert line in full


class TestLibrary:
    def test_library_to_stdout(self, capsys):
        rc = main(["library", "--process", "tt"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "library (" in out
        assert "INV_X1_SVT" in out

    def test_library_to_file(self, tmp_path, capsys):
        target = tmp_path / "out.lib"
        rc = main(["library", "-o", str(target)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        from repro.liberty.io import parse_library

        lib = parse_library(target.read_text())
        assert len(lib) > 0

    def test_aged_library(self, capsys):
        rc = main(["library", "--aging-mv", "40"])
        assert rc == 0


class TestOtherCommands:
    def test_etm(self, capsys):
        rc = main(["etm", "--design", "tiny", "--period", "600"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ETM for block" in out

    def test_corners(self, capsys):
        rc = main(["corners", "--modes", "4", "--domains", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scenarios_per_layer" in out

    def test_history(self, capsys):
        rc = main(["history"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OLD" in out and "care-about" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            main(["sta", "--design", "bogus"])


class TestJobsValidation:
    def test_jobs_zero_rejected_with_exit_1(self, capsys):
        rc = main(["signoff", "--design", "tiny", "--jobs", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "--jobs must be a positive integer (got 0)" in captured.err
        assert captured.out == ""  # rejected before any work ran

    def test_jobs_negative_rejected_with_exit_1(self, capsys):
        rc = main(["signoff", "--design", "tiny", "--jobs", "-3"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "--jobs must be a positive integer (got -3)" in captured.err


class TestEngineSelection:
    def test_unknown_engine_rejected_with_exit_1(self, capsys):
        # Same contract as the --jobs guard: exit 1 with the valid
        # choices listed, not argparse's usage-error 2.
        rc = main(["signoff", "--design", "tiny", "--engine", "warp"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "unknown engine 'warp'" in captured.err
        assert "reference" in captured.err
        assert "vector" in captured.err
        assert captured.out == ""  # rejected before any work ran

    @staticmethod
    def _stable_lines(text):
        # Everything except the wall-time footer is deterministic.
        return [l for l in text.splitlines() if not l.startswith("jobs:")]

    def test_vector_engine_output_matches_reference(self, capsys):
        rc_ref = main(["signoff", "--design", "tiny", "--period", "800",
                       "--no-validate"])
        ref_out = capsys.readouterr().out
        rc_vec = main(["signoff", "--design", "tiny", "--period", "800",
                       "--no-validate", "--engine", "vector"])
        vec_out = capsys.readouterr().out
        assert rc_vec == rc_ref
        assert self._stable_lines(vec_out) == self._stable_lines(ref_out)

    def test_vector_signoff_trace_shows_kernel_spans(self, tmp_path,
                                                     capsys, monkeypatch):
        from repro.obs import tracing
        from repro.sta.kernel import CompiledKernel

        report = CompiledKernel.report
        enclosing = []

        def recording_report(kernel, ci):
            # The mode task records into a worker tracer whose span ids
            # are renumbered on ingestion: keep the tracer to look the
            # enclosing span up once it has closed.
            tracer = tracing.active_tracer()
            enclosing.append((tracer, tracer.current_span_id()))
            return report(kernel, ci)

        monkeypatch.setattr(CompiledKernel, "report", recording_report)
        trace = tmp_path / "signoff.trace.json"
        rc = main([
            "signoff", "--design", "tiny", "--period", "800",
            "--no-validate", "--engine", "vector", "--trace", str(trace),
        ])
        assert rc in (0, 1)
        payload = json.loads(trace.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"signoff", "vector_signoff", "kernel_compile",
                "kernel_batch", "scenario"} <= names
        # Each vector scenario span covers its report, not a placeholder.
        vector = {e["args"]["span_id"]: e for e in payload["traceEvents"]
                  if e["name"] == "scenario"
                  and e["args"].get("source") == "vector"}
        assert vector
        assert all(e["dur"] > 0 for e in vector.values())
        spans = [next(s for s in tracer.spans() if s.span_id == span_id)
                 for tracer, span_id in enclosing]
        assert sorted((s.name, s.attrs["scenario"]) for s in spans) == \
            sorted(("scenario", e["args"]["scenario"])
                   for e in vector.values())


class TestObservability:
    def test_closure_trace_and_metrics_files(self, tmp_path, capsys):
        import json

        trace = tmp_path / "closure.trace.json"
        metrics = tmp_path / "closure.metrics.json"
        rc = main([
            "closure", "--design", "rand", "--gates", "240",
            "--period", "440", "--iterations", "6",
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "wrote" in captured.err
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"closure", "iteration", "stage", "retime"} <= names
        snapshot = json.loads(metrics.read_text())
        assert snapshot["closure.iterations"]["type"] == "counter"

    def test_signoff_trace_collects_worker_spans(self, tmp_path, capsys):
        import json

        trace = tmp_path / "signoff.trace.json"
        rc = main([
            "signoff", "--design", "tiny", "--period", "800",
            "--jobs", "2", "--no-validate", "--trace", str(trace),
        ])
        assert rc in (0, 1)
        payload = json.loads(trace.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"signoff", "cache_triage", "scenario_fanout",
                "scenario", "sta_run"} <= names

    def test_trace_summarize(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        rc = main([
            "closure", "--design", "rand", "--gates", "240",
            "--period", "440", "--iterations", "6",
            "--trace", str(trace),
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main(["trace", "summarize", str(trace)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "phase" in out and "self (s)" in out
        assert "closure" in out and "retime" in out
        assert "span(s)" in out

    def test_trace_summarize_missing_file_exits_one(
            self, tmp_path, capsys):
        """A missing trace file is an operator mistake, not an internal
        failure: exit 1 with a one-line message, not the fatal path."""
        rc = main(["trace", "summarize", str(tmp_path / "absent.json")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert "cannot read trace file" in captured.err
        assert "absent.json" in captured.err
        assert "Traceback" not in captured.err

    def test_trace_summarize_empty_file_exits_one(self, tmp_path, capsys):
        empty = tmp_path / "empty.trace.json"
        empty.write_text("")
        rc = main(["trace", "summarize", str(empty)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert "empty" in captured.err

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_trace_summarize_into_closed_pipe_exits_four(
            self, tmp_path, unbuffered):
        """A reader that leaves early (`| head -1`) ends the run with
        exit 4 and no traceback, whether print or the final flush is
        the write that finds the pipe closed."""
        trace = tmp_path / "run.trace.json"
        trace.write_text(json.dumps({"traceEvents": [
            {"name": "signoff", "ph": "X", "ts": 0.0, "dur": 900.0,
             "args": {"span_id": 1}},
            {"name": "scenario", "ph": "X", "ts": 10.0, "dur": 400.0,
             "args": {"span_id": 2, "parent_id": 1}},
        ]}))
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "trace", "summarize",
             str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # gone before the first byte is written
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 4
        assert b"Traceback" not in err
        assert b"Exception ignored" not in err

    def test_untraced_run_writes_nothing(self, tmp_path, capsys):
        rc = main([
            "closure", "--design", "rand", "--gates", "120",
            "--period", "600", "--iterations", "4",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "wrote" not in captured.err
        assert list(tmp_path.iterdir()) == []


class TestHierSignoff:
    def test_hier_signoff_exits_clean(self, capsys):
        rc = main([
            "signoff", "--hier", "--blocks", "2", "--period", "1100",
            "--jobs", "2", "--executor", "thread", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "block-internal WNS" in out
        assert "ETM extractions" in out
        assert "hier merged WNS" in out

    def test_hier_signoff_reports_violations(self, capsys):
        rc = main([
            "signoff", "--hier", "--blocks", "2", "--period", "210",
            "--jobs", "1", "--executor", "serial", "--seed", "3",
        ])
        assert rc == 1


class TestSstaSignoff:
    def test_ssta_bench_tunes_to_target(self, capsys):
        """The PST benchmark through the CLI: distributional report, MC
        cross-check, tuning reaches the default yield target (exit 0)."""
        rc = main([
            "signoff", "--ssta", "--ssta-bench", "--seed", "9",
            "--ssta-samples", "2000", "--ssta-mc", "500",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "yield" in out and "sigma" in out
        assert "mc yield (500 samples)" in out
        assert "pst tuning" in out and "target met" in out

    def test_ssta_unreachable_target_exits_one(self, capsys):
        rc = main([
            "signoff", "--ssta", "--ssta-bench", "--seed", "9",
            "--ssta-samples", "1000", "--yield-target", "1.0",
            "--tune-range", "1.0",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "target missed" in out

    @pytest.mark.parametrize("rho", ["1.5", "-0.2"])
    def test_rho_outside_unit_interval_exits_four(self, rho, capsys):
        rc = main([
            "signoff", "--ssta", "--ssta-rho", rho, "--ssta-samples", "64",
            "--gates", "40",
        ])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err.startswith("error: TimingError:")
        assert "rho" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err


class TestCampaign:
    @staticmethod
    def tiny_spec_file(tmp_path):
        from repro.campaign import CampaignSpec, Factor

        spec = CampaignSpec(
            name="clitest",
            factors=[Factor("recipe", ("none", "lvt_crit"))],
            seed=3,
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        return path

    def test_run_then_pareto_roundtrip(self, tmp_path, capsys):
        db = tmp_path / "c.db"
        spec_file = self.tiny_spec_file(tmp_path)
        rc = main([
            "campaign", "run", "--db", str(db),
            "--spec-file", str(spec_file),
            "--jobs", "1", "--executor", "serial",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 computed, 0 resumed" in out

        pareto_out = tmp_path / "front.txt"
        rc = main([
            "campaign", "pareto", "--db", str(db),
            "--factors", "recipe", "--out", str(pareto_out),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pareto front: campaign clitest" in out
        assert pareto_out.read_text(encoding="utf-8").strip() \
            == out.strip()

        # Re-running resumes everything from the DB.
        rc = main([
            "campaign", "run", "--db", str(db),
            "--spec-file", str(spec_file),
            "--jobs", "1", "--executor", "serial",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 computed, 2 resumed" in out

    def test_missing_spec_file_is_structured_fatal(self, tmp_path,
                                                   capsys):
        rc = main([
            "campaign", "run", "--db", str(tmp_path / "c.db"),
            "--spec-file", str(tmp_path / "absent.json"),
        ])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err.startswith("error: CampaignError")
        assert "absent.json" in captured.err
        assert "Traceback" not in captured.err

    def test_pareto_on_empty_db_exits_one(self, tmp_path, capsys):
        rc = main([
            "campaign", "pareto", "--db", str(tmp_path / "empty.db"),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")

    def test_bad_axes_is_structured_fatal(self, tmp_path, capsys):
        db = tmp_path / "c.db"
        spec_file = self.tiny_spec_file(tmp_path)
        main([
            "campaign", "run", "--db", str(db),
            "--spec-file", str(spec_file),
            "--jobs", "1", "--executor", "serial",
        ])
        capsys.readouterr()
        rc = main([
            "campaign", "pareto", "--db", str(db),
            "--axes", "power_mw:upways",
        ])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err.startswith("error: CampaignError")
        assert "Traceback" not in captured.err
