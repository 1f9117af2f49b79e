"""Tests for the structured error hierarchy and the CLI error paths.

A failed run must exit with a distinct code and a one-line structured
``error:`` message on stderr — never a traceback.
"""

import pytest

from repro import errors
from repro.cli import (
    EXIT_CLEAN,
    EXIT_DEGRADED,
    EXIT_FATAL,
    EXIT_VIOLATIONS,
    main,
)
from repro.errors import (
    CheckpointError,
    ExecutionError,
    ExecutorBrokenError,
    InjectedFaultError,
    ReproError,
    TaskDegradedError,
    ValidationError,
    WorkerCrashError,
    WorkerTimeoutError,
)


class TestHierarchy:
    def test_every_error_is_a_repro_error(self):
        subclasses = [
            obj for obj in vars(errors).values()
            if isinstance(obj, type) and issubclass(obj, Exception)
        ]
        assert len(subclasses) >= 15
        assert all(issubclass(cls, ReproError) for cls in subclasses)

    def test_runtime_errors_share_a_base(self):
        for cls in (WorkerCrashError, WorkerTimeoutError,
                    ExecutorBrokenError, TaskDegradedError):
            assert issubclass(cls, ExecutionError)

    def test_injected_fault_is_a_worker_crash(self):
        """Injected crashes must walk the production recovery path."""
        assert issubclass(InjectedFaultError, WorkerCrashError)

    def test_checkpoint_error_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise CheckpointError("bad journal")


class TestStructuredContext:
    def test_message_only(self):
        exc = ReproError("plain failure")
        assert str(exc) == "plain failure"
        assert exc.context == {}

    def test_context_rendered_sorted(self):
        exc = ReproError("boom", scenario="ss_cw", attempt=3)
        assert str(exc) == "boom [attempt=3, scenario='ss_cw']"
        assert exc.context == {"scenario": "ss_cw", "attempt": 3}

    def test_with_context_accumulates(self):
        exc = WorkerCrashError("died")
        assert exc.with_context(task="tt_typ") is exc
        exc.with_context(attempt=2)
        assert "attempt=2" in str(exc)
        assert "task='tt_typ'" in str(exc)

    def test_subclass_context_passthrough(self):
        exc = TaskDegradedError("quarantined", task="x", attempts=3)
        assert exc.context["attempts"] == 3

    def test_validation_error_carries_issues(self):
        exc = ValidationError("lint failed", issues=["a", "b"], design="d")
        assert exc.issues == ["a", "b"]
        assert exc.context == {"design": "d"}
        assert ValidationError("no issues").issues == []


class TestCliErrorPaths:
    """Bad inputs must exit EXIT_FATAL with a structured message."""

    def run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_bad_jobs_count(self, capsys):
        # Validated up front by the CLI (exit 1, before any work runs)
        # rather than surfacing the scheduler's TimingError as exit 4.
        code, _, err = self.run(
            capsys, "signoff", "--design", "tiny", "--jobs", "0",
            "--no-validate",
        )
        assert code == 1
        assert "error: --jobs must be a positive integer" in err
        assert "Traceback" not in err

    def test_unknown_process_corner(self, capsys):
        code, _, err = self.run(
            capsys, "sta", "--design", "tiny", "--process", "zz",
        )
        assert code == EXIT_FATAL
        assert "error: LibraryError:" in err
        assert "zz" in err
        assert "Traceback" not in err

    def test_missing_library_file(self, capsys, tmp_path):
        missing = tmp_path / "does-not-exist.lib"
        code, _, err = self.run(
            capsys, "validate", "--design", "tiny",
            "--library-file", str(missing),
        )
        assert code == EXIT_FATAL
        assert "error:" in err
        assert "cannot read library file" in err
        assert "Traceback" not in err

    def test_malformed_library_file(self, capsys, tmp_path):
        bad = tmp_path / "garbage.lib"
        bad.write_text("this is not a liberty file {{{")
        code, _, err = self.run(
            capsys, "validate", "--design", "tiny",
            "--library-file", str(bad),
        )
        assert code == EXIT_FATAL
        assert "error:" in err
        assert "Traceback" not in err

    def test_resume_without_checkpoint(self, capsys):
        code, _, err = self.run(
            capsys, "signoff", "--design", "tiny", "--resume",
            "--no-validate",
        )
        assert code == EXIT_FATAL
        assert "error: ReproError: --resume requires --checkpoint PATH" \
            in err

    def test_bad_retries_count(self, capsys):
        code, _, err = self.run(
            capsys, "signoff", "--design", "tiny", "--retries", "-1",
            "--no-validate",
        )
        assert code == EXIT_FATAL
        assert "error: TimingError: retries must be >= 0" in err

    def test_serve_non_positive_timeout(self, capsys):
        # Refused at startup, not reported to every client as a bad
        # request.
        code, _, err = self.run(
            capsys, "serve", "--design", "tiny", "--timeout", "0",
        )
        assert code == EXIT_FATAL
        assert "error: TimingError: timeout_s must be positive" in err
        assert "Traceback" not in err

    def test_validation_error_lists_issues(self, capsys, tmp_path):
        """A failing pre-run lint prints every issue, not just the first."""
        from repro.liberty import make_library
        from repro.liberty.io import write_library
        from repro.testing.faults import malform_library

        lib = make_library()
        malform_library(lib, seed=1, kind="nan_delay")
        path = tmp_path / "broken.lib"
        path.write_text(write_library(lib))
        code, out, _ = self.run(
            capsys, "validate", "--design", "tiny",
            "--library-file", str(path),
        )
        assert code == EXIT_VIOLATIONS
        assert "non-finite-table" in out

    def test_unknown_design_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sta", "--design", "nonexistent"])
        assert info.value.code == 2  # argparse convention

    def test_clean_run_exits_zero(self, capsys):
        code, out, _ = self.run(
            capsys, "validate", "--design", "tiny", "--period", "500",
        )
        assert code == EXIT_CLEAN
        assert "validation clean" in out


class TestCliDegradedExit:
    def test_signoff_degraded_exit_code(self, capsys, tmp_path):
        """Exit codes must triage clean / violations / degraded / fatal."""
        import repro.cli as cli
        from repro.testing.faults import Fault, FaultInjector, FaultPlan

        # Monkeypatch-free determinism: drive main() with an injected
        # persistent fault via --inject-faults is seed-dependent, so
        # instead exercise the scheduler contract the CLI relies on.
        from repro.liberty import make_library
        from repro.netlist.generators import random_logic
        from repro.runtime.supervisor import RetryPolicy
        from repro.sta import Constraints
        from repro.sta.mcmm import Scenario
        from repro.sta.scheduler import SignoffScheduler

        lib = make_library()
        c = Constraints.single_clock(520.0)
        c.input_delays = {f"in{i}": 60.0 for i in range(8)}
        design = random_logic(n_inputs=8, n_outputs=8, n_gates=40,
                              n_levels=4, seed=2)
        injector = FaultInjector(FaultPlan.of(
            Fault("crash", task="bad", attempts=tuple(range(1, 33))),
        ))
        outcome = SignoffScheduler(
            [Scenario("good", lib, c), Scenario("bad", lib, c)],
            policy=RetryPolicy(retries=1, backoff_s=0.0),
            fault_injector=injector,
        ).signoff(design)
        # the CLI maps a degraded outcome to EXIT_DEGRADED
        assert outcome.degraded and cli.EXIT_DEGRADED == 3
        assert EXIT_DEGRADED not in (EXIT_CLEAN, EXIT_VIOLATIONS,
                                     EXIT_FATAL)
