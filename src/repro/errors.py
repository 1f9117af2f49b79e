"""Exception hierarchy for the repro timing-closure framework.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Subclasses indicate which subsystem raised the error.

Errors are *structured*: every :class:`ReproError` accepts keyword
context (``scenario=...``, ``attempt=...``, ``fingerprint=...``) that is
preserved on the exception object and rendered into its message. The
fault-tolerant runtime (:mod:`repro.runtime`) relies on this to report a
quarantined scenario with enough forensic detail to reproduce the
failure without the original traceback.
"""

from __future__ import annotations

from typing import Any, Dict


class ReproError(Exception):
    """Base class for all errors raised by the repro package.

    Args:
        message: human-readable description.
        **context: structured key/value forensic context (scenario name,
            content fingerprint, attempt number, ...). Rendered into
            ``str(error)`` and preserved in :attr:`context`.
    """

    def __init__(self, message: str = "", **context: Any):
        self.message = message
        self.context: Dict[str, Any] = dict(context)
        super().__init__(message)

    def __str__(self) -> str:
        if not self.context:
            return self.message
        detail = ", ".join(
            f"{key}={self.context[key]!r}" for key in sorted(self.context)
        )
        return f"{self.message} [{detail}]"

    def with_context(self, **context: Any) -> "ReproError":
        """Attach additional forensic context in place; returns self."""
        self.context.update(context)
        return self


class SimulationError(ReproError):
    """Raised when the analytical circuit simulator cannot run or converge."""


class NetlistError(ReproError):
    """Raised on malformed netlist construction or lookup failures."""


class LibraryError(ReproError):
    """Raised on library/table construction or lookup failures."""


class TimingError(ReproError):
    """Raised by the STA engine (graph construction, propagation, reporting)."""


class ConstraintError(ReproError):
    """Raised on invalid or inconsistent timing constraints."""


class CornerError(ReproError):
    """Raised by BEOL/PVT corner definition and algebra."""


class PlacementError(ReproError):
    """Raised by the placement substrate (rows, legalization, MinIA)."""


class ClosureError(ReproError):
    """Raised by the timing-closure loop and fix engines."""


class SignoffError(ReproError):
    """Raised by the signoff-criteria engine."""


class CampaignError(ReproError):
    """Raised by the campaign engine: malformed specs, unrunnable
    configurations, or a results store that cannot be opened."""


# ---------------------------------------------------------------------- #
# validation


class ValidationError(ReproError):
    """Raised by the pre-run lint pass (:mod:`repro.validate`).

    Carries the full list of :class:`repro.validate.ValidationIssue`
    objects on :attr:`issues` so callers can render or triage them.
    """

    def __init__(self, message: str = "", issues=None, **context: Any):
        super().__init__(message, **context)
        self.issues = list(issues or [])


# ---------------------------------------------------------------------- #
# supervised execution runtime


class ExecutionError(ReproError):
    """Base class for supervised-runtime failures (:mod:`repro.runtime`)."""


class WorkerCrashError(ExecutionError):
    """A worker raised (or died) while evaluating one task attempt."""


class WorkerTimeoutError(ExecutionError):
    """A task attempt exceeded its per-attempt wall-clock budget."""


class ExecutorBrokenError(ExecutionError):
    """The worker pool itself died (e.g. a process pool lost a child).

    The supervisor treats this as an infrastructure failure rather than a
    task failure: it falls back to the next executor flavor
    (process -> thread -> serial) without charging any task an attempt.
    """


class TaskDegradedError(ExecutionError):
    """A task exhausted every retry attempt and was quarantined.

    Context carries ``task``, ``attempts`` and the final underlying
    error; raised to the caller only when supervision runs with
    ``keep_going=False``.
    """


class InjectedFaultError(WorkerCrashError):
    """A deterministic fault from :mod:`repro.testing.faults` fired.

    Subclassing :class:`WorkerCrashError` means the supervisor handles an
    injected crash exactly like a real one — the chaos suite exercises
    the production recovery paths, not special-cased test paths.
    """


class CheckpointError(ReproError):
    """Raised by the journal-based checkpoint/resume layer."""


# ---------------------------------------------------------------------- #
# signoff-as-a-service (:mod:`repro.serve`)


class ServeError(ReproError):
    """Base class for timing-daemon failures (:mod:`repro.serve`).

    Every serve error carries a stable wire ``code`` (``E_*``) and a
    ``retryable`` flag so clients can triage without string matching:
    retryable errors (shed under load, missed deadline, daemon gone)
    are safe to resubmit; non-retryable ones (bad request, quarantined
    session) will fail the same way again.
    """

    code = "E_INTERNAL"
    retryable = False

    def to_wire(self) -> Dict[str, Any]:
        """The structured error object sent on the wire."""
        return {
            "code": self.code,
            "message": self.message,
            "retryable": self.retryable,
            "context": {k: repr(v) for k, v in sorted(self.context.items())},
        }


class ProtocolError(ServeError):
    """A request line violated the NDJSON protocol (unparseable JSON,
    missing fields, oversized frame)."""

    code = "E_BAD_REQUEST"
    retryable = False


class AdmissionShedError(ServeError):
    """The bounded admission queue (or the session table) was full and
    the request was shed.

    This is load-shedding backpressure, not failure: the request was
    never admitted, so resubmitting after a backoff is always safe.
    """

    code = "E_OVERLOADED"
    retryable = True


class DeadlineExceededError(ServeError):
    """A request exhausted its per-request deadline (including retries)."""

    code = "E_DEADLINE"
    retryable = True


class SessionQuarantinedError(ServeError):
    """The target session was quarantined after a worker crash.

    Not retryable on the *same* session — its overlay state is suspect —
    but the daemon stays up and a fresh session works.
    """

    code = "E_QUARANTINED"
    retryable = False


class SessionNotFoundError(ServeError):
    """The request named a session the daemon does not know."""

    code = "E_NO_SESSION"
    retryable = False


class DaemonUnavailableError(ServeError):
    """Client-side transport failure: connection refused, reset, EOF or
    socket timeout. The daemon may have been killed mid-request; the
    request is safe to resubmit once it is back."""

    code = "E_UNAVAILABLE"
    retryable = True
