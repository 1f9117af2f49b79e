"""Newline-delimited JSON wire protocol for the timing daemon.

One request per line, one response per line, UTF-8 JSON, ``\\n``
terminated. The framing is deliberately the dumbest thing that works —
every language can speak it, a half-written line is detectable (no
newline), and a killed peer can never leave the stream in an ambiguous
state: the reader either gets a complete line or EOF.

Request shape::

    {"v": 1, "id": "req-7", "op": "timing",
     "session": "s-1", "params": {"scenarios": ["tt_typ"]}}

Response shape::

    {"v": 1, "id": "req-7", "ok": true, "result": {...}}
    {"v": 1, "id": "req-7", "ok": false,
     "error": {"code": "E_OVERLOADED", "message": "...",
               "retryable": true, "context": {...}}}

Robustness rules enforced here rather than trusted to callers:

- **Bounded frames** — a line longer than ``MAX_LINE_BYTES`` raises
  :class:`~repro.errors.ProtocolError` before any JSON parse; an abusive
  or broken client cannot balloon daemon memory.
- **Structured errors** — every failure maps to a stable ``E_*`` code
  plus a ``retryable`` flag (see :mod:`repro.errors`), so clients triage
  programmatically: shed/deadline/unavailable are resubmittable,
  bad-request/quarantined are not.
- **Ids echo back verbatim** — responses always carry the request's
  ``id`` (or null when the request was unparseable), so pipelined
  clients can match responses under concurrency.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.errors import ProtocolError, ServeError

PROTOCOL_VERSION = 1

#: Upper bound on one request/response frame. Generous enough for a
#: thousand-edit ECO batch, small enough that a garbage stream cannot
#: exhaust daemon memory.
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Ops a daemon understands. Control ops bypass admission control (they
#: are O(1) and must work *especially* under overload — health checks
#: and shedding feedback are how clients notice backpressure).
CONTROL_OPS = ("ping", "stats", "open_session", "close_session",
               "discard", "shutdown")
QUERY_OPS = ("timing", "signoff", "paths", "histogram", "apply_eco",
             "ssta")
ALL_OPS = CONTROL_OPS + QUERY_OPS


def number(value: Any, name: str, lo, hi, integer: bool = False):
    """The rule every numeric value in a request passes: a JSON number
    (an integer when ``integer``; booleans are not numbers) inside
    ``[lo, hi]``, which NaN and the infinities never are. Anything else
    is the client's fault: ProtocolError, never a crash the supervisor
    would retry. Returns the value (as a float unless ``integer``)."""
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds) \
            or not lo <= value <= hi:
        kind = "an integer" if integer else "a number"
        raise ProtocolError(
            f"{name} must be {kind} in [{lo}, {hi}], got {value!r}",
            param=name,
        )
    return value if integer else float(value)


def encode(message: Dict[str, Any]) -> bytes:
    """One wire frame: compact JSON + newline, bounded."""
    data = json.dumps(message, separators=(",", ":"),
                      sort_keys=True).encode("utf-8") + b"\n"
    if len(data) > MAX_LINE_BYTES:
        raise ProtocolError(
            "frame exceeds protocol limit",
            size=len(data), limit=MAX_LINE_BYTES,
        )
    return data


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one received frame; structured errors, never tracebacks."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            "frame exceeds protocol limit",
            size=len(line), limit=MAX_LINE_BYTES,
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"unparseable frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(message).__name__}"
        )
    return message


def parse_request(message: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a decoded request; returns it with defaults filled in."""
    version = message.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r}",
            supported=PROTOCOL_VERSION,
        )
    op = message.get("op")
    if not isinstance(op, str) or op not in ALL_OPS:
        raise ProtocolError(
            f"unknown op {op!r}", ops=",".join(ALL_OPS)
        )
    params = message.get("params") or {}
    if not isinstance(params, dict):
        raise ProtocolError("params must be a JSON object")
    session = message.get("session")
    if session is not None and not isinstance(session, str):
        raise ProtocolError("session must be a string id")
    return {
        "v": PROTOCOL_VERSION,
        "id": message.get("id"),
        "op": op,
        "session": session,
        "params": params,
    }


def ok_response(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": True,
        "result": result,
    }


def error_response(request_id: Any, error: ServeError) -> Dict[str, Any]:
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": error.to_wire(),
    }


def error_from_wire(payload: Optional[Dict[str, Any]]) -> ServeError:
    """Rehydrate a wire error into the matching ServeError subclass."""
    from repro.errors import (
        AdmissionShedError,
        DaemonUnavailableError,
        DeadlineExceededError,
        SessionNotFoundError,
        SessionQuarantinedError,
    )

    payload = payload or {}
    code = payload.get("code", "E_INTERNAL")
    classes = {
        cls.code: cls
        for cls in (ProtocolError, AdmissionShedError, DeadlineExceededError,
                    SessionQuarantinedError, SessionNotFoundError,
                    DaemonUnavailableError)
    }
    cls = classes.get(code, ServeError)
    error = cls(payload.get("message", "daemon error"))
    error.context.update(payload.get("context") or {})
    # Trust the daemon's retryable verdict over the class default (a
    # generic ServeError can still be marked retryable on the wire).
    retryable = payload.get("retryable")
    if retryable is not None:
        error.retryable = bool(retryable)
    return error
