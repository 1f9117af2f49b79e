"""The timing daemon: signoff-as-a-service over a JSON-lines socket.

Interactive timing today means paying design load, library load, graph
build and a cold-cache full analysis *per question*. The daemon pays
them once: it binds a design and a scenario set at startup and then
serves streams of timing queries — ECO what-ifs, path reports, slack
histograms, full re-signoff — over the newline-delimited JSON protocol
of :mod:`repro.serve.protocol`.

Robustness properties, in the order a failing component meets them:

- **Bounded admission** — query ops pass through a fixed-depth
  :class:`~repro.serve.admission.AdmissionQueue`; when it is full the
  request is *shed* immediately with a retryable ``E_OVERLOADED``
  response. Control ops (ping/stats/session lifecycle) bypass admission
  — health checks must work especially well under overload. A control
  op that fails answers with an error response (``E_BAD_REQUEST`` for a
  malformed session id, ``E_INTERNAL`` counted in
  ``serve.internal_errors`` for anything else) and keeps the
  connection. Daemon memory is bounded by construction: frames are
  size-capped, the queue is depth-capped, reader threads hold at most
  one frame each, and the result cache holds live content only — a
  session's entries are freed when it commits an ECO, discards or
  closes.
- **Deadlines and retries** — each admitted request runs as one task
  on a serial :class:`~repro.runtime.supervisor.SupervisedExecutor`
  under the daemon's :class:`~repro.runtime.supervisor.RetryPolicy`,
  the same retry loop as signoff fan-out; a per-request ``deadline_s``
  tightens the attempt budget further. A timed-out attempt is abandoned
  (never joined) and the *session* swaps in fresh runtime objects
  before any retry, so a zombie attempt can only touch state nothing
  else references.
- **Containment** — a handler crash that exhausts its retry budget
  quarantines the session (structured ``E_QUARANTINED`` thereafter,
  until the client discards), never the daemon. Sessionless queries run
  against a shared context that resets its derived state instead.
- **Degradation** — a vector-engine
  :class:`~repro.sta.kernel.KernelCompileError` falls back to the
  reference path per scenario (counted, span-traced); a journal IO error
  degrades checkpointing, not serving.
- **Shared cache** — workers and reader threads share one
  :class:`~repro.sta.scheduler.ScenarioResultCache`, which locks its
  entries and counters; content keys alone decide whether an entry is
  valid.
- **Warm restart** — scenario results and the session ledger are
  journaled through :class:`~repro.runtime.journal.RunJournal`. A
  SIGKILL'd daemon restarted on the same journal prewarms its result
  cache and replays open sessions' ECO overlays; content fingerprints
  are deterministic, so the first post-restart query hits the cache.
- **Slow clients** — responses are sent with a bounded socket timeout;
  a client that stops draining its socket is disconnected (and counted)
  rather than wedging a worker.
"""

from __future__ import annotations

import math
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.beol.corners import conventional_corners
from repro.beol.stack import BeolStack, default_stack
from repro.errors import (
    DaemonUnavailableError,
    DeadlineExceededError,
    LibraryError,
    NetlistError,
    ProtocolError,
    ReproError,
    ServeError,
    SessionQuarantinedError,
    TimingError,
)
from repro.netlist.design import Design
from repro.netlist.transforms import check_swap
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.runtime.journal import RunJournal
from repro.runtime.supervisor import (
    RetryPolicy,
    SupervisedExecutor,
    SupervisedTask,
    TaskExecution,
)
from repro.serve import protocol
from repro.serve.admission import AdmissionQueue
from repro.serve.overlay import OverlayEdit
from repro.serve.session import Session, SessionManager
from repro.sta.analysis import STA
from repro.sta.scheduler import ScenarioResultCache, scenario_fingerprint

#: Session id of the shared (sessionless) query context. Not in the
#: session table — only reachable by omitting ``session`` — and never
#: journaled: it holds no edits, so there is nothing to restore.
SHARED_SESSION_ID = "shared"

#: Exceptions that are the *client's* fault (bad edit, unknown target,
#: incompatible cell) and must surface as E_BAD_REQUEST responses, not
#: be mistaken for worker crashes by the retry supervisor.
_CLIENT_FAULTS = (ServeError, NetlistError, LibraryError)


def _number(params: Dict[str, Any], name: str, default, lo, hi,
            integer: bool = False):
    """A numeric request parameter, read before any work is done.

    Absent or ``null`` gives ``default``. Otherwise the value must be a
    JSON number (an integer when ``integer``; booleans are not numbers)
    inside ``[lo, hi]``, or the request is the client's fault:
    ProtocolError, never a crash the supervisor would retry.
    """
    value = params.get(name)
    if value is None:
        return default
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds) \
            or not lo <= value <= hi:
        kind = "an integer" if integer else "a number"
        raise ProtocolError(
            f"{name} must be {kind} in [{lo}, {hi}], got {value!r}",
            param=name,
        )
    return value if integer else float(value)


def _session_id(value, op: str) -> str:
    """A control op's session id: a non-empty string, or the request is
    the client's fault (ProtocolError)."""
    if not isinstance(value, str) or not value:
        raise ProtocolError(
            f"{op} needs a non-empty string session id, got {value!r}",
            param="session_id",
        )
    return value


class _ClientFault:
    """Box smuggling a client-fault exception out of a supervised attempt
    as a *result*, so the supervisor never counts it as a crash."""

    __slots__ = ("error",)

    def __init__(self, error: Exception):
        self.error = error


@dataclass
class DaemonConfig:
    """Tunables for one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in daemon.port
    workers: int = 4
    queue_limit: int = 64
    retries: int = 1
    timeout_s: Optional[float] = None  # per-attempt budget; None = off
    engine: str = "reference"
    session_limit: int = 256
    send_timeout_s: float = 5.0
    cache_entries: int = 512

    def __post_init__(self):
        if self.workers < 1:
            raise TimingError("daemon needs at least one worker")
        # Every request builds its policy from these two settings; an
        # invalid one is the operator's error, refused at startup.
        RetryPolicy(retries=self.retries, timeout_s=self.timeout_s)


class _Connection:
    """One client socket plus its serialized, timeout-bounded sender."""

    def __init__(self, sock: socket.socket, peer: str,
                 send_timeout_s: float):
        self.sock = sock
        self.peer = peer
        self.send_timeout_s = send_timeout_s
        self.alive = True
        self._send_lock = threading.Lock()

    def send(self, message: Dict[str, Any]) -> bool:
        """Send one frame; False (and connection death) on any failure.

        The socket timeout bounds how long a slow client can hold the
        sending thread; on expiry the connection is dropped — shedding
        the reader, not wedging a worker.
        """
        try:
            frame = protocol.encode(message)
        except ServeError:
            # Response too large for the protocol — replace it with a
            # structured error the client can actually receive.
            frame = protocol.encode(protocol.error_response(
                message.get("id"),
                ProtocolError("response exceeds protocol frame limit"),
            ))
        with self._send_lock:
            if not self.alive:
                return False
            try:
                self.sock.settimeout(self.send_timeout_s)
                self.sock.sendall(frame)
                return True
            except (OSError, ValueError):
                self.alive = False
                obs_metrics.inc("serve.client_drops")
                try:
                    self.sock.close()
                except OSError:
                    pass
                return False

    def close(self) -> None:
        with self._send_lock:
            self.alive = False
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self.sock.close()
            except OSError:
                pass


class TimingDaemon:
    """Long-lived timing service over one bound design (module docstring).

    Args:
        design: the base design, loaded and shared by every session.
        scenarios: MCMM views served by name (unique, non-empty).
        stack: BEOL stack; defaults to the standard stack.
        config: :class:`DaemonConfig` tunables.
        journal: optional :class:`~repro.runtime.journal.RunJournal`
            backing warm restart (scenario results + session ledger).
        fault_injector: optional
            :class:`~repro.testing.faults.FaultInjector`; worker-scoped
            faults fire inside query handlers, kernel-scoped faults at
            vector compile time (chaos testing).
    """

    def __init__(
        self,
        design: Design,
        scenarios,
        stack: Optional[BeolStack] = None,
        config: Optional[DaemonConfig] = None,
        journal: Optional[RunJournal] = None,
        fault_injector=None,
    ):
        if not scenarios:
            raise TimingError("the daemon needs at least one scenario")
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise TimingError("scenario names must be unique")
        self.design = design
        self.scenarios: "OrderedDict[str, Any]" = OrderedDict(
            (s.name, s) for s in scenarios
        )
        self.stack = stack or default_stack()
        # Scenario libraries are bound once for the daemon's lifetime;
        # hashing their full cell tables per query would dominate the
        # cache-hit path. Taken here so the cost lands at startup.
        self._fingerprints: Dict[str, str] = {
            name: scenario_fingerprint(s)
            for name, s in self.scenarios.items()
        }
        self.config = config or DaemonConfig()
        self.journal = journal
        self.fault_injector = fault_injector
        self.cache = ScenarioResultCache(
            max_entries=self.config.cache_entries, verify=True
        )
        self.sessions = SessionManager(
            design, engine=self.config.engine, journal=journal,
            fault_injector=fault_injector,
            session_limit=self.config.session_limit,
        )
        self._shared = Session(SHARED_SESSION_ID, design,
                               self.config.engine,
                               fault_injector=fault_injector)
        self.admission = AdmissionQueue(self.config.queue_limit)
        self.prewarmed = self._prewarm_cache()
        self.port: Optional[int] = None
        self.requests = 0
        self.failures = 0
        self.quarantines = 0
        self._started_s = time.monotonic()
        self._stopping = False
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._conns: List[_Connection] = []
        self._conns_lock = threading.Lock()
        self._handlers: Dict[str, Callable] = {
            "timing": self._op_timing,
            "signoff": self._op_signoff,
            "paths": self._op_paths,
            "histogram": self._op_histogram,
            "apply_eco": self._op_apply_eco,
            "ssta": self._op_ssta,
        }

    # ------------------------------------------------------------------ #
    # warm restart

    def _prewarm_cache(self) -> int:
        """Reload journaled scenario reports into the result cache.

        Keys are content-addressed (design name + design fingerprint +
        scenario fingerprint); replayed session overlays reproduce the
        same content, so prewarmed entries hit on the first post-restart
        query without re-running any STA.
        """
        if self.journal is None:
            return 0
        count = 0
        for key in self.journal.keys("scenario"):
            if not (isinstance(key, tuple) and len(key) == 3):
                continue
            report = self.journal.lookup("scenario", key)
            if report is None:
                continue
            self.cache.store(key[0], key[1], key[2], report)
            count += 1
        return count

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self) -> int:
        """Bind, listen, and spin up worker/accept threads; returns port."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(128)
        self._listener = listener
        self.port = listener.getsockname()[1]
        for i in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        accept = threading.Thread(target=self._accept_loop,
                                  name="serve-accept", daemon=True)
        accept.start()
        self._threads.append(accept)
        return self.port

    def serve_forever(self) -> None:
        """start() + block until stop() (for the CLI foreground mode)."""
        if self._listener is None:
            self.start()
        while not self._stopping:
            time.sleep(0.1)
        self._join()

    def stop(self) -> None:
        """Graceful shutdown: drain admitted work, then drop clients."""
        if self._stopping:
            return
        self._stopping = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        self.admission.close()
        self._join()
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()

    def _join(self) -> None:
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=10.0)

    # ------------------------------------------------------------------ #
    # socket plumbing

    def _accept_loop(self) -> None:
        # Polling timeout rather than a blocking accept: closing the
        # listener from stop() does not reliably wake a blocked
        # accept(), which would wedge shutdown for the join timeout.
        self._listener.settimeout(0.5)
        while not self._stopping:
            try:
                sock, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed; shutting down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock, f"{addr[0]}:{addr[1]}",
                               self.config.send_timeout_s)
            with self._conns_lock:
                self._conns.append(conn)
            reader = threading.Thread(
                target=self._reader_loop, args=(conn,),
                name=f"serve-reader-{conn.peer}", daemon=True,
            )
            reader.start()

    def _reader_loop(self, conn: _Connection) -> None:
        """Read frames off one connection; never raises out."""
        buffer = b""
        try:
            while conn.alive and not self._stopping:
                try:
                    conn.sock.settimeout(0.5)
                    chunk = conn.sock.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not chunk:
                    break  # EOF
                buffer += chunk
                if b"\n" not in buffer \
                        and len(buffer) > protocol.MAX_LINE_BYTES:
                    conn.send(protocol.error_response(
                        None,
                        ProtocolError("frame exceeds protocol limit",
                                      limit=protocol.MAX_LINE_BYTES),
                    ))
                    break  # framing is unrecoverable; drop the client
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        self._dispatch(conn, line)
        finally:
            conn.close()
            with self._conns_lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def _dispatch(self, conn: _Connection, line: bytes) -> None:
        """Route one decoded frame: control inline, queries admitted."""
        request_id = None
        try:
            message = protocol.decode_line(line)
            request_id = message.get("id")
            request = protocol.parse_request(message)
        except ServeError as exc:
            conn.send(protocol.error_response(request_id, exc))
            return
        if self._stopping:
            conn.send(protocol.error_response(
                request_id,
                DaemonUnavailableError("daemon is shutting down"),
            ))
            return
        if request["op"] in protocol.CONTROL_OPS:
            try:
                result = self._control(request)
            except ReproError as exc:
                conn.send(protocol.error_response(
                    request_id, self._wrap_error(exc)))
                return
            except Exception as exc:  # noqa: BLE001 - reader must survive
                obs_metrics.inc("serve.internal_errors")
                conn.send(protocol.error_response(
                    request_id, self._wrap_error(exc)))
                return
            conn.send(protocol.ok_response(request_id, result))
            if request["op"] == "shutdown":
                threading.Thread(target=self.stop, daemon=True).start()
            return
        try:
            self.admission.offer((conn, request, time.monotonic()))
        except ServeError as exc:
            conn.send(protocol.error_response(request_id, exc))

    # ------------------------------------------------------------------ #
    # workers

    def _worker_loop(self) -> None:
        while True:
            item = self.admission.take(timeout_s=0.25)
            if item is None:
                if self._stopping:
                    return
                continue
            conn, request, enqueued_s = item
            try:
                self._process(conn, request, enqueued_s)
            except Exception as exc:  # noqa: BLE001 - worker must survive
                obs_metrics.inc("serve.internal_errors")
                conn.send(protocol.error_response(
                    request.get("id"), self._wrap_error(exc)))
            finally:
                self.admission.done()

    @staticmethod
    def _wrap_error(exc: Exception) -> ServeError:
        if isinstance(exc, ServeError):
            return exc
        if isinstance(exc, ReproError):
            # Client-triggered domain errors (unknown instance,
            # dont_touch, bad mode, ...) are bad requests, not daemon
            # faults: non-retryable, with the structured context kept.
            wrapped = ProtocolError(
                f"{type(exc).__name__}: {exc.message}"
            )
            wrapped.context.update(exc.context)
            return wrapped
        return ServeError(f"{type(exc).__name__}: {exc}")

    def _resolve_session(self, request: Dict[str, Any]) -> Session:
        sid = request["session"]
        if sid is None:
            session = self._shared
        else:
            session = self.sessions.get(sid)
        session.ensure_usable()
        return session

    def _request_policy(self, params: Dict[str, Any], enqueued_s: float,
                        op: str) -> RetryPolicy:
        """The effective retry policy for one admitted request.

        ``deadline_s`` (measured from admission) tightens the per-attempt
        budget; an already-expired deadline raises before any work.
        ``apply_eco`` never auto-retries: its commit+journal sequence is
        not idempotent, and the overlay's atomicity means a failed apply
        left nothing behind for a retry to fix anyway.
        """
        retries = 0 if op == "apply_eco" else self.config.retries
        timeout_s = self.config.timeout_s
        deadline_s = _number(params, "deadline_s", None, 0.0, 86400.0)
        if deadline_s is not None:
            remaining = deadline_s - (time.monotonic() - enqueued_s)
            if remaining <= 0:
                raise DeadlineExceededError(
                    "deadline expired while queued",
                    deadline_s=deadline_s,
                )
            timeout_s = remaining if timeout_s is None \
                else min(timeout_s, remaining)
        return RetryPolicy(retries=retries, timeout_s=timeout_s)

    def _process(self, conn: _Connection, request: Dict[str, Any],
                 enqueued_s: float) -> None:
        op = request["op"]
        params = request["params"]
        request_id = request["id"]
        sid = request["session"]
        t0 = time.perf_counter()
        self.requests += 1
        obs_metrics.inc("serve.requests")
        with obs_tracing.span("serve_request", op=op,
                              session=sid or SHARED_SESSION_ID):
            try:
                session = self._resolve_session(request)
                policy = self._request_policy(params, enqueued_s, op)
                handler = self._handlers[op]

                def attempt(_payload, attempt_no):
                    if attempt_no > 1:
                        # The previous attempt crashed or was abandoned
                        # on timeout; a zombie may still be touching the
                        # session's derived state. Swap in fresh objects
                        # before retrying (committed edits survive).
                        session.reset_runtime()
                    try:
                        return handler(session, params, attempt_no)
                    except _CLIENT_FAULTS as exc:
                        return _ClientFault(exc)

                task = SupervisedTask(f"{op}:{sid or SHARED_SESSION_ID}",
                                      attempt)
                with session.lock:
                    (execution,) = SupervisedExecutor(
                        executor="serial", policy=policy,
                    ).run([task])
                if not execution.ok:
                    raise self._degrade(execution, sid)
                result = execution.result
                if isinstance(result, _ClientFault):
                    raise result.error
            except (ServeError, ReproError) as exc:
                self.failures += 1
                conn.send(protocol.error_response(
                    request_id, self._wrap_error(exc)))
                return
            finally:
                obs_metrics.observe(
                    "serve.latency_ms", (time.perf_counter() - t0) * 1e3
                )
        conn.send(protocol.ok_response(request_id, result))

    def _degrade(self, execution: TaskExecution,
                 sid: Optional[str]) -> ServeError:
        """Triage an exhausted retry budget into the right wire error.

        Timeouts become retryable ``E_DEADLINE`` (the work was abandoned,
        the session already got fresh runtime state for the next
        request). Crashes quarantine the session — every later request
        gets ``E_QUARANTINED`` until the client discards — except the
        shared sessionless context, which resets instead (quarantining
        it would take the daemon down for every anonymous client).
        """
        exc = execution.error
        cause = exc.context["cause"]
        chain = "; ".join(execution.error_chain)
        if cause == "WorkerTimeoutError":
            error = DeadlineExceededError(
                "request exceeded its time budget",
                attempts=exc.context["attempts"],
            )
            error.context["chain"] = chain
            return error
        self.quarantines += 1
        obs_metrics.inc("serve.quarantines")
        if sid is None:
            self._shared.reset_runtime()
            error: ServeError = DaemonUnavailableError(
                "shared context failed and was reset; retry",
                cause=cause,
            )
        else:
            self.sessions.quarantine(sid, f"{cause}: {exc.message}")
            error = SessionQuarantinedError(
                "session quarantined after repeated worker failures",
                session=sid, cause=cause,
            )
        error.context["chain"] = chain
        return error

    # ------------------------------------------------------------------ #
    # control ops (bypass admission; O(1) or close to it)

    def _control(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        params = request["params"]
        if op == "ping":
            return {
                "pong": True,
                "design": self.design.name,
                "scenarios": list(self.scenarios),
                "engine": self.config.engine,
                "protocol": protocol.PROTOCOL_VERSION,
                "uptime_s": round(time.monotonic() - self._started_s, 3),
            }
        if op == "stats":
            return self._stats()
        if op == "open_session":
            sid = params.get("session_id")
            if sid is not None:
                _session_id(sid, op)
            return {"session": self.sessions.open(sid).id}
        if op == "close_session":
            sid = _session_id(request["session"] or params.get("session_id"),
                              op)
            self.sessions.close(sid)
            self.cache.invalidate_design(f"{self.design.name}@{sid}")
            return {"closed": sid}
        if op == "discard":
            sid = _session_id(request["session"] or params.get("session_id"),
                              op)
            dropped = self.sessions.discard(sid)
            self.cache.invalidate_design(f"{self.design.name}@{sid}")
            return {"discarded": dropped, "session": sid}
        if op == "shutdown":
            return {"stopping": True}
        raise ProtocolError(f"unknown control op {op!r}")

    def _stats(self) -> Dict[str, Any]:
        pools = [self._shared] + self.sessions.sessions()
        timers = {
            "builds": sum(s.timers.builds for s in pools),
            "incremental_retimes": sum(
                s.timers.incremental_retimes for s in pools),
            "full_retimes": sum(s.timers.full_retimes for s in pools),
        }
        stats = {
            "design": self.design.name,
            "uptime_s": round(time.monotonic() - self._started_s, 3),
            "requests": self.requests,
            "failures": self.failures,
            "quarantines": self.quarantines,
            "admission": self.admission.stats(),
            "sessions": self.sessions.counts(),
            "cache": {
                "entries": len(self.cache),
                "hits": self.cache.stats.hits,
                "misses": self.cache.stats.misses,
                "prewarmed": self.prewarmed,
            },
            "timers": timers,
        }
        if self.journal is not None:
            stats["journal"] = {
                "available": self.journal.available,
                "io_errors": self.journal.io_errors,
                "entries": len(self.journal),
                "restored_sessions": self.sessions.restored,
            }
        return stats

    # ------------------------------------------------------------------ #
    # query ops (admitted, supervised)

    def _scenario(self, name: str):
        scenario = self.scenarios.get(name)
        if scenario is None:
            raise ProtocolError(
                f"unknown scenario {name!r}",
                scenarios=",".join(self.scenarios),
            )
        return scenario

    def _build_sta(self, session: Session, scenario) -> STA:
        design = session.overlay.materialize()
        corner = conventional_corners(self.stack)[
            scenario.beol_corner_name
        ]
        return STA(
            design,
            scenario.library,
            scenario.constraints,
            stack=self.stack,
            beol_corner=corner,
            temp_c=scenario.temp_c,
            derates=scenario.derates,
        )

    def _scenario_report(self, session: Session, scenario,
                         attempt: int) -> Tuple[Any, str]:
        """One scenario's report for one session: cache, then retime.

        Returns ``(report, source)`` with source in
        ``{"cache", "incremental", "full"}``. Freshly computed reports
        are cached and journaled under content-addressed keys, so they
        survive both further queries and daemon restarts.
        """
        if self.fault_injector is not None:
            # Worker-scoped chaos fires here — inside the supervised
            # attempt, per (scenario, attempt) coordinates.
            self.fault_injector.fire(scenario.name, attempt)
        design = session.overlay.materialize()
        design_fp = session.overlay.content_fingerprint()
        key = (design.name, design_fp, self._fingerprints[scenario.name])
        cached = self.cache.lookup(*key)
        if cached is not None:
            return cached, "cache"
        edited, topology = session.take_pending(scenario.name)
        had_timer = session.timers.get(scenario.name) is not None
        report = session.timers.retime(
            scenario.name, edited, topology,
            build=lambda: self._build_sta(session, scenario),
        )
        report.scenario = scenario.name
        source = "incremental" if had_timer and not topology else "full"
        self.cache.store(*key, report)
        if self.journal is not None:
            if not self.journal.record("scenario", key, report):
                obs_metrics.inc("runtime.journal.io_errors")
        return report, source

    @staticmethod
    def _report_row(report) -> Dict[str, Any]:
        def num(value: float) -> Optional[float]:
            return None if math.isinf(value) else round(value, 6)

        return {
            "wns_setup": num(report.wns("setup")),
            "tns_setup": num(report.tns("setup")),
            "violations_setup": report.violation_count("setup"),
            "wns_hold": num(report.wns("hold")),
            "tns_hold": num(report.tns("hold")),
            "violations_hold": report.violation_count("hold"),
            "slew_violations": len(report.slew_violations),
        }

    def _selected(self, params: Dict[str, Any]) -> List[str]:
        names = params.get("scenarios")
        if names is None:
            return list(self.scenarios)
        if not isinstance(names, list) or not names:
            raise ProtocolError("scenarios must be a non-empty list")
        for name in names:
            self._scenario(name)  # raises on unknown
        return names

    def _op_timing(self, session: Session, params: Dict[str, Any],
                   attempt: int) -> Dict[str, Any]:
        rows: Dict[str, Any] = {}
        sources: Dict[str, str] = {}
        for name in self._selected(params):
            report, source = self._scenario_report(
                session, self._scenario(name), attempt
            )
            rows[name] = self._report_row(report)
            sources[name] = source
        session.queries += 1
        return {
            "design": session.overlay.design_name,
            "version": session.overlay.version,
            "scenarios": rows,
            "sources": sources,
        }

    def _op_signoff(self, session: Session, params: Dict[str, Any],
                    attempt: int) -> Dict[str, Any]:
        result = self._op_timing(
            session, {**params, "scenarios": None}, attempt
        )
        rows = result["scenarios"]
        worst = min(rows, key=lambda n: rows[n]["wns_setup"]
                    if rows[n]["wns_setup"] is not None else float("inf"))
        merged = {
            "merged_wns_setup": min(
                (rows[n]["wns_setup"] for n in rows
                 if rows[n]["wns_setup"] is not None), default=None),
            "merged_tns_setup": min(
                (rows[n]["tns_setup"] for n in rows
                 if rows[n]["tns_setup"] is not None), default=None),
            "merged_wns_hold": min(
                (rows[n]["wns_hold"] for n in rows
                 if rows[n]["wns_hold"] is not None), default=None),
            "worst_scenario": worst,
        }
        result.update(merged)
        return result

    def _op_paths(self, session: Session, params: Dict[str, Any],
                  attempt: int) -> Dict[str, Any]:
        name = params.get("scenario")
        if not name:
            raise ProtocolError("paths needs a scenario")
        mode = params.get("mode", "setup")
        if mode not in ("setup", "hold"):
            raise ProtocolError(f"bad mode {mode!r}")
        count = _number(params, "count", 3, 1, 10000, integer=True)
        scenario = self._scenario(name)
        self._scenario_report(session, scenario, attempt)
        timer = session.timers.get(name)
        if timer is None:
            # Cache hit on a cold timer (e.g. right after a warm
            # restart): path reconstruction needs a live STA, so build
            # one now — later path queries reuse it.
            session.timers.retime(
                name, build=lambda: self._build_sta(session, scenario)
            )
            timer = session.timers.get(name)
        sta = timer.sta
        paths = []
        for endpoint in sta.report.endpoints(mode)[:count]:
            path = sta.worst_path(endpoint)
            paths.append({
                "endpoint": str(endpoint.endpoint),
                "startpoint": str(path.startpoint),
                "slack": round(endpoint.slack, 6),
                "stages": path.stage_count,
                "gate_fraction": round(path.gate_delay_fraction(), 4),
                "render": path.render(),
            })
        session.queries += 1
        return {"scenario": name, "mode": mode, "paths": paths}

    def _op_histogram(self, session: Session, params: Dict[str, Any],
                      attempt: int) -> Dict[str, Any]:
        name = params.get("scenario")
        if not name:
            raise ProtocolError("histogram needs a scenario")
        mode = params.get("mode", "setup")
        if mode not in ("setup", "hold"):
            raise ProtocolError(f"bad mode {mode!r}")
        bins = _number(params, "bins", 8, 1, 1000, integer=True)
        report, source = self._scenario_report(
            session, self._scenario(name), attempt
        )
        session.queries += 1
        return {
            "scenario": name,
            "mode": mode,
            "endpoints": len(report.endpoints(mode)),
            "histogram": report.slack_histogram(mode, bins=bins),
            "source": source,
            **self._report_row(report),
        }

    def _op_ssta(self, session: Session, params: Dict[str, Any],
                 attempt: int) -> Dict[str, Any]:
        """Statistical query over the session's (overlaid) design.

        Runs one canonical-algebra SSTA pass on a chosen scenario:
        timing yield, the top endpoints by criticality (mean/sigma/
        P(fail)), and — when ``target_yield`` is given — a PST
        tune-to-target over ``tune_range`` ps. Always a full
        recompute (distributions are not cached), so budget ``samples``
        accordingly; the op is still supervised and admission-controlled
        like every other query.
        """
        from repro.liberty.lvf import has_lvf
        from repro.sta.algebra import VariationModel
        from repro.sta.ssta import run_ssta, tune_to_yield

        name = params.get("scenario")
        scenario = (self._scenario(name) if name
                    else next(iter(self.scenarios.values())))
        if not has_lvf(scenario.library):
            raise ProtocolError(
                f"scenario {scenario.name!r} has no LVF sigma tables; "
                "ssta is unavailable on it", scenario=scenario.name,
            )
        samples = _number(params, "samples", 1000, 16, 20000, integer=True)
        top = _number(params, "top", 5, 0, 10000, integer=True)
        model = VariationModel(
            rho=_number(params, "rho", VariationModel.rho, 0.0, 1.0),
            seed=_number(params, "seed", VariationModel.seed, 0, 2 ** 32 - 1,
                         integer=True),
        )
        target = _number(params, "target_yield", None, 0.0, 1.0)
        tune_range = _number(params, "tune_range", 40.0, 0.0, 1000.0)
        max_buffers = _number(params, "max_buffers", None, 0, 100000,
                              integer=True)
        if self.fault_injector is not None:
            self.fault_injector.fire(f"ssta:{scenario.name}", attempt)

        design = session.overlay.materialize()
        corner = conventional_corners(self.stack)[
            scenario.beol_corner_name
        ]
        with obs_tracing.span("daemon_ssta", scenario=scenario.name,
                              samples=samples):
            run = run_ssta(
                design, scenario.library, scenario.constraints,
                model=model,
                n_samples=samples,
                stack=self.stack, beol_corner=corner,
                temp_c=scenario.temp_c, derates=scenario.derates,
            )
            ranked = sorted(run.endpoints,
                            key=lambda e: -e.criticality)
            result: Dict[str, Any] = {
                "design": session.overlay.design_name,
                "version": session.overlay.version,
                "scenario": scenario.name,
                "samples": samples,
                "yield": round(run.timing_yield(), 6),
                "endpoints": [
                    {
                        "endpoint": str(e.endpoint),
                        "mean": round(e.mean, 6),
                        "sigma": round(e.sigma, 6),
                        "fail_prob": round(e.fail_prob, 6),
                        "criticality": round(e.criticality, 6),
                    }
                    for e in ranked[:top]
                ],
            }
            if target is not None:
                tuned = tune_to_yield(
                    run,
                    target_yield=target,
                    tune_range=tune_range,
                    max_buffers=max_buffers,
                )
                result["tuning"] = {
                    "target_yield": tuned.target_yield,
                    "baseline_yield": round(tuned.baseline_yield, 6),
                    "tuned_yield": round(tuned.tuned_yield, 6),
                    "buffers": len(tuned.selected),
                    "selected": list(tuned.selected),
                    "achieved": tuned.achieved,
                }
        session.queries += 1
        obs_metrics.inc("serve.ssta.queries")
        return result

    def _validate_eco(self, session: Session,
                      edits: List[OverlayEdit]) -> None:
        """Reject ``set_cell`` edits no bound library can honor.

        The overlay only validates against the netlist; the daemon also
        knows the scenario libraries, so a swap that
        :func:`~repro.netlist.transforms.check_swap` refuses in *any*
        scenario's library (missing cell, other footprint or pin set)
        fails the whole batch up front — as a bad request, before
        anything commits, instead of crashing the first timing query
        that binds the edited design. Chained ECOs are checked against
        the overlay's *current* cell, not the base's.
        """
        current: Dict[str, str] = {}
        for edit in edits:
            if edit.kind != "set_cell" \
                    or not isinstance(edit.value, str):
                continue  # overlay._validate covers shape errors
            old_name = current.get(
                edit.target, session.overlay.cell_of(edit.target)
            )
            for scenario in self.scenarios.values():
                check_swap(scenario.library, edit.target, old_name,
                           edit.value)
            current[edit.target] = edit.value

    def _op_apply_eco(self, session: Session, params: Dict[str, Any],
                      attempt: int) -> Dict[str, Any]:
        if session is self._shared:
            raise ProtocolError(
                "apply_eco needs a session (open_session first); the "
                "shared context is read-only"
            )
        raw = params.get("edits")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError("apply_eco needs a non-empty edits list")
        edits = [OverlayEdit.from_wire(e) for e in raw]
        self._validate_eco(session, edits)
        instances, topology = self.sessions.apply_eco(session, edits)
        # Eager hygiene: this session's cached snapshots are stale now.
        self.cache.invalidate_design(session.overlay.design_name)
        return {
            "session": session.id,
            "applied": len(edits),
            "edited_instances": instances,
            "topology_changed": topology,
            "version": session.overlay.version,
            "eco_seq": session.eco_seq,
        }
