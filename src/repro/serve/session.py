"""Daemon sessions: private ECO overlays plus warm per-scenario timers.

A session is one client's standing what-if context: a
:class:`~repro.serve.overlay.DesignOverlay` over the shared base design
plus a warm :class:`~repro.sta.scheduler.ScenarioTimerPool` bound to the
overlay's materialized view. Queries retime cone-limited after
footprint-preserving ECOs and fall back to honest full updates for
topology-affecting edits — the PR-3 incremental substrate, now one per
concurrent client.

Fault containment is per-session: a worker crash that exhausts its retry
budget quarantines *the session* (state, error and all), never the
daemon. Other sessions keep timing; the quarantined one answers every
further query with a structured :class:`~repro.errors.SessionQuarantinedError`
until the client discards or closes it.

Durability: session opens, ECO commits and closes are journaled through
the daemon's :class:`~repro.runtime.journal.RunJournal`. A SIGKILL'd
daemon replays the ledger on restart — sessions come back with their
overlays (and therefore their content fingerprints, and therefore their
warm cache hits) intact. Timers are rebuilt lazily on first query; they
are derived state. A journaled edit the daemon now refuses (a journal
written before an edit check existed) brings its session back
quarantined until the client discards it; the others restore as usual.
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.errors import (
    AdmissionShedError,
    ProtocolError,
    ReproError,
    SessionNotFoundError,
    SessionQuarantinedError,
)
from repro.netlist.design import Design
from repro.netlist.transforms import Edit
from repro.serve.overlay import DesignOverlay, OverlayEdit
from repro.sta.scheduler import ScenarioTimerPool


class SessionState(enum.Enum):
    ACTIVE = "active"
    QUARANTINED = "quarantined"
    CLOSED = "closed"


class Session:
    """One client's overlay + warm timers + supervision state."""

    def __init__(self, session_id: str, base: Design, engine: str,
                 fault_injector=None):
        self.id = session_id
        self.overlay = DesignOverlay(base, session_id)
        self.state = SessionState.ACTIVE
        self.error: Optional[str] = None  # set when quarantined
        self.created_s = time.monotonic()
        #: Serializes all timing work for this session. Concurrent
        #: requests on one session queue up here; concurrent *sessions*
        #: proceed in parallel. Required because warm timers hold live
        #: STA state bound to the session's materialized design.
        self.lock = threading.Lock()
        self.timers = ScenarioTimerPool(engine=engine,
                                        fault_injector=fault_injector)
        #: Monotonic ECO sequence number (journal key component).
        self.eco_seq = 0
        self.queries = 0

    # ------------------------------------------------------------------ #

    def ensure_usable(self) -> None:
        if self.state is SessionState.QUARANTINED:
            raise SessionQuarantinedError(
                "session is quarantined after a worker failure",
                session=self.id, cause=self.error,
            )
        if self.state is SessionState.CLOSED:
            raise SessionNotFoundError(
                "session is closed", session=self.id
            )

    def drop_timers(self) -> None:
        """Discard warm timers (after overlay discard / restore)."""
        for name in self.timers.names():
            self.timers.discard(name)

    def reset_runtime(self) -> None:
        """Replace all derived runtime state with fresh objects.

        Called at the start of a *retry* after an attempt crashed or was
        abandoned on timeout: the zombie attempt may still be binding the
        old materialized view, so timers are dropped and the overlay
        re-materializes into disjoint objects. The overlay's committed
        edits (durable state) are untouched.
        """
        self.drop_timers()
        self.overlay.refresh()

    def quarantine(self, error: str) -> None:
        self.state = SessionState.QUARANTINED
        self.error = error

    def close(self) -> None:
        self.state = SessionState.CLOSED
        self.drop_timers()


class SessionManager:
    """Owns the session table and its journal-backed ledger.

    Journal entry shapes (all JSON-plain keys, picklable payloads):

    - ``("serve_session", sid)`` -> ``{"state": "open" | "closed"}``
    - ``("serve_eco", (sid, seq))`` -> list of edit dicts

    The latest entry per key wins (the journal is a dict keyed by
    (kind, key)), so open/close transitions overwrite cleanly and each
    ECO commit is its own immutable record.
    """

    def __init__(self, base: Design, engine: str = "reference",
                 journal=None, fault_injector=None,
                 session_limit: int = 1024):
        self.base = base
        self.engine = engine
        self.journal = journal
        self.fault_injector = fault_injector
        self.session_limit = session_limit
        self._lock = threading.Lock()
        self._sessions: Dict[str, Session] = {}
        self._ids = itertools.count(1)
        self.restored = 0
        if journal is not None:
            self._restore()

    # ------------------------------------------------------------------ #
    # lifecycle

    def _next_id(self) -> str:
        while True:
            sid = f"s-{next(self._ids)}"
            if sid not in self._sessions:
                return sid

    def open(self, session_id: Optional[str] = None) -> Session:
        """Open a session. A live or journaled ``session_id`` is the
        client's mistake (:class:`ProtocolError`); a full session table
        sheds the request (:class:`AdmissionShedError`, retryable)."""
        with self._lock:
            if session_id in self._sessions and self._sessions[
                    session_id].state is not SessionState.CLOSED:
                raise ProtocolError(
                    f"session {session_id!r} already exists",
                    session=session_id,
                )
            if session_id is not None and self.journal is not None and \
                    self.journal.lookup("serve_session", session_id) \
                    is not None:
                # A journaled id (even a closed one) is never recycled:
                # its ECO ledger would splice into the new session on
                # the next restart.
                raise ProtocolError(
                    f"session id {session_id!r} was already used this "
                    "journal", session=session_id,
                )
            active = sum(1 for s in self._sessions.values()
                         if s.state is SessionState.ACTIVE)
            if active >= self.session_limit:
                raise AdmissionShedError(
                    "session limit reached", limit=self.session_limit
                )
            sid = session_id or self._next_id()
            session = Session(sid, self.base, self.engine,
                              fault_injector=self.fault_injector)
            self._sessions[sid] = session
        if self.journal is not None:
            self.journal.record("serve_session", sid, {"state": "open"})
        return session

    def get(self, session_id: str) -> Session:
        session = self._sessions.get(session_id)
        if session is None or session.state is SessionState.CLOSED:
            raise SessionNotFoundError(
                f"no session {session_id!r}", session=session_id
            )
        return session

    def close(self, session_id: str) -> None:
        session = self.get(session_id)
        session.close()
        if self.journal is not None:
            self.journal.record("serve_session", session_id,
                                {"state": "closed"})

    def quarantine(self, session_id: str, error: str) -> None:
        session = self._sessions.get(session_id)
        if session is not None:
            session.quarantine(error)

    def discard(self, session_id: str) -> int:
        """Drop a session's edits (and any quarantine) atomically.

        Returns the number of edits discarded. The journal records the
        high-water ECO sequence at discard time so a restart replays
        only *later* commits — discarded edits never resurrect. Discard
        also lifts quarantine: the session restarts from a clean overlay
        with fresh timers, which is exactly the recovery a client wants
        after a poisoned what-if.
        """
        session = self._sessions.get(session_id)
        if session is None or session.state is SessionState.CLOSED:
            raise SessionNotFoundError(
                f"no session {session_id!r}", session=session_id
            )
        dropped = session.overlay.discard()
        session.drop_timers()
        session.state = SessionState.ACTIVE
        session.error = None
        if self.journal is not None:
            self.journal.record(
                "serve_session", session_id,
                {"state": "open", "discard_seq": session.eco_seq},
            )
        return dropped

    # ------------------------------------------------------------------ #
    # ECO commits

    def apply_eco(self, session: Session,
                  edits: Sequence[OverlayEdit]) -> List[Edit]:
        """Atomically commit edits to a session and journal the commit.

        The overlay commit happens first (atomic; a validation failure
        raises with nothing mutated and nothing journaled), then the
        ledger records the batch. A daemon killed between the two loses
        only the *acknowledgement*: the client never saw a success
        response, retries, and the replayed overlay converges. Returns
        the committed edit records, queued for every warm timer.
        """
        records = session.overlay.apply(edits)
        session.timers.note(records)
        if edits:
            session.eco_seq += 1
            if self.journal is not None:
                self.journal.record(
                    "serve_eco", (session.id, session.eco_seq),
                    [edit.to_wire() for edit in edits],
                )
        return records

    # ------------------------------------------------------------------ #
    # restore

    def _restore(self) -> None:
        """Replay the journaled session ledger after a restart."""
        states = {}
        for (sid,) in [k if isinstance(k, tuple) else (k,)
                       for k in self.journal.keys("serve_session")]:
            states[sid] = self.journal.lookup("serve_session", sid)
        eco_keys = sorted(
            self.journal.keys("serve_eco"),
            key=lambda key: (key[0], key[1]),
        )
        # Never reissue any journaled id — a recycled id would splice a
        # dead session's ECO ledger into a new session on the *next*
        # restart. Closed sessions burn their id forever.
        max_seq = 0
        for sid in states:
            if sid.startswith("s-"):
                try:
                    max_seq = max(max_seq, int(sid[2:]))
                except ValueError:
                    pass
        self._ids = itertools.count(max_seq + 1)
        for sid, payload in states.items():
            if (payload or {}).get("state") != "open":
                continue
            discard_seq = int((payload or {}).get("discard_seq", 0))
            session = Session(sid, self.base, self.engine,
                              fault_injector=self.fault_injector)
            for key in eco_keys:
                if key[0] != sid:
                    continue
                seq = int(key[1])
                session.eco_seq = max(session.eco_seq, seq)
                if seq <= discard_seq \
                        or session.state is SessionState.QUARANTINED:
                    continue  # discarded, or behind a refused commit
                try:
                    edits = [OverlayEdit.from_wire(e)
                             for e in self.journal.lookup("serve_eco", key)]
                    session.overlay.apply(edits)
                except ReproError as exc:
                    # Journaled before the edit checks refused it: keep
                    # the session, unusable until the client discards.
                    session.quarantine(
                        f"journaled ECO {seq}: {type(exc).__name__}: "
                        f"{exc.message}")
            self._sessions[sid] = session
            self.restored += 1

    # ------------------------------------------------------------------ #
    # introspection

    def counts(self) -> Dict[str, int]:
        with self._lock:
            by_state = {state.value: 0 for state in SessionState}
            for session in self._sessions.values():
                by_state[session.state.value] += 1
            by_state["restored"] = self.restored
            return by_state

    def sessions(self) -> List[Session]:
        with self._lock:
            return list(self._sessions.values())
