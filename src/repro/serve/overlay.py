"""Session-isolated copy-on-write design overlays.

Thousands of concurrent clients each exploring a private what-if ECO
cannot afford a deep copy of the base design apiece, and absolutely
cannot share one mutable netlist. A :class:`DesignOverlay` gives each
session the middle path:

- **Reads fall through** — an overlay holds only its session's edits
  (cell reassignments, NDR promotions, bookkeeping cap); everything else
  resolves to the shared, immutable-by-convention base design.
- **Writes are session-private** — :meth:`apply` records edits in the
  overlay; the base design object is never touched. The materialized
  view shares unedited :class:`~repro.netlist.design.Instance` objects
  with the base (the bulky part of a netlist) and copy-on-writes only
  the instances the session actually edited. Net objects are always
  private — they are tiny, and ``Design.bind`` rebuilds their
  driver/load lists in place, which must never race across sessions.
- **Atomicity** — :meth:`apply` validates the whole edit batch against
  the current view *before* mutating anything; a bad edit anywhere in
  the batch raises with the overlay (and any materialized design)
  untouched, so a session aborting mid-apply can never leave a torn
  half-ECO behind.
- **Discardability** — :meth:`discard` drops every session edit in O(1)
  bookkeeping; the base design is untouched by construction.

The materialized view is an ordinary :class:`Design`, so the whole STA
stack (binding, extraction, graph build, warm incremental timers) works
on it unchanged. Its name is suffixed with the session id, keeping
name-keyed cache invalidation session-local while content fingerprints
stay deterministic across daemon restarts (a restored session replays
its journaled edits and lands on byte-identical cache keys).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import NetlistError, ProtocolError
from repro.netlist.design import Design, Instance, Net
from repro.netlist.transforms import Edit
from repro.serve.protocol import number

#: Edit kinds an overlay absorbs. ``set_cell`` swaps a cell (resize / Vt
#: swap); net edits change parasitics. The incremental timer decides how
#: the records :meth:`DesignOverlay.apply` returns are re-timed.
EDIT_KINDS = ("set_cell", "set_ndr", "add_cap")

#: Largest cap one ``add_cap`` edit adds to a net, fF (far above any
#: real net's load).
MAX_ADDED_CAP_FF = 1.0e6


@dataclass(frozen=True)
class OverlayEdit:
    """One session-private netlist edit. A malformed one raises
    :class:`~repro.errors.ProtocolError` (the client's fault) here."""

    kind: str  # one of EDIT_KINDS
    target: str  # instance name (set_cell) or net name (set_ndr/add_cap)
    value: Any = None  # new cell name | bool | extra cap in fF

    def __post_init__(self):
        if self.kind not in EDIT_KINDS:
            raise ProtocolError(
                f"unknown edit kind {self.kind!r}",
                kinds=",".join(EDIT_KINDS),
            )
        if not isinstance(self.target, str) or not self.target:
            raise ProtocolError("edit target must be a non-empty string")
        if self.kind == "set_cell":
            if not isinstance(self.value, str) or not self.value:
                raise ProtocolError(
                    "set_cell needs a cell name value", target=self.target
                )
        elif self.kind == "set_ndr":
            if not isinstance(self.value, bool):
                raise ProtocolError(
                    "set_ndr needs a boolean value", target=self.target
                )
        else:
            number(self.value, "add_cap value", 0.0, MAX_ADDED_CAP_FF)

    @classmethod
    def from_wire(cls, payload: Any) -> "OverlayEdit":
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"an edit must be a JSON object, got {type(payload).__name__}"
            )
        return cls(kind=payload.get("kind"), target=payload.get("target"),
                   value=payload.get("value"))

    def to_wire(self) -> Dict[str, Any]:
        return {"kind": self.kind, "target": self.target, "value": self.value}


class DesignOverlay:
    """A copy-on-write view of a shared base design (module docstring).

    Thread safety: one overlay belongs to one session, and the daemon
    serializes work per session, but :meth:`apply` still takes an
    internal lock so a misbehaving caller can corrupt at most its own
    timing results, never the overlay's commit atomicity.
    """

    def __init__(self, base: Design, session_id: str):
        self.base = base
        self.session_id = session_id
        #: Monotonic commit counter; bumps once per successful apply.
        self.version = 0
        self._lock = threading.Lock()
        self._cells: Dict[str, str] = {}       # instance -> new cell name
        self._ndr: Dict[str, bool] = {}        # net -> promoted flag
        self._extra_cap: Dict[str, float] = {}  # net -> added cap, fF
        self._log: List[OverlayEdit] = []
        self._materialized: Optional[Design] = None
        #: Instance names whose objects in the materialized view are
        #: session-private copies (everything else aliases the base).
        self._private: Set[str] = set()
        #: ``(version, design fingerprint)`` of the last fingerprinted
        #: commit.
        self._fingerprint: Optional[Tuple[int, str]] = None

    # ------------------------------------------------------------------ #
    # reads (fall through to base)

    def cell_of(self, instance_name: str) -> str:
        override = self._cells.get(instance_name)
        if override is not None:
            return override
        return self.base.instance(instance_name).cell_name

    def edits(self) -> List[OverlayEdit]:
        """The committed edit log, in application order."""
        return list(self._log)

    @property
    def edit_count(self) -> int:
        return len(self._log)

    def stats(self) -> Dict[str, int]:
        """COW accounting: how much of the view is shared vs private."""
        return {
            "edits": len(self._log),
            "private_instances": len(self._private),
            "shared_instances": len(self.base.instances) - len(self._private),
            "version": self.version,
        }

    # ------------------------------------------------------------------ #
    # writes (session-private, atomic per batch)

    def _validate(self, edit: OverlayEdit) -> None:
        """Check one edit's target against the current view. Raises
        without having mutated anything."""
        if edit.kind == "set_cell":
            inst = self.base.instance(edit.target)  # raises NetlistError
            if inst.dont_touch:
                raise NetlistError(
                    f"instance {edit.target} is marked dont_touch"
                )
        else:
            self.base.get_net(edit.target)  # raises NetlistError

    def apply(self, edits: Sequence[OverlayEdit]) -> List[Edit]:
        """Commit a batch of edits atomically.

        Returns the :class:`~repro.netlist.transforms.Edit` records it
        committed, in order, for the session's timers: ``swap`` (old and
        new cell), ``ndr`` (old and new flag) and ``cap`` (the net's
        added cap before and after, fF).

        The whole batch validates first; any failure raises with the
        overlay and its materialized view untouched (no torn ECOs).
        """
        edits = list(edits)
        with self._lock:
            # Phase 1: validate everything; mutate nothing.
            for edit in edits:
                self._validate(edit)
            # Phase 2: commit (infallible).
            records: List[Edit] = []
            for edit in edits:
                name, value = edit.target, edit.value
                if edit.kind == "set_cell":
                    records.append(
                        Edit("swap", name, self.cell_of(name), value))
                    self._cells[name] = value
                elif edit.kind == "set_ndr":
                    before = self._ndr.get(name, self.base.nets[name].ndr)
                    records.append(Edit("ndr", name, str(before), str(value)))
                    self._ndr[name] = value
                else:
                    before = self._extra_cap.get(name, 0.0)
                    self._extra_cap[name] = before + float(value)
                    records.append(Edit("cap", name, str(before),
                                        str(self._extra_cap[name])))
                self._log.append(edit)
            if edits:
                self.version += 1
                self._sync_materialized(
                    [e.target for e in edits if e.kind == "set_cell"])
            return records

    def discard(self) -> int:
        """Drop every session edit; returns how many were discarded.

        O(edits) bookkeeping — the base design was never touched, so
        there is nothing to restore. Any materialized view is dropped
        (its timers must be rebuilt from the clean base content).
        """
        with self._lock:
            dropped = len(self._log)
            self._cells.clear()
            self._ndr.clear()
            self._extra_cap.clear()
            self._log.clear()
            self._materialized = None
            self._private.clear()
            if dropped:
                self.version += 1
            return dropped

    def refresh(self) -> None:
        """Drop the cached materialized view; edits are kept.

        The next :meth:`materialize` builds brand-new Design/Net objects
        (unedited instances still alias the base). Used after a timed-out
        timing attempt is abandoned: the zombie thread keeps mutating the
        *old* view's nets, while retries and later queries bind a
        disjoint one.
        """
        with self._lock:
            self._materialized = None
            self._private.clear()

    # ------------------------------------------------------------------ #
    # materialization

    @property
    def design_name(self) -> str:
        return f"{self.base.name}@{self.session_id}"

    def content_fingerprint(self) -> str:
        """Design fingerprint of the materialized view, memoized per
        commit version — hashing a netlist costs milliseconds and the
        daemon needs it on every query, but the view's content can only
        change when :meth:`apply` or :meth:`discard` bumps ``version``.
        """
        # Imported here: the STA stack loads only once a fingerprint is
        # needed.
        from repro.sta.scheduler import design_fingerprint

        version = self.version
        memo = self._fingerprint
        if memo is None or memo[0] != version:
            memo = (version, design_fingerprint(self.materialize()))
            self._fingerprint = memo
        return memo[1]

    def materialize(self) -> Design:
        """The session's private, timeable view of the design.

        Cached across calls; kept in sync by :meth:`apply`, so warm
        incremental timers bound to the view stay valid (the object
        identity of the design and of unedited instances never churns).
        """
        if self._materialized is not None:
            return self._materialized
        view = Design(self.design_name)
        view.ports = dict(self.base.ports)
        view._uid = self.base._uid
        for name, inst in self.base.instances.items():
            override = self._cells.get(name)
            if override is not None and override != inst.cell_name:
                view.instances[name] = self._private_copy(inst, override)
                self._private.add(name)
            else:
                view.instances[name] = inst  # shared, read-only
        for name, net in self.base.nets.items():
            view.nets[name] = Net(
                name=name,
                ndr=self._ndr.get(name, net.ndr),
                extra_cap=net.extra_cap + self._extra_cap.get(name, 0.0),
            )
            # Port driver/load roles survive re-binding only if present;
            # bind() reconstructs instance roles from scratch.
            base_net = self.base.nets[name]
            if base_net.driver is not None and base_net.driver.is_port:
                view.nets[name].driver = base_net.driver
            view.nets[name].loads = [
                ref for ref in base_net.loads if ref.is_port
            ]
        self._materialized = view
        return view

    @staticmethod
    def _private_copy(inst: Instance, cell_name: str) -> Instance:
        return Instance(
            name=inst.name,
            cell_name=cell_name,
            connections=dict(inst.connections),
            location=inst.location,
            dont_touch=inst.dont_touch,
        )

    def _sync_materialized(self, edited_instances: Sequence[str]) -> None:
        """Push freshly committed edits into the cached view in place."""
        view = self._materialized
        if view is None:
            return
        for name in edited_instances:
            new_cell = self._cells[name]
            if name not in self._private:
                view.instances[name] = self._private_copy(
                    self.base.instances[name], new_cell
                )
                self._private.add(name)
            else:
                view.instances[name].cell_name = new_cell
        for name, promoted in self._ndr.items():
            view.nets[name].ndr = promoted
        for name, cap in self._extra_cap.items():
            view.nets[name].extra_cap = self.base.nets[name].extra_cap + cap
