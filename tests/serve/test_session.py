"""Tests for the session table, its journal ledger and warm restore."""

import pytest

from repro.errors import (
    AdmissionShedError,
    ProtocolError,
    ServeError,
    SessionNotFoundError,
    SessionQuarantinedError,
)
from repro.runtime import RunJournal
from repro.serve import OverlayEdit, SessionManager, SessionState
from tests.serve.conftest import make_design, nand2_instance


def set_cell(target, value):
    return OverlayEdit(kind="set_cell", target=target, value=value)


@pytest.fixture
def base():
    return make_design()


class TestLifecycle:
    def test_auto_ids_are_sequential(self, base):
        manager = SessionManager(base)
        assert manager.open().id == "s-1"
        assert manager.open().id == "s-2"

    def test_explicit_id_and_duplicate_rejected(self, base):
        manager = SessionManager(base)
        manager.open("eco-review")
        with pytest.raises(ServeError):
            manager.open("eco-review")

    def test_session_limit(self, base):
        manager = SessionManager(base, session_limit=2)
        manager.open()
        keep = manager.open()
        with pytest.raises(ServeError):
            manager.open()
        manager.close(keep.id)
        manager.open()  # closing freed a slot

    def test_open_refusals_are_typed(self, base, tmp_path):
        manager = SessionManager(base, session_limit=1,
                                 journal=RunJournal(tmp_path / "j"))
        manager.close(manager.open("a").id)
        with pytest.raises(ProtocolError, match="already used"):
            manager.open("a")
        manager.open("b")
        with pytest.raises(ProtocolError, match="already exists"):
            manager.open("b")
        with pytest.raises(AdmissionShedError, match="session limit"):
            manager.open("c")

    def test_get_unknown_raises(self, base):
        with pytest.raises(SessionNotFoundError):
            SessionManager(base).get("s-404")

    def test_close_makes_session_unreachable(self, base):
        manager = SessionManager(base)
        session = manager.open()
        manager.close(session.id)
        with pytest.raises(SessionNotFoundError):
            manager.get(session.id)
        with pytest.raises(SessionNotFoundError):
            session.ensure_usable()

    def test_quarantine_then_discard_recovers(self, base):
        manager = SessionManager(base)
        session = manager.open()
        target = nand2_instance(base)
        manager.apply_eco(session, [set_cell(target, "NAND2_X2_SVT")])
        manager.quarantine(session.id, "InjectedFaultError: boom")
        with pytest.raises(SessionQuarantinedError):
            session.ensure_usable()
        dropped = manager.discard(session.id)
        assert dropped == 1
        assert session.state is SessionState.ACTIVE
        assert session.error is None
        session.ensure_usable()
        assert session.overlay.cell_of(target) == \
            base.instances[target].cell_name

    def test_discard_unknown_raises(self, base):
        with pytest.raises(SessionNotFoundError):
            SessionManager(base).discard("s-404")

    def test_apply_eco_bumps_seq_per_batch(self, base):
        manager = SessionManager(base)
        session = manager.open()
        target = nand2_instance(base)
        manager.apply_eco(session, [set_cell(target, "NAND2_X2_SVT")])
        manager.apply_eco(session, [set_cell(target, "NAND2_X4_SVT")])
        assert session.eco_seq == 2
        manager.apply_eco(session, [])
        assert session.eco_seq == 2  # empty batches don't burn sequence


class TestJournalRestore:
    def test_open_sessions_replay_with_edits(self, base, tmp_path):
        path = tmp_path / "serve.journal"
        target = nand2_instance(base)
        manager = SessionManager(base, journal=RunJournal(path))
        live = manager.open()
        manager.apply_eco(live, [set_cell(target, "NAND2_X2_SVT")])
        gone = manager.open()
        manager.close(gone.id)

        restored = SessionManager(make_design(), journal=RunJournal(path))
        assert restored.restored == 1
        session = restored.get(live.id)
        assert session.overlay.cell_of(target) == "NAND2_X2_SVT"
        assert session.eco_seq == 1
        with pytest.raises(SessionNotFoundError):
            restored.get(gone.id)

    def test_journaled_ids_never_recycled(self, base, tmp_path):
        path = tmp_path / "serve.journal"
        manager = SessionManager(base, journal=RunJournal(path))
        manager.open()            # s-1
        closed = manager.open()   # s-2
        manager.close(closed.id)

        restored = SessionManager(make_design(), journal=RunJournal(path))
        # Auto ids resume past every journaled id, open or closed...
        assert restored.open().id == "s-3"
        # ...and a journaled id can't be re-opened explicitly either:
        # its dead ECO ledger would splice into the new session on the
        # next restart.
        with pytest.raises(ServeError):
            restored.open("s-2")
        with pytest.raises(ServeError):
            restored.open("s-1")

    def test_discard_seq_keeps_discarded_edits_dead(self, base, tmp_path):
        path = tmp_path / "serve.journal"
        target = nand2_instance(base)
        manager = SessionManager(base, journal=RunJournal(path))
        session = manager.open()
        manager.apply_eco(session, [set_cell(target, "NAND2_X2_SVT")])
        manager.discard(session.id)
        manager.apply_eco(session, [set_cell(target, "NAND2_X4_SVT")])

        restored = SessionManager(make_design(), journal=RunJournal(path))
        replayed = restored.get(session.id)
        assert replayed.overlay.cell_of(target) == "NAND2_X4_SVT"
        assert replayed.overlay.edit_count == 1  # pre-discard edit stayed dead
        assert replayed.eco_seq == 2

    def test_eco_replay_order_is_numeric_not_lexicographic(self, base,
                                                           tmp_path):
        path = tmp_path / "serve.journal"
        target = nand2_instance(base)
        cells = ["NAND2_X2_SVT", "NAND2_X4_SVT"]
        manager = SessionManager(base, journal=RunJournal(path))
        session = manager.open()
        # 11 commits: lexicographic key order would replay seq 10 and 11
        # before seq 2 and corrupt the final state.
        for i in range(11):
            manager.apply_eco(session, [set_cell(target, cells[i % 2])])
        final = session.overlay.cell_of(target)

        restored = SessionManager(make_design(), journal=RunJournal(path))
        assert restored.get(session.id).overlay.cell_of(target) == final

    def test_restore_without_journal_is_empty(self, base):
        manager = SessionManager(base)
        assert manager.restored == 0
        assert manager.counts()["active"] == 0
