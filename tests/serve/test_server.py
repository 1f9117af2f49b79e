"""End-to-end daemon tests over real sockets: queries, backpressure,
degradation, containment and warm restart — all in-process."""

import json
import socket
import time

import pytest

from repro.beol.corners import conventional_corners
from repro.beol.stack import default_stack
from repro.errors import ServeError, TimingError
from repro.obs import metrics, tracing
from repro.obs.export import summarize
from repro.obs.export import chrome_trace
from repro.runtime import RunJournal
from repro.serve import DaemonConfig, TimingClient, protocol
from repro.sta import STA
from repro.sta.kernel import ENGINES
from repro.testing import FaultInjector, FaultPlan
from repro.testing.faults import Fault
from tests.serve.conftest import make_design, nand2_instance


def client_for(daemon, timeout_s=30.0):
    return TimingClient("127.0.0.1", daemon.port, timeout_s=timeout_s)


def reference_row(design, scenario):
    """(wns, tns) for one scenario straight through the STA stack,
    exactly as the daemon builds it."""
    stack = default_stack()
    corner = conventional_corners(stack)[scenario.beol_corner_name]
    sta = STA(design, scenario.library, scenario.constraints, stack=stack,
              beol_corner=corner, temp_c=scenario.temp_c,
              derates=scenario.derates)
    report = sta.run()
    return round(report.wns("setup"), 6), round(report.tns("setup"), 6)


def raw_exchange(port, frames, expected, timeout=30.0):
    """Pipeline raw frames down one socket; collect `expected` responses."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    try:
        for frame in frames:
            sock.sendall(frame)
        responses, buffer = [], b""
        sock.settimeout(timeout)
        while len(responses) < expected:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if line.strip():
                    responses.append(json.loads(line))
        return responses
    finally:
        sock.close()


class TestQueries:
    def test_ping(self, daemon_factory):
        daemon = daemon_factory()
        with client_for(daemon) as client:
            result = client.request("ping")
        assert result["pong"] is True
        assert result["scenarios"] == ["tt_typ", "ss_cw"]
        assert result["protocol"] == protocol.PROTOCOL_VERSION

    def test_timing_matches_direct_sta(self, daemon_factory, scenarios):
        daemon = daemon_factory()
        with client_for(daemon) as client:
            result = client.request("timing", {"scenarios": ["tt_typ"]})
        row = result["scenarios"]["tt_typ"]
        wns, tns = reference_row(make_design(), scenarios[0])
        assert row["wns_setup"] == wns
        assert row["tns_setup"] == tns
        assert result["sources"]["tt_typ"] == "full"

    def test_repeat_query_hits_cache(self, daemon_factory):
        daemon = daemon_factory()
        with client_for(daemon) as client:
            first = client.request("timing")
            again = client.request("timing")
        assert set(first["sources"].values()) == {"full"}
        assert set(again["sources"].values()) == {"cache"}
        assert first["scenarios"] == again["scenarios"]

    def test_signoff_merges_scenarios(self, daemon_factory):
        daemon = daemon_factory()
        with client_for(daemon) as client:
            result = client.request("signoff")
        rows = result["scenarios"]
        assert set(rows) == {"tt_typ", "ss_cw"}
        wns_values = [rows[n]["wns_setup"] for n in rows]
        assert result["merged_wns_setup"] == min(wns_values)
        assert rows[result["worst_scenario"]]["wns_setup"] == \
            result["merged_wns_setup"]

    def test_histogram_and_paths(self, daemon_factory):
        by_engine = {}
        for engine in ENGINES:
            daemon = daemon_factory(config=DaemonConfig(
                workers=2, queue_limit=32, engine=engine))
            with client_for(daemon) as client:
                histogram = client.request(
                    "histogram", {"scenario": "tt_typ", "bins": 6}
                )
                paths = client.request(
                    "paths", {"scenario": "tt_typ", "count": 2}
                )
            assert histogram["endpoints"] > 0
            assert isinstance(histogram["histogram"], str)
            assert 1 <= len(paths["paths"]) <= 2
            for path in paths["paths"]:
                assert path["stages"] >= 1
                assert isinstance(path["render"], str)
            # Paths come worst-first.
            slacks = [p["slack"] for p in paths["paths"]]
            assert slacks == sorted(slacks)
            by_engine[engine] = paths
        # The vector run leaves backpointers behind: same paths.
        assert by_engine["vector"] == by_engine["reference"]

    def test_unknown_scenario_is_bad_request(self, daemon_factory):
        daemon = daemon_factory()
        with client_for(daemon) as client:
            with pytest.raises(ServeError) as info:
                client.request("timing", {"scenarios": ["ff_nonexistent"]})
        assert info.value.code == "E_BAD_REQUEST"
        assert not info.value.retryable


class TestSessions:
    def test_eco_isolated_per_session_and_discardable(self, daemon_factory,
                                                      scenarios):
        design = make_design()
        daemon = daemon_factory(design=design)
        # Upsize every NAND2_X1 in the block: guaranteed to move timing.
        targets = sorted(n for n, i in design.instances.items()
                         if i.cell_name.startswith("NAND2_X1"))
        edits = [{"kind": "set_cell", "target": n, "value": "NAND2_X4_SVT"}
                 for n in targets]
        with client_for(daemon) as client:
            baseline = client.request("timing")["scenarios"]
            sid = client.request("open_session")["session"]
            other = client.request("open_session")["session"]
            applied = client.request("apply_eco", {"edits": edits},
                                     session=sid)
            assert applied["applied"] == len(edits)
            assert applied["edited_instances"] == targets
            assert not applied["topology_changed"]

            edited = client.request("timing", session=sid)
            assert edited["design"].endswith(f"@{sid}")
            assert edited["scenarios"] != baseline
            # The other session and the shared context never see it.
            assert client.request("timing", session=other)["scenarios"] \
                == baseline
            assert client.request("timing")["scenarios"] == baseline

            # Single-client reference: the same resize applied directly.
            ref_design = make_design()
            for name in targets:
                ref_design.instances[name].cell_name = "NAND2_X4_SVT"
            wns, tns = reference_row(ref_design, scenarios[0])
            assert edited["scenarios"]["tt_typ"]["wns_setup"] == wns
            assert edited["scenarios"]["tt_typ"]["tns_setup"] == tns

            discarded = client.request("discard", session=sid)
            assert discarded["discarded"] == len(edits)
            assert client.request("timing", session=sid)["scenarios"] \
                == baseline

    def test_bad_eco_is_bad_request_and_session_survives(self,
                                                         daemon_factory):
        design = make_design()
        daemon = daemon_factory(design=design)
        target = nand2_instance(design)
        with client_for(daemon) as client:
            sid = client.request("open_session")["session"]
            # Unknown cell: no scenario library can honor the swap.
            with pytest.raises(ServeError) as info:
                client.request("apply_eco", {"edits": [
                    {"kind": "set_cell", "target": target,
                     "value": "NAND2_X512_SVT"},
                ]}, session=sid)
            assert info.value.code == "E_BAD_REQUEST"
            # Footprint change: rejected up front, not at first retime.
            with pytest.raises(ServeError) as info:
                client.request("apply_eco", {"edits": [
                    {"kind": "set_cell", "target": target,
                     "value": "INV_X1_SVT"},
                ]}, session=sid)
            assert "footprint" in str(info.value)
            # Nothing committed, session fully usable, nobody quarantined.
            result = client.request("timing", session=sid)
            assert result["version"] == 0
        assert daemon.quarantines == 0

    def test_retimes_after_an_eco_keep_each_others_reports(
            self, daemon_factory):
        """Content keys alone decide validity: one scenario's retime
        after an ECO leaves the report another just stored in place."""
        design = make_design()
        daemon = daemon_factory(design=design)
        edit = {"kind": "set_cell", "target": nand2_instance(design),
                "value": "NAND2_X4_SVT"}
        with client_for(daemon) as client:
            sid = client.request("open_session")["session"]
            client.request("timing", session=sid)  # builds both timers
            client.request("apply_eco", {"edits": [edit]}, session=sid)
            first = client.request("timing", session=sid)
            misses = client.request("stats")["cache"]["misses"]
            second = client.request("timing", session=sid)
            stats = client.request("stats")
        assert first["sources"] == {"tt_typ": "incremental",
                                    "ss_cw": "incremental"}
        assert second["sources"] == {"tt_typ": "cache", "ss_cw": "cache"}
        assert stats["cache"]["misses"] == misses
        assert second["scenarios"] == first["scenarios"]

    def test_apply_eco_requires_session(self, daemon_factory):
        daemon = daemon_factory()
        with client_for(daemon) as client:
            with pytest.raises(ServeError) as info:
                client.request("apply_eco", {"edits": [
                    {"kind": "add_cap", "target": "n0", "value": 5.0},
                ]})
        assert info.value.code == "E_BAD_REQUEST"

    def test_closed_session_is_gone(self, daemon_factory):
        daemon = daemon_factory()
        with client_for(daemon) as client:
            sid = client.request("open_session")["session"]
            client.request("close_session", session=sid)
            with pytest.raises(ServeError) as info:
                client.request("timing", session=sid)
        assert info.value.code == "E_NO_SESSION"


class TestNumericParams:
    @pytest.mark.parametrize("op,name,value", [
        ("paths", "count", "x"),
        ("paths", "count", -1),
        ("paths", "count", 2.5),
        ("paths", "count", True),
        ("histogram", "bins", 0),
        ("histogram", "bins", "x"),
        ("ssta", "samples", "many"),
        ("ssta", "top", "x"),
        ("ssta", "rho", 5.0),
        ("ssta", "rho", -3.0),
        ("ssta", "rho", "x"),
        ("ssta", "seed", "x"),
        ("ssta", "seed", -1),
        ("ssta", "target_yield", "x"),
        ("ssta", "target_yield", 1.5),
        ("ssta", "tune_range", "x"),
        ("ssta", "max_buffers", "x"),
        ("timing", "deadline_s", "soon"),
        ("timing", "deadline_s", -1.0),
    ])
    def test_malformed_number_is_bad_request(self, daemon_factory, op, name,
                                             value):
        """A malformed number is the client's fault: E_BAD_REQUEST before
        any work, no retry, no quarantine, and the session (or the
        shared context) keeps answering."""
        daemon = daemon_factory()
        params = {"scenario": "tt_typ", "samples": 64, name: value}
        with client_for(daemon) as client:
            sid = client.request("open_session")["session"]
            for session in (sid, None):
                with pytest.raises(ServeError) as info:
                    client.request(op, params, session=session)
                assert info.value.code == "E_BAD_REQUEST"
                assert not info.value.retryable
                assert name in str(info.value)
                assert daemon.quarantines == 0
                assert client.request("timing", session=session)["scenarios"]


class TestBackpressure:
    def test_expired_deadline_rejected_before_work(self, daemon_factory):
        daemon = daemon_factory()
        with client_for(daemon) as client:
            with pytest.raises(ServeError) as info:
                client.request("timing", deadline_s=0.0)
        assert info.value.code == "E_DEADLINE"
        assert info.value.retryable

    def test_overload_sheds_with_structured_error(self, daemon_factory,
                                                  scenarios):
        # One worker, one queue slot, and every request pinned down by
        # an injected 0.4 s hang: a pipelined burst must shed.
        injector = FaultInjector(FaultPlan.of(
            Fault("hang", task="*", seconds=0.4)
        ))
        daemon = daemon_factory(
            config=DaemonConfig(workers=1, queue_limit=1),
            fault_injector=injector,
        )
        frames = [protocol.encode({
            "v": 1, "id": f"b-{i}", "op": "timing",
            "params": {"scenarios": ["tt_typ"]},
        }) for i in range(8)]
        responses = raw_exchange(daemon.port, frames, expected=8,
                                 timeout=60.0)
        assert len(responses) == 8  # every request answered, none hung
        shed = [r for r in responses if not r["ok"]
                and r["error"]["code"] == "E_OVERLOADED"]
        ok = [r for r in responses if r["ok"]]
        assert shed, "burst should have shed at least one request"
        assert ok, "burst should have completed at least one request"
        assert all(r["error"]["retryable"] for r in shed)
        assert daemon.admission.stats()["shed"] == len(shed)

    def test_dead_client_does_not_wedge_daemon(self, daemon_factory):
        daemon = daemon_factory()
        sock = socket.create_connection(("127.0.0.1", daemon.port))
        sock.sendall(protocol.encode(
            {"v": 1, "id": "dead", "op": "timing"}
        ))
        sock.close()  # gone before the response lands
        time.sleep(0.1)
        with client_for(daemon) as client:
            assert client.request("ping")["pong"] is True

    def test_oversize_frame_rejected_and_dropped(self, daemon_factory):
        daemon = daemon_factory()
        sock = socket.create_connection(("127.0.0.1", daemon.port))
        try:
            sock.sendall(b"x" * (protocol.MAX_LINE_BYTES + 2))
            buffer = b""
            sock.settimeout(30.0)
            while b"\n" not in buffer:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                buffer += chunk
            response = json.loads(buffer.split(b"\n", 1)[0])
            assert response["ok"] is False
            assert response["error"]["code"] == "E_BAD_REQUEST"
            # The connection is dropped afterwards: framing is gone.
            assert sock.recv(65536) == b""
        finally:
            sock.close()

    def test_malformed_control_request_keeps_the_connection(
            self, daemon_factory, monkeypatch):
        daemon = daemon_factory()
        frames = [
            json.dumps({"id": 1, "op": "open_session",
                        "params": {"session_id": ["x"]}}).encode() + b"\n",
            json.dumps({"id": 2, "op": "discard",
                        "params": {"session_id": 7}}).encode() + b"\n",
            json.dumps({"id": 3, "op": "ping"}).encode() + b"\n",
        ]
        responses = raw_exchange(daemon.port, frames, expected=3)
        assert [r["id"] for r in responses] == [1, 2, 3]
        for bad in responses[:2]:
            assert not bad["ok"]
            assert bad["error"]["code"] == "E_BAD_REQUEST"
        assert responses[2]["result"]["pong"] is True

        # Any other failure of a control op is answered and counted.
        def broken(session_id):
            raise RuntimeError("session table broke")

        monkeypatch.setattr(daemon.sessions, "close", broken)
        registry = metrics.MetricsRegistry()
        previous = metrics.set_default_registry(registry)
        try:
            responses = raw_exchange(daemon.port, [
                json.dumps({"id": 4, "op": "close_session",
                            "session": "s-1"}).encode() + b"\n",
                json.dumps({"id": 5, "op": "ping"}).encode() + b"\n",
            ], expected=2)
        finally:
            metrics.set_default_registry(previous)
        assert responses[0]["error"]["code"] == "E_INTERNAL"
        assert "session table broke" in responses[0]["error"]["message"]
        assert responses[1]["result"]["pong"] is True
        assert registry.counter("serve.internal_errors").value == 1

    def test_unparseable_line_gets_null_id_error(self, daemon_factory):
        daemon = daemon_factory()
        responses = raw_exchange(daemon.port, [b"{broken json\n"],
                                 expected=1)
        assert responses[0]["ok"] is False
        assert responses[0]["id"] is None


class TestFaultContainment:
    def test_transient_crash_absorbed_by_retry(self, daemon_factory):
        injector = FaultInjector(FaultPlan.of(
            Fault("crash", task="tt_typ")  # attempt 1 only
        ))
        daemon = daemon_factory(
            config=DaemonConfig(workers=2, retries=1),
            fault_injector=injector,
        )
        with client_for(daemon) as client:
            result = client.request("timing", {"scenarios": ["tt_typ"]})
        assert result["sources"]["tt_typ"] == "full"
        assert daemon.failures == 0
        assert daemon.quarantines == 0

    def test_persistent_crash_quarantines_only_that_session(
            self, daemon_factory):
        injector = FaultInjector(FaultPlan.of(
            Fault("crash", task="tt_typ", attempts=(1, 2))
        ))
        daemon = daemon_factory(
            config=DaemonConfig(workers=2, retries=1),
            fault_injector=injector,
        )
        with client_for(daemon) as client:
            sid = client.request("open_session")["session"]
            other = client.request("open_session")["session"]
            with pytest.raises(ServeError) as info:
                client.request("timing", {"scenarios": ["tt_typ"]},
                               session=sid)
            assert info.value.code == "E_QUARANTINED"
            assert not info.value.retryable
            # Every further query on the poisoned session answers the
            # same way, even for a healthy scenario...
            with pytest.raises(ServeError) as info:
                client.request("timing", {"scenarios": ["ss_cw"]},
                               session=sid)
            assert info.value.code == "E_QUARANTINED"
            # ...while other sessions and the daemon itself keep serving.
            ok = client.request("timing", {"scenarios": ["ss_cw"]},
                                session=other)
            assert ok["scenarios"]["ss_cw"]["wns_setup"] is not None
            # Discard is the recovery path: it lifts the quarantine.
            client.request("discard", session=sid)
            recovered = client.request("timing", {"scenarios": ["ss_cw"]},
                                       session=sid)
            assert recovered["scenarios"] == ok["scenarios"]
        assert daemon.quarantines == 1

    def test_shared_context_resets_instead_of_quarantining(
            self, daemon_factory):
        injector = FaultInjector(FaultPlan.of(
            Fault("crash", task="tt_typ", attempts=tuple(range(1, 33)))
        ))
        daemon = daemon_factory(
            config=DaemonConfig(workers=2, retries=0),
            fault_injector=injector,
        )
        with client_for(daemon) as client:
            with pytest.raises(ServeError) as info:
                client.request("timing", {"scenarios": ["tt_typ"]})
            assert info.value.code == "E_UNAVAILABLE"
            assert info.value.retryable
            # The shared context was reset, not killed: healthy
            # scenarios still answer for every anonymous client.
            result = client.request("timing", {"scenarios": ["ss_cw"]})
            assert result["scenarios"]["ss_cw"]["wns_setup"] is not None

    def test_hang_times_out_as_retryable_deadline(self, daemon_factory):
        injector = FaultInjector(FaultPlan.of(
            Fault("hang", task="tt_typ", seconds=2.0, attempts=(1, 2))
        ))
        daemon = daemon_factory(
            config=DaemonConfig(workers=2, retries=1, timeout_s=0.2),
            fault_injector=injector,
        )
        with client_for(daemon) as client:
            with pytest.raises(ServeError) as info:
                client.request("timing", {"scenarios": ["tt_typ"]})
            assert info.value.code == "E_DEADLINE"
            assert info.value.retryable
            # The abandoned zombie can't poison later queries: the
            # session swapped in fresh runtime objects.
            result = client.request("timing", {"scenarios": ["ss_cw"]})
            assert result["scenarios"]["ss_cw"]["wns_setup"] is not None

    def test_kernel_compile_failure_falls_back_and_traces(
            self, daemon_factory, scenarios):
        self._check_kernel_fallback(daemon_factory, scenarios,
                                    timeout_s=None)

    def test_kernel_compile_fallback_traces_under_timeout(
            self, daemon_factory, scenarios):
        self._check_kernel_fallback(daemon_factory, scenarios,
                                    timeout_s=30.0)

    @staticmethod
    def _check_kernel_fallback(daemon_factory, scenarios, timeout_s):
        injector = FaultInjector(FaultPlan.of(
            Fault("kernel_compile", task="tt_typ")
        ))
        daemon = daemon_factory(
            config=DaemonConfig(workers=2, engine="vector",
                                timeout_s=timeout_s),
            fault_injector=injector,
        )
        tracer = tracing.Tracer()
        tracing.set_default_tracer(tracer)
        try:
            with client_for(daemon) as client:
                result = client.request("timing")
        finally:
            tracing.set_default_tracer(None)
        # Degraded scenario still answers, and bit-identically to the
        # reference path it fell back to.
        wns, tns = reference_row(make_design(), scenarios[0])
        assert result["scenarios"]["tt_typ"]["wns_setup"] == wns
        assert result["scenarios"]["tt_typ"]["tns_setup"] == tns
        names = [span.name for span in tracer.spans()]
        assert "kernel_fallback" in names
        # Handler spans nest under their request, also when the attempt
        # ran in a timeout-bounded thread.
        assert [span.name for span in tracer.spans()
                if span.parent_id is None] == ["serve_request"]
        summary = summarize(chrome_trace(tracer.spans())["traceEvents"])
        assert summary.degraded_scenarios == ["tt_typ"]
        assert "tt_typ" in summary.render()


class TestDaemonConfig:
    @pytest.mark.parametrize("settings", [
        {"timeout_s": 0}, {"timeout_s": -1}, {"retries": -1},
    ])
    def test_invalid_retry_settings_are_refused(self, settings):
        with pytest.raises(TimingError):
            DaemonConfig(**settings)


class TestLifecycleAndStats:
    def test_stats_counters(self, daemon_factory):
        daemon = daemon_factory()
        with client_for(daemon) as client:
            client.request("timing")
            sid = client.request("open_session")["session"]
            client.request("timing", session=sid)
            # done() bookkeeping lands just after the response is sent;
            # poll briefly rather than racing it.
            deadline = time.monotonic() + 5.0
            while True:
                stats = client.request("stats")
                if stats["admission"]["completed"] >= 2 \
                        or time.monotonic() > deadline:
                    break
                time.sleep(0.02)
        assert stats["requests"] >= 2
        assert stats["admission"]["admitted"] >= 2
        assert stats["admission"]["completed"] >= 2
        assert stats["sessions"]["active"] == 1
        assert stats["cache"]["entries"] >= 2
        assert stats["timers"]["builds"] >= 2

    def test_shutdown_op(self, daemon_factory):
        daemon = daemon_factory()
        with client_for(daemon) as client:
            assert client.request("shutdown")["stopping"] is True
        deadline = time.monotonic() + 10.0
        while not daemon._stopping and time.monotonic() < deadline:
            time.sleep(0.02)
        assert daemon._stopping

    def test_warm_restart_prewarms_cache_and_restores_sessions(
            self, daemon_factory, scenarios, tmp_path):
        path = tmp_path / "serve.journal"
        design = make_design()
        target = nand2_instance(design)
        daemon = daemon_factory(design=design,
                                journal=RunJournal(path))
        with client_for(daemon) as client:
            sid = client.request("open_session")["session"]
            client.request("apply_eco", {"edits": [
                {"kind": "set_cell", "target": target,
                 "value": "NAND2_X2_SVT"},
            ]}, session=sid)
            before = client.request("timing", session=sid)
        daemon.stop()

        restarted = daemon_factory(design=make_design(),
                                   journal=RunJournal(path))
        assert restarted.prewarmed >= 1
        assert restarted.sessions.restored == 1
        with client_for(restarted) as client:
            stats = client.request("stats")
            assert stats["journal"]["restored_sessions"] == 1
            after = client.request("timing", session=sid)
        # Replayed overlay reproduces the content fingerprint: the very
        # first post-restart query is a cache hit with identical numbers.
        assert set(after["sources"].values()) == {"cache"}
        assert after["scenarios"] == before["scenarios"]
