"""Tests for the hierarchical span tracer."""

import pickle
import threading

from repro.obs import tracing
from repro.obs.tracing import NULL_SPAN, NullSpan, Tracer


class TestSpanTree:
    def test_nesting_records_parent_links(self):
        tracer = Tracer()
        with tracer.span("signoff") as root:
            with tracer.span("scenario", corner="ss") as child:
                with tracer.span("sta_run") as grandchild:
                    pass
        spans = tracer.spans()
        assert [s.name for s in spans] == ["signoff", "scenario", "sta_run"]
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert child.attrs == {"corner": "ss"}

    def test_ids_are_deterministic_and_sequential(self):
        def record(tracer):
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
            with tracer.span("c"):
                pass

        first, second = Tracer(), Tracer()
        record(first)
        record(second)
        assert [(s.span_id, s.parent_id, s.name) for s in first.spans()] == \
            [(s.span_id, s.parent_id, s.name) for s in second.spans()]
        assert [s.span_id for s in first.spans()] == [1, 2, 3]

    def test_durations_are_monotonic_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans()
        assert outer.duration_s >= inner.duration_s >= 0.0
        assert outer.start_s <= inner.start_s
        assert outer.end_s >= inner.end_s

    def test_exception_closes_span_and_tags_error(self):
        tracer = Tracer()
        try:
            with tracer.span("doomed"):
                raise ValueError("boom")
        except ValueError:
            pass
        (span_obj,) = tracer.spans()
        assert span_obj.attrs["error"] == "ValueError"
        assert span_obj.duration_s >= 0.0
        assert tracer.current_span_id() is None  # stack is clean

    def test_set_attaches_attrs_mid_span(self):
        tracer = Tracer()
        with tracer.span("retime_cone", edited=3) as span_obj:
            span_obj.set(cone=17)
        assert tracer.spans()[0].attrs == {"edited": 3, "cone": 17}

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        done = threading.Event()

        def worker():
            with tracer.span("worker_root"):
                done.set()

        with tracer.span("main_root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        by_name = {s.name: s for s in tracer.spans()}
        # The worker's root must NOT be parented under main's span.
        assert by_name["worker_root"].parent_id is None
        assert by_name["main_root"].parent_id is None
        assert done.is_set()


class TestIngest:
    def test_ingest_renumbers_and_reparents(self):
        worker = Tracer()
        with worker.span("scenario"):
            with worker.span("sta_run"):
                pass
        parent = Tracer()
        with parent.span("signoff") as root:
            pass
        adopted = parent.ingest(worker.spans(), parent_id=root.span_id)
        by_name = {s.name: s for s in parent.spans()}
        assert by_name["scenario"].parent_id == root.span_id
        assert by_name["sta_run"].parent_id == by_name["scenario"].span_id
        # New ids continue the parent tracer's sequence.
        assert {s.span_id for s in adopted} == {2, 3}

    def test_ingest_is_deterministic_across_orderings(self):
        def one_worker(name):
            tracer = Tracer()
            with tracer.span(name):
                pass
            return tracer.spans()

        a, b = one_worker("alpha"), one_worker("beta")
        first, second = Tracer(), Tracer()
        for target in (first, second):
            target.ingest(a)
            target.ingest(b)
        assert [(s.span_id, s.name) for s in first.spans()] == \
            [(s.span_id, s.name) for s in second.spans()]

    def test_spans_survive_pickling(self):
        tracer = Tracer()
        with tracer.span("scenario", corner="ss_720mv"):
            pass
        blob = pickle.dumps(tracer.spans())
        restored = pickle.loads(blob)
        target = Tracer()
        adopted = target.ingest(restored, parent_id=None)
        assert adopted[0].name == "scenario"
        assert adopted[0].attrs == {"corner": "ss_720mv"}


class TestActiveTracerProtocol:
    def test_disabled_span_is_shared_noop(self):
        assert tracing.active_tracer() is None
        span_obj = tracing.span("anything", key="value")
        assert span_obj is NULL_SPAN
        with span_obj as inner:
            inner.set(more="attrs")
        assert isinstance(span_obj, NullSpan)
        assert span_obj.attrs == {}

    def test_use_installs_and_restores(self):
        tracer = Tracer()
        assert tracing.active_tracer() is None
        with tracing.use(tracer):
            assert tracing.active_tracer() is tracer
            with tracing.span("live"):
                pass
        assert tracing.active_tracer() is None
        assert [s.name for s in tracer.spans()] == ["live"]

    def test_use_none_masks_process_default(self):
        tracer = Tracer()
        previous = tracing.set_default_tracer(tracer)
        try:
            assert tracing.active_tracer() is tracer
            with tracing.use(None):
                assert tracing.active_tracer() is None
                assert tracing.span("hidden") is NULL_SPAN
            assert tracing.active_tracer() is tracer
        finally:
            tracing.set_default_tracer(previous)

    def test_use_nests(self):
        outer, inner = Tracer(), Tracer()
        with tracing.use(outer):
            with tracing.use(inner):
                assert tracing.active_tracer() is inner
            assert tracing.active_tracer() is outer

    def test_thread_local_override_does_not_leak_across_threads(self):
        tracer = Tracer()
        seen = {}

        def probe():
            seen["other_thread"] = tracing.active_tracer()

        with tracing.use(tracer):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["other_thread"] is None

    def test_clear_and_len(self):
        tracer = Tracer()
        with tracer.span("one"):
            pass
        assert len(tracer) == 1
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.spans() == []
