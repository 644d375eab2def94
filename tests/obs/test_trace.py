"""Span lifecycle tests: nesting, exception paths, sinks, summaries."""

import io
import json

import pytest

from repro import obs
from repro.obs.trace import (
    JsonLinesSink,
    MemorySink,
    Tracer,
    load_trace,
    summarize_spans,
)


def _tracer_with_memory():
    tracer = Tracer()
    sink = MemorySink()
    tracer.add_sink(sink)
    return tracer, sink


class TestSpanLifecycle:
    def test_inactive_tracer_hands_out_none(self):
        assert Tracer().start("client.call") is None

    def test_nesting_links_parent_and_trace_ids(self):
        tracer, sink = _tracer_with_memory()
        root = tracer.start("client.call", xid=7)
        child = root.child("client.send", attempt=1)
        grandchild = child.child("deeper")
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert child.trace_id == root.span_id
        assert grandchild.trace_id == root.span_id
        grandchild.end()
        child.end()
        root.end()
        names = [r["name"] for r in sink.records]
        assert names == ["deeper", "client.send", "client.call"]
        record = sink.records[1]
        assert record["parent"] == root.span_id
        assert record["trace"] == root.span_id
        assert record["attempt"] == 1
        assert record["dur_us"] >= 0

    def test_end_is_idempotent(self):
        tracer, sink = _tracer_with_memory()
        span = tracer.start("client.call")
        span.end(outcome="ok")
        span.end(outcome="changed")
        assert len(sink.records) == 1
        assert sink.records[0]["outcome"] == "ok"

    def test_exception_closes_span_with_error(self):
        tracer, sink = _tracer_with_memory()
        with pytest.raises(ValueError):
            with tracer.start("client.call") as span:
                with span.child("client.encode"):
                    raise ValueError("boom")
        assert len(sink.records) == 2
        inner, outer = sink.records
        assert inner["name"] == "client.encode"
        assert inner["outcome"] == "error"
        assert inner["error"] == "ValueError"
        assert outer["outcome"] == "error"

    def test_explicit_outcome_survives_exception_exit(self):
        tracer, sink = _tracer_with_memory()
        with pytest.raises(RuntimeError):
            with tracer.start("client.call") as span:
                span.add(outcome="timeout")
                raise RuntimeError
        assert sink.records[0]["outcome"] == "timeout"

    def test_add_attaches_late_fields(self):
        tracer, sink = _tracer_with_memory()
        span = tracer.start("server.dispatch")
        span.add(xid=42, tier="staged")
        span.end()
        assert sink.records[0]["xid"] == 42
        assert sink.records[0]["tier"] == "staged"


class TestSinks:
    def test_jsonlines_sink_roundtrips_through_load_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer()
        tracer.add_sink(JsonLinesSink(str(path)))
        root = tracer.start("client.call", xid=1)
        root.child("client.send").end()
        root.end()
        tracer.clear_sinks()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)  # every line is one valid JSON object
        records = load_trace(str(path))
        assert [r["name"] for r in records] == ["client.send",
                                                "client.call"]

    def test_jsonlines_sink_leaves_caller_files_open(self):
        buffer = io.StringIO()
        sink = JsonLinesSink(buffer)
        sink.emit({"name": "x"})
        sink.close()
        assert not buffer.closed
        assert json.loads(buffer.getvalue()) == {"name": "x"}

    def test_fanout_to_multiple_sinks(self):
        tracer = Tracer()
        a, b = MemorySink(), MemorySink()
        tracer.add_sink(a)
        tracer.add_sink(b)
        tracer.start("client.call").end()
        assert len(a) == len(b) == 1

    def test_obs_enable_disable_manage_sinks(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = obs.enable(trace_file=str(path))
        assert obs.enabled
        assert sink in obs.tracer.sinks
        obs.span("client.call").end()
        obs.disable()
        assert not obs.enabled
        assert obs.tracer.sinks == []
        assert len(load_trace(str(path))) == 1

    def test_metrics_only_mode_builds_no_spans(self):
        obs.enable()
        assert obs.span("client.call") is None
        obs.disable()


class TestSummaries:
    def test_summarize_spans_aggregates_by_name(self):
        records = [
            {"name": "client.send", "dur_us": 10.0},
            {"name": "client.send", "dur_us": 30.0},
            {"name": "client.wait", "dur_us": 100.0},
        ]
        summary = summarize_spans(records)
        assert list(summary) == ["client.wait", "client.send"]
        assert summary["client.send"] == {
            "count": 2, "total_us": 40.0, "avg_us": 20.0, "max_us": 30.0,
        }
