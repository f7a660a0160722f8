"""Streaming sinks: spool fidelity, replay oracle, crash-safety."""

import dataclasses
import gzip
import json
import shutil

import pytest

from repro.common.errors import ConfigError
from repro.dataplane import make_plane
from repro.platform import ServerlessPlatform
from repro.sim import Environment
from repro.telemetry import (
    ChromeStreamingSink,
    JsonlEventSink,
    TelemetrySession,
    capture,
    decode_event,
    encode_event,
    iter_jsonl_events,
    replay_metrics,
)
from repro.telemetry.events import (
    PlacementDecision,
    PoolAlloc,
    RequestFinished,
    StorePut,
)
from repro.telemetry.sinks import EVENT_TYPES, SCHEMA
from repro.topology import make_cluster
from repro.workflow import get_workload

# One value per field annotation in repro.telemetry.events: a float
# with a long repr, non-ASCII text, and tuples nested in tuples.
FIELD_SAMPLES = {
    "float": 0.1 + 0.2,
    "int": 7,
    "str": "n0:g1 \u00fc\u2192\u03bb",
    "bool": True,
    "Optional[bool]": False,
    "tuple[str, ...]": ("n0:g0->n0:g1", "nvlink-\u00e9"),
    "tuple[float, ...]": (0.1 + 0.2, 1e-300, 25e9),
    "tuple[int, ...]": (3, 1, 2),
    "tuple[tuple[str, str], ...]": (("det", "n0:g0"), ("rec", "n0:g1")),
}


def sample_event(cls):
    """An instance of *cls* with every field set from FIELD_SAMPLES."""
    return cls(**{f.name: FIELD_SAMPLES[f.type]
                  for f in dataclasses.fields(cls)})


def make_alloc(t):
    return PoolAlloc(t=t, device_id="n0:g0", size=1.0,
                     reserved=2.0, in_use=1.0, grew=False)


def write_lines(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))


def run_workflow(workload="driving"):
    env = Environment()
    cluster = make_cluster("dgx-v100")
    plane = make_plane("grouter", env, cluster)
    platform = ServerlessPlatform(env, cluster, plane)
    deployment = platform.deploy(get_workload(workload))
    proc = platform.submit(deployment)
    env.run()
    assert proc.ok
    return env, proc.value


@pytest.fixture(scope="module")
def spooled(tmp_path_factory):
    """One real run captured both in memory and through a JSONL sink."""
    path = tmp_path_factory.mktemp("spool") / "events.jsonl"
    sink = JsonlEventSink(path)
    session = TelemetrySession(sinks=[sink], keep_events=True)
    with capture(session=session):
        run_workflow()
    session.close()
    return path, session


class TestEncodeDecode:
    def test_round_trip_is_identity(self):
        event = StorePut(t=1.5, object_id="o1", device_id="n0:g1",
                         size=2048.0, placement="gpu")
        run, decoded = decode_event(
            json.loads(json.dumps(encode_event(3, event)))
        )
        assert run == 3
        assert decoded == event

    def test_nested_tuples_survive_json(self):
        event = PlacementDecision(
            t=0.5, policy="mapa", workflow="wf",
            assignment=(("det", "n0:g0"), ("rec", "n0:g1")),
        )
        _run, decoded = decode_event(
            json.loads(json.dumps(encode_event(0, event)))
        )
        assert decoded == event
        assert isinstance(decoded.assignment[0], tuple)

    def test_unknown_type_raises(self):
        with pytest.raises(ConfigError, match="unknown telemetry event"):
            decode_event([len(EVENT_TYPES), 0, 1.0])

    @pytest.mark.parametrize("name", ["events.jsonl", "events.jsonl.gz"])
    def test_every_event_type_round_trips_through_a_file(
        self, tmp_path, name
    ):
        assert "TelemetryEvent" in EVENT_TYPES  # the base class, only `t`
        events = [
            (run, sample_event(cls))
            for run in (0, 1)
            for cls in EVENT_TYPES.values()
        ]
        events.append((1, RequestFinished(
            t=2.0, request_id="req-1", workflow="wf", latency=0.5,
            slo_met=None,
        )))
        path = tmp_path / name
        with JsonlEventSink(path, flush_events=5) as sink:
            for run, event in events:
                sink.handle(run, event)
        replayed = list(iter_jsonl_events(path))
        assert replayed == events
        for got, want in zip(replayed, events):
            assert type(got[1]) is type(want[1])
            # repr tells tuples from lists, False from 0 and None apart.
            assert repr(got) == repr(want)


class TestJsonlSpoolFidelity:
    def test_spool_replays_to_identical_event_stream(self, spooled):
        path, session = spooled
        replayed = list(iter_jsonl_events(path))
        assert len(replayed) == len(session.events) > 0
        for (run_a, ev_a), (run_b, ev_b) in zip(replayed, session.events):
            assert run_a == run_b
            assert ev_a == ev_b

    def test_gzip_spool_replays_identically(self, tmp_path):
        plain = tmp_path / "events.jsonl"
        packed = tmp_path / "events.jsonl.gz"
        session = TelemetrySession(
            sinks=[JsonlEventSink(plain), JsonlEventSink(packed)]
        )
        with capture(session=session):
            run_workflow()
        session.close()
        assert list(iter_jsonl_events(plain)) == list(
            iter_jsonl_events(packed)
        )
        assert packed.stat().st_size < plain.stat().st_size

    def test_replay_reproduces_exact_summary(self, spooled):
        path, session = spooled
        assert replay_metrics(path, mode="exact").summary() == \
            session.metrics.summary()

    def test_replay_reproduces_bounded_summary(self, tmp_path):
        # Reservoir seeds derive from metric names, so a bounded replay
        # of the spool matches a live bounded registry bit-for-bit.
        path = tmp_path / "events.jsonl"
        session = TelemetrySession(
            sinks=[JsonlEventSink(path)], metrics_mode="bounded"
        )
        with capture(session=session):
            run_workflow()
        session.close()
        assert replay_metrics(path, mode="bounded").summary() == \
            session.metrics.summary()

    def test_exact_replay_bounds_bounded_replay(self, spooled):
        # Cross-mode: bounded quantiles stay within the documented rank
        # error of the exact oracle (checked properly per-distribution
        # in tests/metrics/test_approx_recorder.py; this is the
        # integration-level smoke of the same contract).
        path, session = spooled
        exact = session.metrics.summary()
        bounded = replay_metrics(path, mode="bounded").summary()
        assert set(exact) == set(bounded)
        for namespace, metrics in exact.items():
            assert set(metrics) == set(bounded[namespace])
            for short, stats in metrics.items():
                other = bounded[namespace][short]
                assert other["type"] == stats["type"]
                if stats["type"] == "counter":
                    assert other["value"] == stats["value"]
                elif stats["type"] == "histogram":
                    assert other["count"] == stats["count"]


class TestBuffering:
    def test_flush_on_event_count(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sink = JsonlEventSink(path, flush_events=3)
        for i in range(2):
            sink.handle(0, make_alloc(float(i)))
        assert sink.flushes == 0
        assert sink.records_written == 0
        sink.handle(0, make_alloc(2.0))
        assert sink.flushes == 1
        assert sink.records_written == 3
        sink.close()
        # One header line plus one line per batch; the byte count
        # includes the header.
        assert len(path.read_text().splitlines()) == 2
        assert sink.bytes_written == len(path.read_text())

    def test_flush_on_byte_threshold(self, tmp_path):
        sink = ChromeStreamingSink(
            tmp_path / "trace.json", flush_events=10_000, flush_bytes=64
        )
        sink.handle(0, make_alloc(0.0))
        assert sink.flushes == 1  # one record is already > 64 bytes
        sink.close()

    def test_close_is_idempotent_and_write_after_close_raises(
        self, tmp_path
    ):
        sink = JsonlEventSink(tmp_path / "e.jsonl")
        sink.handle(0, make_alloc(0.0))
        sink.close()
        sink.close()
        assert sink.closed
        with pytest.raises(ConfigError, match="closed"):
            sink.handle(0, make_alloc(1.0))

    def test_invalid_thresholds_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            JsonlEventSink(tmp_path / "e.jsonl", flush_events=0)
        with pytest.raises(ConfigError):
            ChromeStreamingSink(tmp_path / "trace.json", flush_bytes=0)


class TestSchemaHeader:
    def test_dict_per_line_spool_is_refused(self, tmp_path):
        path = tmp_path / "old.jsonl"
        write_lines(path, [
            {"run": 0, "type": "StorePut", "t": 1.5, "object_id": "o1",
             "device_id": "n0:g1", "size": 2048.0, "placement": "gpu"},
        ])
        with pytest.raises(ConfigError, match="old.jsonl has no"):
            list(iter_jsonl_events(path))

    def test_different_field_list_is_refused(self, tmp_path):
        header = json.loads(json.dumps(SCHEMA))
        index = [name for name, _fields in header["types"]].index("PoolAlloc")
        header["types"][index][1].pop()  # a spool from before a field
        path = tmp_path / "e.jsonl"
        write_lines(path, [header])
        with pytest.raises(ConfigError, match="e.jsonl .*'PoolAlloc'"):
            list(iter_jsonl_events(path))

    @pytest.mark.parametrize("name", ["e.jsonl", "e.jsonl.gz"])
    def test_empty_file_yields_no_events(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"")
        assert list(iter_jsonl_events(path)) == []


class TestCrashSafety:
    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with JsonlEventSink(path, flush_events=3) as sink:
            for i in range(5):
                sink.handle(0, make_alloc(float(i)))
        text = path.read_text()
        path.write_text(text[: len(text) - 9])  # kill the last batch
        replayed = list(iter_jsonl_events(path))
        assert [event.t for _run, event in replayed] == [0.0, 1.0, 2.0]

    def test_unclosed_gzip_spool_replays_flushed_batches(self, tmp_path):
        # The writer dies without close(): each flush sync-flushed whole
        # lines, but the gzip end-of-stream marker was never written.
        path = tmp_path / "e.jsonl.gz"
        crashed = tmp_path / "crashed.jsonl.gz"
        sink = JsonlEventSink(path, flush_events=2)
        for i in range(5):
            sink.handle(0, make_alloc(float(i)))
        shutil.copyfile(path, crashed)
        sink.close()
        with pytest.raises(EOFError), gzip.open(crashed, "rt") as handle:
            handle.read()
        replayed = list(iter_jsonl_events(crashed))
        assert [event.t for _run, event in replayed] == [0.0, 1.0, 2.0, 3.0]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with JsonlEventSink(path, flush_events=1) as sink:
            for i in range(5):
                sink.handle(0, make_alloc(float(i)))
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(json.JSONDecodeError):
            list(iter_jsonl_events(path))

    def test_unclosed_chrome_spool_is_loadable(self, tmp_path):
        # The Array Format contract: viewers accept a missing `]`, so
        # appending one must yield valid JSON even without close().
        path = tmp_path / "trace.json"
        sink = ChromeStreamingSink(path)
        with capture(sinks=[sink]) as session:
            run_workflow()
        # capture() closed the sink; simulate the crashed variant too.
        crashed = tmp_path / "crashed.json"
        sink2 = ChromeStreamingSink(crashed)
        sink2.handle(0, make_alloc(0.0))
        sink2.flush()  # process dies here: no terminator written
        body = crashed.read_text().rstrip().rstrip(",")
        events = json.loads(body + "]")
        assert events
        assert session.run_count == 1


class TestChromeStreaming:
    def test_streamed_trace_is_valid_and_named(self, tmp_path):
        path = tmp_path / "trace.json"
        with capture(sinks=[ChromeStreamingSink(path)]):
            run_workflow()
        doc = json.loads(path.read_text())
        phases = {record["ph"] for record in doc}
        assert "M" in phases  # process_name metadata finalized
        pids = {r["pid"] for r in doc if r["ph"] != "M"}
        assert all(pid.startswith("run0:") for pid in pids)

    def test_single_run_mode_matches_batch_exporter_pids(self, tmp_path):
        path = tmp_path / "trace.json"
        with capture(sinks=[ChromeStreamingSink(path, multi_run=False)]):
            run_workflow()
        doc = json.loads(path.read_text())
        assert not any(
            r["pid"].startswith("run0:") for r in doc if r["ph"] != "M"
        )


class TestSessionStreaming:
    def test_streaming_session_drops_in_memory_events(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with capture(sinks=[JsonlEventSink(path)]) as session:
            run_workflow()
        assert session.events == []
        spooled = list(iter_jsonl_events(path))
        assert session.events_seen == len(spooled) > 0

    def test_streaming_session_refuses_batch_export(self, tmp_path):
        with capture(sinks=[JsonlEventSink(tmp_path / "e.jsonl")]) as s:
            run_workflow()
        with pytest.raises(ConfigError, match="streamed its events"):
            s.export_chrome_trace()

    def test_capture_closes_own_sinks_on_crash(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sink = JsonlEventSink(path)
        with pytest.raises(RuntimeError, match="boom"):
            with capture(sinks=[sink]):
                run_workflow()
                raise RuntimeError("boom")
        assert sink.closed
        assert list(iter_jsonl_events(path))  # fully flushed

    def test_caller_owned_session_is_flushed_not_closed(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sink = JsonlEventSink(path)
        session = TelemetrySession(sinks=[sink])
        with capture(session=session):
            run_workflow()
        assert not sink.closed
        # Flushed: every event is already on disk while the sink is open.
        assert session.events_seen == len(list(iter_jsonl_events(path))) > 0
        session.close()

    def test_session_and_sink_kwargs_are_exclusive(self, tmp_path):
        session = TelemetrySession()
        with pytest.raises(ConfigError, match="not both"):
            with capture(session=session,
                         sinks=[JsonlEventSink(tmp_path / "e.jsonl")]):
                pass


class TestGaugeClampUnderStreaming:
    def test_multi_run_replay_keeps_clock_restart_clamped(self, tmp_path):
        # Two runs in one spool: the second run's timestamps restart at
        # zero, so the replaying registry's gauges see time go backwards
        # at the run boundary — the clamp must hold exactly as it does
        # live (tests/telemetry/test_metrics_registry.py).
        path = tmp_path / "e.jsonl"
        session = TelemetrySession(
            sinks=[JsonlEventSink(path)], keep_events=True
        )
        with capture(session=session):
            run_workflow()
            run_workflow()
        session.close()
        replayed = replay_metrics(path, mode="exact")
        saw_gauge = False
        for name in replayed.names():
            metric = replayed.get(name)
            timeline = getattr(metric, "timeline", None)
            if timeline is None:
                continue
            saw_gauge = True
            assert timeline.times == sorted(timeline.times), name
        assert saw_gauge
        assert replayed.summary() == session.metrics.summary()
