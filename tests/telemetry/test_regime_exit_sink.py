"""Mid-run telemetry attach under a live streaming sink.

Attaching telemetry mid-run is the harshest disturbance macro-flow
coalescing handles: every in-flight macro-flow must publish its elapsed
batches as virtual-timestamp events — while a :class:`JsonlEventSink`
is spooling the stream to disk.  Nothing about the attach may perturb a
single observable float.
"""

from repro.common.units import GB, MB
from repro.net import FlowNetwork, Link, LinkKind, Path, TransferEngine
from repro.sim import Environment
from repro.telemetry.session import TelemetrySession
from repro.telemetry.sinks import JsonlEventSink, iter_jsonl_events

ATTACH_AT = 0.01


def _links():
    gpu0 = Link(link_id="gpu0", src="g0", dst="host",
                capacity=4 * GB, kind=LinkKind.PCIE)
    gpu1 = Link(link_id="gpu1", src="g1", dst="host",
                capacity=6 * GB, kind=LinkKind.PCIE)
    nic = Link(link_id="nic", src="host", dst="net",
               capacity=8 * GB, kind=LinkKind.NIC)
    mlink = Link(link_id="mlink", src="m", dst="host",
                 capacity=1 * GB, kind=LinkKind.PCIE)
    return gpu0, gpu1, nic, mlink


def _run(sink_path=None):
    """Shared-NIC flows + in-flight macro transfer; optionally attach a
    session with a JSONL sink mid-run.  Returns the observables."""
    env = Environment()
    net = FlowNetwork(env)
    engine = TransferEngine(env, net, chunk_size=2 * MB, batch_chunks=5,
                            batch_setup=20e-6, mode="coalesced")
    gpu0, gpu1, nic, mlink = _links()
    fins = {}
    session = None

    def starter(tag, path, size, delay):
        yield env.timeout(delay)
        flow = net.start_flow(path, size)
        yield flow.done
        fins[tag] = repr(env.now)

    def transferrer():
        yield engine.transfer([Path((mlink,))], 64 * MB, tag="macro")
        fins["macro"] = repr(env.now)

    def attacher():
        nonlocal session
        yield env.timeout(ATTACH_AT)
        if sink_path is not None:
            session = TelemetrySession(sinks=[JsonlEventSink(sink_path)])
            session.attach(env)
        # A post-attach arrival on the shared NIC's component.
        yield env.timeout(0.001)
        flow = net.start_flow([gpu0, nic], 12 * MB)
        yield flow.done
        fins["late"] = repr(env.now)

    env.process(starter("a", [gpu0, nic], 48 * MB, 0.0))
    env.process(starter("b", [gpu1, nic], 64 * MB, 0.001))
    env.process(transferrer())
    env.process(attacher())
    env.run()
    if session is not None:
        session.close()
    return fins, repr(env.now)


def test_midrun_attach_leaves_observables_untouched(tmp_path):
    with_sink = _run(sink_path=tmp_path / "events.jsonl")
    without = _run(sink_path=None)
    assert with_sink == without
    assert len(with_sink[0]) == 4


def test_streaming_sink_carries_virtual_macro_replay(tmp_path):
    spool = tmp_path / "events.jsonl"
    _run(sink_path=spool)
    events = [event for _run_id, event in iter_jsonl_events(spool)]
    assert events

    # The macro-flow resolved after the attach and published its
    # elapsed batches as virtual per-batch events: FlowStarted records
    # with timestamps *before* the bus existed.
    starts = [e for e in events if type(e).__name__ == "FlowStarted"]
    assert any(e.t < ATTACH_AT for e in starts), (
        "macro-flow published no virtual-timestamp batches"
    )
    # Virtual replay is ordered within the macro's own stream: the
    # publication may interleave with live events, but consumers key
    # on t — the macro's batch timestamps must be non-decreasing.
    macro_ts = [e.t for e in starts if e.t < ATTACH_AT]
    assert macro_ts == sorted(macro_ts)

    # Both populations of finishes reach the spool: the macro's
    # virtual per-batch finishes (timestamps before the attach) and
    # the live post-attach completions.
    finishes = [e for e in events if type(e).__name__ == "FlowFinished"]
    assert any(e.t < ATTACH_AT for e in finishes)
    assert any(e.t >= ATTACH_AT for e in finishes)
