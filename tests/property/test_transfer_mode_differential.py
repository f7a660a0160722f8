"""Differential testing of steady-state transfer coalescing.

``coalesced`` mode must be *bit-identical* to ``per_batch`` mode in
every observable: transfer finish times, per-link byte accounting, and
the telemetry stream.  Each seeded workload runs once per mode and is
compared with ``==`` (no tolerances), mirroring the allocator
differential suite from the incremental-allocator PR.

Telemetry comparison normalizes two representational degrees of
freedom that carry no information:

* flow/transfer ids are process-global counters, so they depend on how
  many objects earlier runs created — ids are renumbered;
* a macro-flow publishes its per-batch decomposition when it resolves,
  so virtual events appear *late in publication order* with correct
  virtual timestamps (``t``) — consumers key on ``t``, and the streams
  are compared in virtual-time order.  A ``FlowFinished`` carries only
  its flow id, so it is compared with its ``FlowStarted``'s fields
  joined in, which is what consumers join on too.

The renumbering happens *after* the time-sort so both modes see the
same first-occurrence order.  Arrival instants are drawn from
continuous distributions: landing exactly on a batch-boundary float is
a measure-zero event where same-timestamp heap ordering may differ
between modes (documented caveat; final times still agree).

On top of the engine-level sweep, the paper's experiment surfaces are
pinned: raw put/get probes on all four data planes, the Fig. 13 and
Fig. 14 harnesses, and the ``repro profile`` blame decomposition.
"""

import math
import random

import pytest

from repro.common.units import GB, MB
from repro.net import FlowNetwork, Link, LinkKind, Path, TransferEngine
from repro.sim import Container, Environment
from repro.telemetry import capture
from repro.telemetry.bus import EventBus
from repro.telemetry.events import FlowFinished, FlowStarted

N_SEEDS = 30

_ID_KEYS = ("flow_id", "transfer_id", "component")
_JOINED = ("tag", "size", "links", "src", "dst", "owner")


def normalize_stream(events) -> list[dict]:
    """Canonical form of a telemetry stream for cross-mode comparison."""
    raw = []
    started: dict = {}
    for event in events:
        d = event._asdict()
        d["_type"] = type(event).__name__
        if type(event) is FlowStarted:
            started[event.flow_id] = event
        elif type(event) is FlowFinished:
            start = started[event.flow_id]
            d.update({key: getattr(start, key) for key in _JOINED})
            d["started_at"] = start.t
        raw.append(d)

    def masked(d):
        return sorted(
            (k, repr(v)) for k, v in d.items() if k not in _ID_KEYS
        )

    raw.sort(key=lambda d: (d["t"], d["_type"], masked(d)))
    flow_ids: dict = {}
    transfer_ids: dict = {}
    out = []
    for d in raw:
        d = dict(d)
        if "flow_id" in d:
            d["flow_id"] = flow_ids.setdefault(d["flow_id"], len(flow_ids))
        if "transfer_id" in d:
            d["transfer_id"] = transfer_ids.setdefault(
                d["transfer_id"], len(transfer_ids)
            )
        if "component" in d:
            d["component"] = tuple(
                flow_ids.setdefault(x, len(flow_ids)) for x in d["component"]
            )
        out.append(d)
    return out


def _storm_links() -> list[Link]:
    links = [
        Link(link_id=f"l{i}", src=f"s{i}", dst="host",
             capacity=(10 + 2 * i) * GB, kind=LinkKind.PCIE)
        for i in range(4)
    ]
    links.append(Link(link_id="nic", src="host", dst="peer",
                      capacity=8 * GB, kind=LinkKind.NIC))
    return links


def _make_workload(seed: int) -> list[dict]:
    """Concurrent chunked transfers with pinned pools and bare flows."""
    rng = random.Random(seed)
    specs = []
    for index in range(rng.randint(3, 7)):
        path_kind = rng.random()
        if path_kind < 0.6:
            path_ids = (rng.randrange(4),)
        elif path_kind < 0.85:
            path_ids = (rng.randrange(4), 4)  # two-hop through the NIC
        else:
            path_ids = ((rng.randrange(4),), (4,))  # multi-path
        specs.append({
            "index": index,
            "start": rng.uniform(0.0, 0.02),
            "path_ids": path_ids,
            "size": rng.choice([8, 24, 64, 96]) * MB * rng.uniform(0.7, 1.3),
            "pinned": rng.random() < 0.4,
            "bare_flow": rng.random() < 0.25,
            "slo_deadline": (
                rng.uniform(0.05, 0.4) if rng.random() < 0.5 else None
            ),
        })
    return specs


def _replay(specs, mode: str, policy: str, allocator: str) -> dict:
    env = Environment()
    bus = EventBus()
    env.telemetry = bus
    recorded = []
    bus.subscribe(None, recorded.append)
    net = FlowNetwork(env, policy=policy, allocator=allocator)
    links = _storm_links()
    engine = TransferEngine(
        env, net, chunk_size=2 * MB, batch_chunks=5, batch_setup=20e-6,
        mode=mode,
    )
    pool = Container(env, capacity=12 * MB, init=12 * MB)
    finished: dict[int, float] = {}

    def to_paths(path_ids):
        if isinstance(path_ids[0], tuple):
            return [Path(tuple(links[i] for i in ids)) for ids in path_ids]
        return [Path(tuple(links[i] for i in path_ids))]

    def starter(spec):
        yield env.timeout(spec["start"])
        paths = to_paths(spec["path_ids"])
        if spec["bare_flow"]:
            flow = net.start_flow(
                paths[0].links, spec["size"],
                slo_deadline=spec["slo_deadline"], tag=str(spec["index"]),
            )
            yield flow.done
        else:
            yield engine.transfer(
                paths, spec["size"],
                slo_deadline=spec["slo_deadline"],
                pinned_buffer=pool if spec["pinned"] else None,
                tag=str(spec["index"]),
            )
        finished[spec["index"]] = env.now

    for spec in specs:
        env.process(starter(spec))
    env.run()
    return {
        "finished": finished,
        "end": env.now,
        "bytes": {l.link_id: net.bytes_carried(l) for l in links},
        "pool_level": pool.level,
        "events": normalize_stream(recorded),
    }


@pytest.mark.parametrize("policy", ["maxmin", "slo_gated"])
@pytest.mark.parametrize("allocator", ["incremental", "fullscan"])
def test_coalesced_matches_per_batch_bit_exactly(policy, allocator):
    mismatches = []
    for seed in range(N_SEEDS):
        specs = _make_workload(seed)
        a = _replay(specs, "coalesced", policy, allocator)
        b = _replay(specs, "per_batch", policy, allocator)
        if a != b:
            mismatches.append(seed)
    assert not mismatches, (
        f"coalesced diverged from per_batch for {policy}/{allocator} "
        f"seeds {mismatches[:10]} ({len(mismatches)}/{N_SEEDS})"
    )


def test_coalesced_uses_fewer_flows():
    """The point of the fast path: same observables, fewer DES objects."""
    env_counts = {}
    for mode in ("coalesced", "per_batch"):
        env = Environment()
        net = FlowNetwork(env)
        engine = TransferEngine(env, net, mode=mode)
        path = Path((Link(link_id="p", src="a", dst="b",
                          capacity=16 * GB, kind=LinkKind.PCIE),))
        engine.transfer([path], 1 * GB)
        env.run()
        env_counts[mode] = net.flows_started
    assert env_counts["coalesced"] == 1
    assert env_counts["per_batch"] == math.ceil(GB / (10 * MB))


# -- experiment-surface differentials ----------------------------------------

def _plane_probe(plane_name: str, mode: str, monkeypatch, size) -> dict:
    from repro.experiments.fig13 import _measure

    monkeypatch.setenv("REPRO_NET_TRANSFER", mode)
    with capture() as session:
        total = _measure(plane_name, "intra", size, "dgx-v100")
    return {"total": total, "events": normalize_stream(
        e for _run, e in session.events
    )}


@pytest.mark.parametrize(
    "plane", ["infless+", "nvshmem+", "deepplan+", "grouter"]
)
def test_put_get_bit_identical_on_every_plane(plane, monkeypatch):
    for size in (4 * MB, 64 * MB):
        a = _plane_probe(plane, "coalesced", monkeypatch, size)
        b = _plane_probe(plane, "per_batch", monkeypatch, size)
        assert a == b, f"{plane} diverged at {size} bytes"


def _fig13_rows(mode: str, monkeypatch):
    from repro.experiments import fig13

    monkeypatch.setenv("REPRO_NET_TRANSFER", mode)
    table = fig13.run_pattern("inter", sizes_mb=(16, 64), trials=1)
    return table.rows


def test_fig13_outputs_bit_identical(monkeypatch):
    assert _fig13_rows("coalesced", monkeypatch) == \
        _fig13_rows("per_batch", monkeypatch)


def _fig14_rows(mode: str, monkeypatch):
    from repro.experiments import fig14

    monkeypatch.setenv("REPRO_NET_TRANSFER", mode)
    table = fig14.run(
        preset="dgx-v100", workflows=("traffic",), duration=3.0,
    )
    return table.rows


def test_fig14_outputs_bit_identical(monkeypatch):
    assert _fig14_rows("coalesced", monkeypatch) == \
        _fig14_rows("per_batch", monkeypatch)


def _profile_blame(mode: str, monkeypatch) -> dict:
    from repro.experiments.harness import run_workload_on_plane
    from repro.telemetry.profiler import build_profiles, extract_critical_path
    from repro.workflow import get_workload

    monkeypatch.setenv("REPRO_NET_TRANSFER", mode)
    with capture() as session:
        _tb, results, _wl = run_workload_on_plane(
            "grouter", "traffic", duration=2.0, rate=5.0, seed=3,
        )
    latencies = {r.request_id: r.latency for r in results}
    (builder,) = build_profiles(session.events).values()
    workflow = get_workload("traffic").workflow
    blames = {}
    for tree in builder.completed:
        path = extract_critical_path(tree, workflow)
        assert path.verify(latencies[tree.request_id]), (
            f"{mode}: inexact blame tiling for {tree.request_id}"
        )
        blames[tree.request_id] = dict(path.blame)
    assert blames
    return blames


def test_profile_blame_exact_and_identical_across_modes(monkeypatch):
    # The macro-flow's virtual decomposition must leave `repro profile`
    # an exact tiling, with bit-identical blame per request.
    assert _profile_blame("coalesced", monkeypatch) == \
        _profile_blame("per_batch", monkeypatch)
