"""Differential testing of the incremental allocator.

The ``incremental`` allocator (BFS component scoping + lazy progress +
timer elision) must be *bit-identical* to the retained ``fullscan``
reference, which re-derives every component from scratch with a
union-find sweep on each event but shares the same lazy semantics.
Each seeded workload is replayed under both allocators and every
observable — finish times, cancel outcomes, mid-run rate probes, and
the reallocation/elision counters — is compared with ``==`` (no
tolerances).

200+ seeds per policy, exercising mixed ``min_rate`` / ``rate_cap`` /
``slo_deadline`` flows and mid-flight cancels on a DGX-style topology
(per-GPU PCIe uplinks into two switch groups, shared host links, NIC).

A hypothesis test also compares the incremental allocator's one-flow
closed form with the general fill, which ``fullscan`` always runs, by
``repr`` of the rate.

On top of the engine-level sweeps, whole runs are pinned: the Fig. 13
and Fig. 14 harnesses, the profiler's blame decomposition, and a
bursty request stream on every data plane must produce the same
numbers under ``REPRO_NET_ALLOCATOR=fullscan`` as under the default.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.units import GB, MB
from repro.net import FlowNetwork, Link, LinkKind
from repro.net.network import Flow
from repro.sim import Environment
from repro.telemetry import capture

N_SEEDS = 200


def _dgx_links() -> list[Link]:
    """A DGX-flavoured PCIe tree: 8 GPUs, 2 switch groups, host, NIC."""
    links = []
    for g in range(8):
        links.append(Link(
            link_id=f"gpu{g}.up", src=f"gpu{g}", dst=f"sw{g // 4}",
            capacity=12 * GB, kind=LinkKind.PCIE,
        ))
    for s in range(2):
        links.append(Link(
            link_id=f"sw{s}.host", src=f"sw{s}", dst="host",
            capacity=16 * GB, kind=LinkKind.PCIE,
        ))
    links.append(Link(
        link_id="host.nic", src="host", dst="nic",
        capacity=10 * GB, kind=LinkKind.NIC,
    ))
    return links


def _path_choices(links: list[Link]) -> list[tuple[int, ...]]:
    """Candidate paths as index tuples into the link list.

    gpu->sw (1 hop), gpu->sw->host (2 hops), gpu->sw->host->nic
    (3 hops), sw->host (1 hop), host->nic (1 hop).
    """
    choices: list[tuple[int, ...]] = []
    for g in range(8):
        sw_host = 8 + g // 4
        choices.append((g,))
        choices.append((g, sw_host))
        choices.append((g, sw_host, 10))
    choices.append((8,))
    choices.append((9,))
    choices.append((10,))
    return choices


def _make_workload(seed: int, policy: str) -> list[dict]:
    """A deterministic flow schedule: starts (+ optional cancels)."""
    rng = random.Random(seed)
    paths = _path_choices(_dgx_links())
    specs = []
    for index in range(rng.randint(4, 16)):
        start = round(rng.uniform(0.0, 0.4), 6)
        spec = {
            "index": index,
            "start": start,
            "path": rng.choice(paths),
            "size": rng.choice([2, 8, 32, 128]) * MB * rng.uniform(0.5, 1.5),
            "min_rate": rng.choice([0.0, 0.0, 1 * GB, 4 * GB]),
            "rate_cap": rng.choice(
                [float("inf"), float("inf"), 6 * GB, 2 * GB]
            ),
            "slo_deadline": None,
            "cancel_at": None,
        }
        if policy == "slo_gated" and rng.random() < 0.6:
            spec["slo_deadline"] = start + rng.uniform(0.01, 0.8)
        if rng.random() < 0.15:
            spec["cancel_at"] = start + rng.uniform(0.001, 0.1)
        specs.append(spec)
    return specs


def _replay(specs: list[dict], policy: str, allocator: str) -> dict:
    """Run one workload under *allocator*; return every observable."""
    env = Environment()
    net = FlowNetwork(env, policy=policy, allocator=allocator)
    links = _dgx_links()
    outcome: dict[int, object] = {}
    probes: list[tuple[int, float]] = []

    def starter(spec):
        yield env.timeout(spec["start"])
        flow = net.start_flow(
            [links[i] for i in spec["path"]],
            spec["size"],
            min_rate=spec["min_rate"],
            rate_cap=spec["rate_cap"],
            slo_deadline=spec["slo_deadline"],
            tag=str(spec["index"]),
        )
        spec["flow"] = flow
        try:
            yield flow.done
            outcome[spec["index"]] = ("finished", env.now)
        except Exception:
            outcome[spec["index"]] = ("cancelled", env.now)

    def canceller(spec):
        yield env.timeout(spec["cancel_at"])
        flow = spec.get("flow")
        if flow is not None and not flow.done.triggered:
            net.cancel_flow(flow)

    def prober():
        # Sample all active rates mid-run: catches divergence that
        # happens to converge again by finish time.
        for _ in range(5):
            yield env.timeout(0.013)
            for spec in specs:
                flow = spec.get("flow")
                if flow is not None and not flow.done.triggered:
                    probes.append((spec["index"], flow.rate))

    for spec in specs:
        env.process(starter(spec))
        if spec["cancel_at"] is not None:
            env.process(canceller(spec))
    env.process(prober())
    env.run()
    return {
        "outcome": outcome,
        "probes": probes,
        "realloc_count": net.realloc_count,
        "realloc_flows": net.realloc_flows,
        "timer_reschedules": net.timer_reschedules,
        "timer_elisions": net.timer_elisions,
        "end": env.now,
    }


@pytest.mark.parametrize("policy", ["maxmin", "slo_gated"])
def test_incremental_matches_fullscan_bit_exactly(policy):
    mismatches = []
    for seed in range(N_SEEDS):
        specs_a = _make_workload(seed, policy)
        specs_b = _make_workload(seed, policy)
        a = _replay(specs_a, policy, "incremental")
        b = _replay(specs_b, policy, "fullscan")
        if a != b:
            mismatches.append(seed)
    assert not mismatches, (
        f"incremental diverged from fullscan reference for {policy} "
        f"seeds {mismatches[:10]} ({len(mismatches)}/{N_SEEDS})"
    )


def _make_clean_workload(seed: int) -> list[dict]:
    """All-clean flows (no reservations/caps) with merge/split churn
    from multi-hop paths and mid-flight cancels."""
    rng = random.Random(seed * 2654435761 % (1 << 31))
    paths = _path_choices(_dgx_links())
    # Fan-in flows on the shared NIC keep events landing in one
    # established component, with multi-link departures splitting it.
    specs = []
    for index in range(rng.randint(6, 24)):
        # Tight arrival window + sizes that outlast it: components
        # stay populated across consecutive events.
        start = round(rng.uniform(0.0, 0.12), 6)
        spec = {
            "index": index,
            "start": start,
            "path": (10,) if rng.random() < 0.55 else rng.choice(paths),
            "size": rng.choice([8, 32, 128]) * MB * rng.uniform(0.5, 1.5),
            "min_rate": 0.0,
            "rate_cap": float("inf"),
            "slo_deadline": None,
            "cancel_at": None,
        }
        if rng.random() < 0.25:
            spec["cancel_at"] = start + rng.uniform(0.001, 0.15)
        specs.append(spec)
    return specs


def test_clean_churn_matches_fullscan_bit_exactly():
    """Clean fan-in churn: every observable ``==`` the fullscan oracle."""
    mismatches = []
    for seed in range(N_SEEDS):
        specs_a = _make_clean_workload(seed)
        specs_b = _make_clean_workload(seed)
        a = _replay(specs_a, "maxmin", "incremental")
        b = _replay(specs_b, "maxmin", "fullscan")
        if a != b:
            mismatches.append(seed)
    assert not mismatches, (
        f"incremental diverged from fullscan on clean churn for seeds "
        f"{mismatches[:10]} ({len(mismatches)}/{N_SEEDS})"
    )


# -- experiment-surface differentials ----------------------------------------

def _fig13_rows(allocator: str, monkeypatch):
    from repro.experiments import fig13

    monkeypatch.setenv("REPRO_NET_ALLOCATOR", allocator)
    table = fig13.run_pattern("inter", sizes_mb=(16, 64), trials=1)
    return table.rows


def test_fig13_outputs_bit_identical(monkeypatch):
    assert _fig13_rows("fullscan", monkeypatch) == \
        _fig13_rows("incremental", monkeypatch)


def _fig14_rows(allocator: str, monkeypatch):
    from repro.experiments import fig14

    monkeypatch.setenv("REPRO_NET_ALLOCATOR", allocator)
    table = fig14.run(
        preset="dgx-v100", workflows=("traffic",), duration=3.0,
    )
    return table.rows


def test_fig14_outputs_bit_identical(monkeypatch):
    assert _fig14_rows("fullscan", monkeypatch) == \
        _fig14_rows("incremental", monkeypatch)


def _profile_blame(allocator: str, monkeypatch) -> dict:
    from repro.experiments.harness import run_workload_on_plane
    from repro.telemetry.profiler import build_profiles, extract_critical_path
    from repro.workflow import get_workload

    monkeypatch.setenv("REPRO_NET_ALLOCATOR", allocator)
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
            f"{allocator}: inexact blame tiling for {tree.request_id}"
        )
        blames[tree.request_id] = dict(path.blame)
    assert blames
    return blames


def test_profile_blame_identical_with_profiler_attached(monkeypatch):
    assert _profile_blame("fullscan", monkeypatch) == \
        _profile_blame("incremental", monkeypatch)


def _stream_outcomes(plane: str, allocator: str, monkeypatch) -> list:
    """Per-request ``(id, latency, data_time)`` of a bursty stream."""
    from repro.platform import build_platform
    from repro.traces import stream_trace
    from repro.workflow import get_workload

    monkeypatch.setenv("REPRO_NET_ALLOCATOR", allocator)
    outcomes: list = []
    platform = build_platform(
        preset="dgx-v100",
        plane_name=plane,
        result_sink=lambda r: outcomes.append(
            (r.request_id, r.latency, r.data_time)
        ),
        keep_results=False,
    )
    assert platform.plane.network.allocator == allocator
    deployment = platform.deploy(get_workload("video"), seed=0, replicas=2)
    trace = stream_trace("bursty", rate=4.0, duration=170.0, seed=0,
                         limit=200)
    platform.run_trace_streaming(deployment, trace)
    return outcomes


@pytest.mark.parametrize(
    "plane", ["grouter", "infless+", "nvshmem+", "deepplan+"]
)
def test_platform_stream_matches_fullscan(plane, monkeypatch):
    ours = _stream_outcomes(plane, "incremental", monkeypatch)
    ref = _stream_outcomes(plane, "fullscan", monkeypatch)
    assert len(ours) == len(ref) == 200
    for got, want in zip(ours, ref):
        assert got == want, (
            f"{plane}: request {want[0]} diverged: "
            f"incremental {got!r} vs fullscan {want!r}"
        )


# -- one-flow closed form ------------------------------------------------------

_NOW = 5.0


@st.composite
def _lone_flow_case(draw):
    """A lone flow's parameters, leaning on the fill's edge cases."""
    hops = draw(st.integers(min_value=1, max_value=4))
    scale = draw(st.sampled_from([1.0, GB]))
    caps = draw(st.lists(
        st.floats(min_value=1.0, max_value=1e3),
        min_size=hops, max_size=hops, unique=True,
    ))
    caps = [cap * scale for cap in caps]
    bottleneck = min(caps)
    min_rate = draw(st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-12, max_value=1e-6),  # tiny
        st.floats(min_value=1e-12, max_value=1.0).map(
            lambda x: bottleneck * (1.0 + x)),  # above capacity
        # Leaves the bottleneck a residual of at most _EPS (saturated).
        st.floats(min_value=0.0, max_value=1e-9).map(
            lambda x: max(bottleneck - x, 1e-12)),
        st.floats(min_value=1e-12, max_value=1.0).map(
            lambda x: bottleneck * x),
    ))
    rate_cap = draw(st.one_of(
        st.just(float("inf")),
        st.just(0.0),
        st.floats(min_value=1e-12, max_value=2.0).map(
            lambda x: bottleneck * x),
    ))
    size = draw(st.floats(min_value=1.0, max_value=1e3)) * scale
    remaining = size * draw(st.one_of(
        st.just(1.0), st.floats(min_value=1e-9, max_value=1.0),
    ))
    override = draw(st.one_of(
        st.none(), st.floats(min_value=_NOW, max_value=_NOW + 10.0),
    ))
    ref = _NOW if override is None else override
    slo_deadline = draw(st.one_of(
        st.none(),
        st.floats(min_value=1e-9, max_value=10.0).map(lambda x: ref - x),
        st.just(ref),
        st.floats(min_value=1e-9, max_value=10.0).map(lambda x: ref + x),
        st.just(ref + 1e-12),
    ))
    return caps, min_rate, rate_cap, size, remaining, slo_deadline, override


# Fixed cases that random floats rarely reach, each with a deadline 2 s
# after the reference instant (slack 1 s, so the SLO target rate equals
# ``remaining``): a top-up that ``t + (c - t)`` rounds away from ``c``; a
# top-up, at the ``now`` override, that leaves the bottleneck under
# _EPS, so max-min adds nothing; and a reservation that saturates the
# bottleneck, where the top-up is skipped (without and with the
# override).
@pytest.mark.parametrize("policy", ["maxmin", "slo_gated"])
@given(case=_lone_flow_case())
@example(case=([764.0108443576374], 0.0, float("inf"), 1e3,
               194.87550172465552, _NOW + 2.0, None))
@example(case=([10.0], 0.0, float("inf"), 100.0, 10.0 - 5e-10,
               _NOW + 3.0, _NOW + 1.0))
@example(case=([10.0, 20.0], 10.0 - 5e-10, float("inf"), 100.0, 100.0,
               _NOW + 2.0, None))
@example(case=([20.0, 10.0], 10.0 - 5e-10, 15.0, 100.0, 100.0,
               _NOW + 3.0, _NOW + 1.0))
@settings(max_examples=400, deadline=None)
def test_lone_flow_closed_form_matches_general_fill(policy, case):
    """The one-flow closed form reproduces the two-phase fill's floats."""
    caps, min_rate, rate_cap, size, remaining, slo_deadline, override = case
    env = Environment()
    env.run(until=_NOW)
    closed = FlowNetwork(env, policy=policy, allocator="incremental")
    general = FlowNetwork(env, policy=policy, allocator="fullscan")
    path = [
        Link(link_id=f"l{i}", src=f"n{i}", dst=f"n{i + 1}", capacity=cap,
             kind=LinkKind.PCIE)
        for i, cap in enumerate(caps)
    ]
    flow = Flow(env, path, size, min_rate=min_rate, rate_cap=rate_cap,
                slo_deadline=slo_deadline)
    flow.remaining = remaining
    links = {link.link_id: general.link_state(link) for link in path}
    want = general._compute_rates([flow], links, now=override)[flow]
    got = closed._lone_flow_rate(flow, override)
    assert repr(got) == repr(want)
    # The incremental allocator routes a lone flow to the closed form.
    routed = closed._compute_rates([flow], links, now=override)[flow]
    assert repr(routed) == repr(want)
