"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import IdGenerator
from repro.memory.elastic import FunctionHistogram
from repro.memory.eviction import EvictionCandidate, LruPolicy, QueueAwarePolicy
from repro.net import FlowNetwork, Link, LinkKind
from repro.sim import Environment
from repro.topology import make_cluster, nvlink_simple_paths
from repro.traces import TraceConfig, generate_arrivals

# -- simulation kernel ---------------------------------------------------------


class TestKernelProperties:
    @given(delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20,
    ))
    @settings(max_examples=50, deadline=None)
    def test_timeouts_fire_in_time_order(self, delays):
        env = Environment()
        fired = []
        for delay in delays:
            def proc(d=delay):
                yield env.timeout(d)
                fired.append(env.now)

            env.process(proc())
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(delays=st.lists(
        st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=10,
    ))
    @settings(max_examples=50, deadline=None)
    def test_sequential_timeouts_accumulate_exactly(self, delays):
        env = Environment()
        finish = []

        def proc():
            for delay in delays:
                yield env.timeout(delay)
            finish.append(env.now)

        env.process(proc())
        env.run()
        assert finish[0] == pytest.approx(sum(delays))


# -- flow network ----------------------------------------------------------------

flow_sizes = st.lists(
    st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=8,
)


class TestFlowNetworkProperties:
    @given(sizes=flow_sizes)
    @settings(max_examples=40, deadline=None)
    def test_link_capacity_never_exceeded(self, sizes):
        env = Environment()
        net = FlowNetwork(env)
        link = Link("l", "a", "b", capacity=100.0, kind=LinkKind.NVLINK)
        flows = [net.start_flow([link], size) for size in sizes]
        # Immediately after admission, allocated rate respects capacity.
        assert net.allocated_on(link) <= 100.0 + 1e-6
        env.run()
        for flow in flows:
            assert flow.done.ok

    @given(sizes=flow_sizes)
    @settings(max_examples=40, deadline=None)
    def test_work_conservation_on_single_link(self, sizes):
        # All flows share one link: total completion time equals the
        # time to drain all bytes at link capacity.
        env = Environment()
        net = FlowNetwork(env)
        link = Link("l", "a", "b", capacity=50.0, kind=LinkKind.PCIE)
        flows = [net.start_flow([link], size) for size in sizes]
        env.run()
        last = max(f.done.value.finished_at for f in flows)
        assert last == pytest.approx(sum(sizes) / 50.0, rel=1e-6)

    @given(
        sizes=flow_sizes,
        reservations=st.lists(
            st.floats(min_value=0.0, max_value=40.0), min_size=1, max_size=8,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_flow_eventually_completes(self, sizes, reservations):
        env = Environment()
        net = FlowNetwork(env)
        link = Link("l", "a", "b", capacity=100.0, kind=LinkKind.NIC)
        flows = [
            net.start_flow([link], size, min_rate=reservations[i % len(reservations)])
            for i, size in enumerate(sizes)
        ]
        env.run()
        for flow in flows:
            assert flow.done.triggered and flow.done.ok
            stats = flow.done.value
            # No flow beats the physics of the link.
            assert stats.duration >= stats.size / 100.0 - 1e-9


# -- eviction policies --------------------------------------------------------------

candidates_strategy = st.lists(
    st.builds(
        EvictionCandidate,
        object_id=st.uuids().map(str),
        size=st.floats(min_value=1.0, max_value=1e6),
        last_access=st.floats(min_value=0.0, max_value=1e4),
        queue_position=st.one_of(
            st.none(), st.integers(min_value=0, max_value=50)
        ),
        pinned=st.booleans(),
    ),
    min_size=0,
    max_size=20,
    unique_by=lambda c: c.object_id,
)


class TestEvictionProperties:
    @given(candidates=candidates_strategy,
           needed=st.floats(min_value=0.0, max_value=5e6))
    @settings(max_examples=80, deadline=None)
    def test_selection_covers_needed_or_exhausts(self, candidates, needed):
        for policy in (LruPolicy(), QueueAwarePolicy()):
            victims = policy.select(candidates, needed)
            unpinned = [c for c in candidates if not c.pinned]
            total = sum(v.size for v in victims)
            if total < needed:
                # Ran out of unpinned candidates.
                assert len(victims) == len(unpinned)
            assert all(not v.pinned for v in victims)
            # No duplicates.
            assert len({v.object_id for v in victims}) == len(victims)

    @given(candidates=candidates_strategy)
    @settings(max_examples=80, deadline=None)
    def test_queue_aware_rank_orders_unqueued_first(self, candidates):
        ranked = QueueAwarePolicy().rank(candidates)
        seen_queued = False
        for candidate in ranked:
            if candidate.queue_position is not None:
                seen_queued = True
            elif seen_queued:
                pytest.fail("unqueued candidate ranked after queued one")

    @given(candidates=candidates_strategy)
    @settings(max_examples=80, deadline=None)
    def test_queue_aware_evicts_deepest_first(self, candidates):
        queued = [c for c in candidates if c.queue_position is not None]
        ranked = [
            c for c in QueueAwarePolicy().rank(candidates)
            if c.queue_position is not None
        ]
        positions = [c.queue_position for c in ranked]
        assert positions == sorted(positions, reverse=True)
        assert len(ranked) == len(queued)


# -- histograms -------------------------------------------------------------------


class TestHistogramProperties:
    @given(times=st.lists(
        st.floats(min_value=0.0, max_value=1e4), min_size=2, max_size=50,
    ))
    @settings(max_examples=60, deadline=None)
    def test_window_bounded_by_max_gap(self, times):
        ordered = sorted(times)
        hist = FunctionHistogram()
        for t in ordered:
            hist.observe_arrival(t)
        gaps = [b - a for a, b in zip(ordered, ordered[1:])]
        assert hist.r_window <= max(gaps) + 1e-9
        assert hist.r_window >= 0

    @given(sizes=st.lists(
        st.floats(min_value=1.0, max_value=1e9), min_size=1, max_size=50,
    ))
    @settings(max_examples=60, deadline=None)
    def test_r_size_within_observed_range(self, sizes):
        hist = FunctionHistogram()
        for size in sizes:
            hist.observe_put(size)
        assert min(sizes) - 1e-6 <= hist.r_size <= max(sizes) + 1e-6

    @given(
        history=st.sampled_from([1, 2, 7, 512]),
        percentile=st.one_of(
            st.sampled_from([0.0, 50.0, 99.0, 100.0]),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["arrive", "put", "put", "consume"]),
                # A small pool of values makes duplicates common.
                st.one_of(
                    st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e6, 2.5e9]),
                    st.floats(min_value=0.0, max_value=1e10),
                ),
            ),
            min_size=1,
            max_size=40,
        ),
        repeat=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_percentiles_bit_exact_with_numpy(
        self, history, percentile, ops, repeat
    ):
        hist = FunctionHistogram(history=history, percentile=percentile)
        now = 0.0
        for step, (op, value) in enumerate(ops * repeat):
            if op == "arrive":
                now += value
                hist.observe_arrival(now)
            elif op == "put":
                hist.observe_put(value)
            else:
                hist.observe_consume()
            if step % 7 and step != len(ops) * repeat - 1:
                continue
            for got, series in (
                (hist.r_window, hist.intervals),
                (hist.r_size, hist.sizes),
                (hist.r_con, hist.concurrency),
            ):
                if series:
                    want = float(np.percentile(list(series), percentile))
                    assert repr(got) == repr(want), (list(series), percentile)
        assert len(hist.sizes) <= history

    @given(
        arrival=st.floats(min_value=0.0, max_value=100.0),
        gap=st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_reservation_zero_after_window(self, arrival, gap):
        hist = FunctionHistogram()
        hist.observe_arrival(arrival)
        hist.observe_arrival(arrival + gap)
        hist.observe_put(100.0)
        # Window ~= gap: reservation lapses strictly after it.
        assert hist.reservation(arrival + gap + hist.r_window + 1e-6) == 0.0


# -- traces --------------------------------------------------------------------


class TestTraceProperties:
    @given(
        pattern=st.sampled_from(["sporadic", "periodic", "bursty"]),
        rate=st.floats(min_value=0.5, max_value=50.0),
        duration=st.floats(min_value=1.0, max_value=60.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_arrivals_sorted_and_in_range(self, pattern, rate, duration, seed):
        config = TraceConfig(
            pattern=pattern, rate=rate, duration=duration, seed=seed
        )
        arrivals = generate_arrivals(config)
        assert np.all(np.diff(arrivals) >= 0)
        if arrivals.size:
            assert arrivals[0] >= 0.0
            assert arrivals[-1] <= duration

    @given(
        pattern=st.sampled_from(["sporadic", "periodic", "bursty"]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_deterministic_per_seed(self, pattern, seed):
        config = TraceConfig(
            pattern=pattern, rate=5.0, duration=20.0, seed=seed
        )
        first = generate_arrivals(config)
        second = generate_arrivals(config)
        assert np.array_equal(first, second)


# -- topology ------------------------------------------------------------------


class TestTopologyProperties:
    @given(
        a=st.integers(min_value=0, max_value=7),
        b=st.integers(min_value=0, max_value=7),
        max_hops=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_nvlink_paths_loop_free_and_continuous(self, a, b, max_hops):
        if a == b:
            return
        cluster = make_cluster("dgx-v100")
        node = cluster.nodes[0]
        for path in nvlink_simple_paths(node, node.gpu(a), node.gpu(b),
                                        max_hops=max_hops):
            devices = path.devices()
            assert devices[0] == node.gpu(a).device_id
            assert devices[-1] == node.gpu(b).device_id
            assert len(devices) == len(set(devices))  # loop-free
            assert path.hops <= max_hops


# -- ids -------------------------------------------------------------------------


class TestIdProperties:
    @given(prefixes=st.lists(
        st.sampled_from(["data", "req", "fn"]), min_size=1, max_size=50,
    ))
    @settings(max_examples=50, deadline=None)
    def test_ids_unique_and_deterministic(self, prefixes):
        gen_a, gen_b = IdGenerator(), IdGenerator()
        ids_a = [gen_a.next(p) for p in prefixes]
        ids_b = [gen_b.next(p) for p in prefixes]
        assert ids_a == ids_b
        assert len(set(ids_a)) == len(ids_a)
