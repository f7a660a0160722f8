"""Tests for the chunked multi-path transfer engine."""

import pytest

from repro.common.errors import SimulationError
from repro.common.units import GB, MB
from repro.net import FlowNetwork, Link, LinkKind, Path, TransferEngine
from repro.sim import Container, Environment


def link(link_id, src, dst, capacity, kind=LinkKind.NVLINK, latency=0.0):
    return Link(
        link_id=link_id, src=src, dst=dst, capacity=capacity, kind=kind,
        latency=latency,
    )


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    return FlowNetwork(env)


@pytest.fixture
def engine(env, net):
    # Zero setup latency by default: timing assertions stay exact.
    return TransferEngine(env, net, batch_setup=0.0)


class TestPath:
    def test_path_validates_continuity(self):
        l1 = link("a", "x", "y", 10.0)
        l2 = link("b", "z", "w", 10.0)
        with pytest.raises(SimulationError):
            Path((l1, l2))

    def test_path_properties(self):
        l1 = link("a", "x", "y", 10.0, latency=0.5)
        l2 = link("b", "y", "z", 4.0, latency=0.25)
        path = Path((l1, l2))
        assert path.src == "x"
        assert path.dst == "z"
        assert path.nominal_bandwidth == 4.0
        assert path.propagation_latency == 0.75
        assert path.hops == 2
        assert path.devices() == ["x", "y", "z"]

    def test_empty_path_rejected(self):
        with pytest.raises(SimulationError):
            Path(())


class TestSinglePath:
    def test_unchunked_transfer_time(self, env, net, engine):
        path = Path((link("l", "a", "b", 100.0),))
        proc = engine.transfer([path], size=1000.0, chunked=False)
        env.run()
        result = proc.value
        assert result.finished_at == pytest.approx(10.0)
        assert result.effective_bandwidth == pytest.approx(100.0)

    def test_chunked_equals_unchunked_without_setup(self, env, net, engine):
        path = Path((link("l", "a", "b", 100.0),))
        proc = engine.transfer([path], size=1000.0, chunked=True)
        env.run()
        assert proc.value.finished_at == pytest.approx(10.0)

    def test_batch_setup_adds_overhead(self, env, net):
        engine = TransferEngine(
            env, net, chunk_size=100.0, batch_chunks=1, batch_setup=0.1
        )
        path = Path((link("l", "a", "b", 100.0),))
        proc = engine.transfer([path], size=1000.0)
        env.run()
        # 10 batches of 100 bytes: 10 * (0.1 setup + 1.0 transfer).
        assert proc.value.finished_at == pytest.approx(11.0)

    def test_pipeline_fill_latency_on_multihop(self, env, net):
        engine = TransferEngine(env, net, chunk_size=100.0, batch_setup=0.0)
        l1 = link("l1", "a", "b", 100.0)
        l2 = link("l2", "b", "c", 100.0)
        proc = engine.transfer([Path((l1, l2))], size=1000.0)
        env.run()
        # One extra chunk-time (1s) for the pipeline to fill.
        assert proc.value.finished_at == pytest.approx(11.0)

    def test_propagation_latency_counted_once(self, env, net, engine):
        path = Path((link("l", "a", "b", 100.0, latency=2.0),))
        proc = engine.transfer([path], size=1000.0, chunked=False)
        env.run()
        assert proc.value.finished_at == pytest.approx(12.0)

    def test_invalid_transfer_args(self, env, net, engine):
        path = Path((link("l", "a", "b", 100.0),))
        with pytest.raises(SimulationError):
            engine.transfer([path], size=0.0)
        with pytest.raises(SimulationError):
            engine.transfer([], size=10.0)


class TestMultiPath:
    def test_split_proportional_to_bandwidth(self, engine):
        p1 = Path((link("f", "a", "b", 75.0),))
        p2 = Path((link("s", "a", "c", 25.0),))
        shares = engine.split_sizes([p1, p2], 1000.0)
        assert shares == [pytest.approx(750.0), pytest.approx(250.0)]
        assert sum(shares) == pytest.approx(1000.0)

    def test_parallel_paths_aggregate_bandwidth(self, env, net, engine):
        p1 = Path((link("p1", "a", "b", 50.0),))
        p2 = Path((link("p2", "a", "c", 50.0),))
        proc = engine.transfer([p1, p2], size=1000.0, chunked=False)
        env.run()
        # Both paths carry 500 bytes at 50 B/s -> 10 s, vs 20 s single.
        assert proc.value.finished_at == pytest.approx(10.0)

    def test_uneven_paths_finish_together(self, env, net, engine):
        p1 = Path((link("fast", "a", "b", 80.0),))
        p2 = Path((link("slow", "a", "c", 20.0),))
        proc = engine.transfer([p1, p2], size=1000.0, chunked=False)
        env.run()
        # Dynamic sizing: 800/80 = 200/20 = 10s on both paths.
        assert proc.value.finished_at == pytest.approx(10.0)

    def test_split_all_paths_zero_bandwidth_raises(self, engine):
        # Link itself rejects capacity <= 0, so model a degenerate
        # path (e.g. a disabled route from a topology preset) with a
        # duck-typed stand-in exposing the two attributes split_sizes
        # reads.
        class DeadPath:
            nominal_bandwidth = 0.0

            def devices(self):
                return ["g0", "sw", "g1"]

        with pytest.raises(SimulationError) as excinfo:
            engine.split_sizes([DeadPath(), DeadPath()], 1000.0)
        # The error names the offending routes.
        assert "zero nominal" in str(excinfo.value)
        assert "g0->sw->g1" in str(excinfo.value)

    def test_realistic_nvlink_aggregation(self, env, net, engine):
        # 1 GB over one 24 GB/s NVLink vs two parallel paths (24+24).
        single = Path((link("d", "g0", "g1", 24 * GB),))
        proc = engine.transfer([single], size=1 * GB, chunked=False)
        env.run()
        single_time = proc.value.duration

        env2 = Environment()
        net2 = FlowNetwork(env2)
        engine2 = TransferEngine(env2, net2, batch_setup=0.0)
        direct = Path((link("d", "g0", "g1", 24 * GB),))
        indirect = Path(
            (link("h1", "g0", "g2", 24 * GB), link("h2", "g2", "g1", 24 * GB))
        )
        proc2 = engine2.transfer(
            [direct, indirect], size=1 * GB, chunked=False
        )
        env2.run()
        assert proc2.value.duration == pytest.approx(single_time / 2, rel=0.01)


class TestPinnedBuffer:
    def test_buffer_limits_in_flight_batches(self, env, net):
        engine = TransferEngine(
            env, net, chunk_size=100.0, batch_chunks=1, batch_setup=0.0
        )
        buffer = Container(env, capacity=100.0, init=100.0)
        path1 = Path((link("l1", "a", "h", 100.0, kind=LinkKind.PCIE),))
        path2 = Path((link("l2", "b", "h", 100.0, kind=LinkKind.PCIE),))
        t1 = engine.transfer([path1], size=300.0, pinned_buffer=buffer)
        t2 = engine.transfer([path2], size=300.0, pinned_buffer=buffer)
        env.run()
        # Batches serialize on the shared 100-byte pinned ring: 6 batches
        # of 1 s each even though the links themselves do not contend.
        finish = max(t1.value.finished_at, t2.value.finished_at)
        assert finish == pytest.approx(6.0)
        assert buffer.level == pytest.approx(100.0)

    def test_buffer_restored_after_transfer(self, env, net, engine):
        buffer = Container(env, capacity=50 * MB, init=50 * MB)
        path = Path((link("l", "a", "h", 10 * MB, kind=LinkKind.PCIE),))
        engine.transfer([path], size=20 * MB, pinned_buffer=buffer)
        env.run()
        assert buffer.level == pytest.approx(50 * MB)


class TestContention:
    def test_two_transfers_share_one_link(self, env, net, engine):
        shared = link("shared", "a", "b", 100.0)
        p = Path((shared,))
        t1 = engine.transfer([p], size=500.0, chunked=False)
        t2 = engine.transfer([p], size=500.0, chunked=False)
        env.run()
        assert t1.value.finished_at == pytest.approx(10.0)
        assert t2.value.finished_at == pytest.approx(10.0)

    def test_min_rate_spreads_across_paths(self, env, net, engine):
        p1 = Path((link("p1", "a", "b", 60.0),))
        p2 = Path((link("p2", "a", "c", 40.0),))
        proc = engine.transfer(
            [p1, p2], size=1000.0, min_rate=50.0, chunked=False
        )
        env.run()
        assert proc.value.finished_at == pytest.approx(10.0)


class TestFailures:
    """A failing transfer fails its event; nothing escapes ``env.step``."""

    @staticmethod
    def outcome(env, event):
        seen = []

        def waiter():
            try:
                yield event
                seen.append("ok")
            except SimulationError as error:
                seen.append((env.now, str(error)))

        env.process(waiter())
        env.run()
        return seen

    def test_split_error_fails_the_event_at_the_start_step(self, env, engine):
        class DeadPath:
            nominal_bandwidth = 0.0
            src = dst = "g0"

            def devices(self):
                return ["g0", "g1"]

        seen = self.outcome(env, engine.transfer([DeadPath()], size=10.0))
        (when, message), = seen
        assert when == 0.0 and "zero nominal" in message

    @pytest.mark.parametrize("mode,chunked", [
        ("per_batch", False), ("per_batch", True), ("coalesced", True),
    ])
    def test_start_flow_error_fails_the_transfer(self, mode, chunked):
        env = Environment()
        engine = TransferEngine(
            env, FlowNetwork(env), chunk_size=100.0, batch_chunks=1,
            batch_setup=0.0, mode=mode,
        )
        path = Path((link("l", "a", "b", 100.0),))
        event = engine.transfer(
            [path], size=1000.0, min_rate=-1.0, chunked=chunked
        )
        (_when, message), = self.outcome(env, event)
        assert "negative min_rate" in message

    def test_cancelled_batch_returns_pinned_bytes(self, env, net):
        engine = TransferEngine(
            env, net, chunk_size=100.0, batch_chunks=1, batch_setup=0.0,
            mode="per_batch",
        )
        buffer = Container(env, capacity=100.0, init=100.0)
        path = Path((link("l", "a", "h", 100.0, kind=LinkKind.PCIE),))
        event = engine.transfer([path], size=300.0, pinned_buffer=buffer)

        def saboteur():
            yield env.timeout(1.5)
            (flow,) = net.active_flows
            net.cancel_flow(flow)

        env.process(saboteur())
        (when, message), = self.outcome(env, event)
        assert when == 1.5 and "cancelled" in message
        assert buffer.level == 100.0
        assert net.active_flows == set()
