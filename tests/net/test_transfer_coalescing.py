"""Steady-state transfer coalescing: macro-flows and their splits.

The coalesced fast path must be observationally identical to the
per-batch loop — same finish times, same byte accounting, same
preemption behaviour at batch boundaries — while costing O(1) DES
events whenever the transfer's link component is quiescent.  These
tests pin the split semantics (mid-transmit conversion, setup-window
detach, pinned-pool contention, multi-path) case by case; the seeded
sweep lives in ``tests/property/test_transfer_mode_differential.py``.
"""

import pytest

from repro.common.errors import ConfigError, SimulationError
from repro.common.units import GB, MB
from repro.net import FlowNetwork, Link, LinkKind, Path, TransferEngine
from repro.net.transfer import TRANSFER_MODES
from repro.sim import Container, Environment


def link(link_id, src, dst, capacity, kind=LinkKind.PCIE, latency=0.0):
    return Link(
        link_id=link_id, src=src, dst=dst, capacity=capacity, kind=kind,
        latency=latency,
    )


def make_engine(mode, *, chunk_size=100.0, batch_chunks=1, batch_setup=0.0):
    env = Environment()
    net = FlowNetwork(env, allocator="incremental")
    engine = TransferEngine(
        env, net, chunk_size=chunk_size, batch_chunks=batch_chunks,
        batch_setup=batch_setup, mode=mode,
    )
    return env, net, engine


class TestQuiescentFastPath:
    def test_quiescent_transfer_is_one_flow(self):
        env, net, engine = make_engine("coalesced")
        path = Path((link("l", "a", "b", 100.0),))
        proc = engine.transfer([path], size=1000.0)
        env.run()
        # 10 batches collapse into a single macro-flow.
        assert net.flows_started == 1
        assert proc.value.finished_at == pytest.approx(10.0)

    def test_per_batch_pays_one_flow_per_batch(self):
        env, net, engine = make_engine("per_batch")
        path = Path((link("l", "a", "b", 100.0),))
        proc = engine.transfer([path], size=1000.0)
        env.run()
        assert net.flows_started == 10
        assert proc.value.finished_at == pytest.approx(10.0)

    @pytest.mark.parametrize("size", [250.0, 1000.0, 1001.0, 64 * MB])
    @pytest.mark.parametrize("batch_setup", [0.0, 0.25])
    def test_finish_time_bit_identical_across_modes(self, size, batch_setup):
        finishes = {}
        for mode in TRANSFER_MODES:
            env, net, engine = make_engine(mode, batch_setup=batch_setup)
            path = Path((link("l", "a", "b", 100 * MB),))
            proc = engine.transfer([path], size=size)
            env.run()
            finishes[mode] = (proc.value.finished_at, net.bytes_carried(path.links[0]))
        assert finishes["coalesced"] == finishes["per_batch"]

    def test_one_gigabyte_is_o1_events(self):
        env, net, engine = make_engine(
            "coalesced", chunk_size=2 * MB, batch_chunks=5,
            batch_setup=20e-6,
        )
        path = Path((link("pcie", "gpu0", "host", 16 * GB),))
        engine.transfer([path], size=1 * GB)
        env.run()
        assert net.flows_started == 1  # vs ~103 per-batch flows

    def test_small_transfers_never_coalesce(self):
        # A single-batch payload has nothing to coalesce.
        env, net, engine = make_engine("coalesced")
        path = Path((link("l", "a", "b", 100.0),))
        engine.transfer([path], size=80.0)
        env.run()
        assert net.flows_started == 1
        assert net.bytes_carried(path.links[0]) == 80.0

    def test_macro_eligible_requires_empty_links(self):
        env, net, engine = make_engine("coalesced")
        l = link("l", "a", "b", 100.0)
        assert net.macro_eligible([l])
        net.start_flow([l], 50.0)
        assert not net.macro_eligible([l])


class TestMidTransmitSplit:
    def arrival_run(self, mode, arrival, competitor_size):
        env, net, engine = make_engine(mode)
        shared = link("shared", "a", "b", 100.0)
        proc = engine.transfer([Path((shared,))], size=1000.0)
        probe = {}

        def competitor():
            yield env.timeout(arrival)
            flow = net.start_flow([shared], competitor_size)
            probe["rate_at_start"] = flow.rate
            yield flow.done
            probe["competitor_done"] = env.now

        env.process(competitor())
        env.run()
        probe["transfer_done"] = proc.value.finished_at
        probe["bytes"] = net.bytes_carried(shared)
        probe["flows_started"] = net.flows_started
        return probe

    def test_competitor_gets_bandwidth_immediately(self):
        # Fluid preemption: the converted boundary batch shares the link
        # the instant the competitor arrives, exactly as per_batch.
        a = self.arrival_run("coalesced", arrival=2.5, competitor_size=200.0)
        b = self.arrival_run("per_batch", arrival=2.5, competitor_size=200.0)
        assert a["rate_at_start"] == b["rate_at_start"] == 50.0
        assert a["competitor_done"] == b["competitor_done"]
        assert a["transfer_done"] == b["transfer_done"]
        assert a["bytes"] == b["bytes"]

    def test_split_falls_back_then_recoalesces(self):
        probe = self.arrival_run(
            "coalesced", arrival=2.5, competitor_size=200.0
        )
        per_batch = self.arrival_run(
            "per_batch", arrival=2.5, competitor_size=200.0
        )
        # More than the lone macro (the disturbance forced per-batch
        # fallback) but far fewer than full batch granularity (the
        # post-disturbance tail coalesced again).
        assert 1 < probe["flows_started"] < per_batch["flows_started"]

    @pytest.mark.parametrize("arrival", [0.3, 2.5, 5.05, 9.2])
    def test_arbitrary_arrival_instants_match(self, arrival):
        a = self.arrival_run("coalesced", arrival, 150.0)
        b = self.arrival_run("per_batch", arrival, 150.0)
        assert a == {**b, "flows_started": a["flows_started"]}


class TestSetupWindowSplit:
    def run_mode(self, mode, arrival):
        env, net, engine = make_engine(mode, batch_setup=0.5)
        shared = link("shared", "a", "b", 100.0)
        proc = engine.transfer([Path((shared,))], size=500.0)
        probe = {}

        def competitor():
            yield env.timeout(arrival)
            flow = net.start_flow([shared], 100.0)
            probe["rate_at_start"] = flow.rate
            yield flow.done
            probe["competitor_done"] = env.now

        env.process(competitor())
        env.run()
        probe["transfer_done"] = proc.value.finished_at
        probe["bytes"] = net.bytes_carried(shared)
        return probe

    def test_arrival_in_setup_window(self):
        # Batches occupy [k*1.5+0.5, k*1.5+1.5); t=1.7 falls in batch
        # 1's setup window, where no flow is on the wire in either mode:
        # the competitor must see the full link until the batch starts.
        a = self.run_mode("coalesced", arrival=1.7)
        b = self.run_mode("per_batch", arrival=1.7)
        assert a["rate_at_start"] == b["rate_at_start"] == 100.0
        assert a == b

    def test_setup_spent_virtually_is_not_repeated(self):
        # After a setup-window split the engine resumes at the batch
        # start without a second setup delay: total time matches the
        # per-batch world exactly rather than exceeding it.
        a = self.run_mode("coalesced", arrival=3.2)
        b = self.run_mode("per_batch", arrival=3.2)
        assert a["transfer_done"] == b["transfer_done"]


class TestMultiPath:
    def run_mode(self, mode, arrival):
        env, net, engine = make_engine(mode)
        fast = link("fast", "a", "b", 80.0)
        slow_up = link("slow.up", "a", "m", 40.0)
        slow_down = link("slow.down", "m", "c", 40.0)
        proc = engine.transfer(
            [Path((fast,)), Path((slow_up, slow_down))], size=2000.0
        )
        probe = {}

        def competitor():
            yield env.timeout(arrival)
            flow = net.start_flow([slow_down], 100.0)
            yield flow.done
            probe["competitor_done"] = env.now

        env.process(competitor())
        env.run()
        probe["transfer_done"] = proc.value.finished_at
        probe["bytes"] = tuple(
            net.bytes_carried(l) for l in (fast, slow_up, slow_down)
        )
        return probe

    def test_per_path_macros_split_independently(self):
        # The competitor only disturbs the slow path's component; the
        # fast path's macro must keep running and everything must match
        # the per-batch world bit-exactly.
        a = self.run_mode("coalesced", arrival=6.3)
        b = self.run_mode("per_batch", arrival=6.3)
        assert a == b


class TestPinnedBufferSplit:
    def run_mode(self, mode, cap=100.0):
        env, net, engine = make_engine(mode)
        buffer = Container(env, capacity=cap, init=cap)
        p1 = Path((link("l1", "a", "h", 100.0),))
        p2 = Path((link("l2", "b", "h", 100.0),))
        t1 = engine.transfer([p1], size=300.0, pinned_buffer=buffer)
        t2 = engine.transfer([p2], size=300.0, pinned_buffer=buffer)
        env.run()
        return (
            t1.value.finished_at,
            t2.value.finished_at,
            buffer.level,
            net.bytes_carried(p1.links[0]),
            net.bytes_carried(p2.links[0]),
        )

    def test_contended_pool_serializes_batches_identically(self):
        # One batch of pinned bytes for two transfers: the macro must
        # yield its virtual claim the moment the other transfer's get
        # would block, reproducing the per-batch serialization exactly.
        assert self.run_mode("coalesced") == self.run_mode("per_batch")

    def test_uncontended_pool_keeps_macro_whole(self):
        env, net, engine = make_engine("coalesced")
        buffer = Container(env, capacity=1000.0, init=1000.0)
        path = Path((link("l", "a", "h", 100.0),))
        proc = engine.transfer([path], size=500.0, pinned_buffer=buffer)
        env.run()
        assert net.flows_started == 1
        assert proc.value.finished_at == pytest.approx(5.0)
        assert buffer.level == pytest.approx(1000.0)

    def test_pool_restored_after_contention(self):
        for mode in TRANSFER_MODES:
            assert self.run_mode(mode)[2] == pytest.approx(100.0)


class TestModeSelection:
    def test_modes_tuple(self):
        assert TRANSFER_MODES == ("coalesced", "per_batch")

    def test_default_mode_is_coalesced(self, monkeypatch):
        monkeypatch.delenv("REPRO_NET_TRANSFER", raising=False)
        env = Environment()
        engine = TransferEngine(env, FlowNetwork(env))
        assert engine.mode == "coalesced"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_NET_TRANSFER", "per_batch")
        env = Environment()
        engine = TransferEngine(env, FlowNetwork(env))
        assert engine.mode == "per_batch"

    def test_explicit_mode_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NET_TRANSFER", "per_batch")
        env = Environment()
        engine = TransferEngine(env, FlowNetwork(env), mode="coalesced")
        assert engine.mode == "coalesced"

    def test_unknown_mode_rejected(self, monkeypatch):
        env = Environment()
        net = FlowNetwork(env)
        with pytest.raises(ConfigError, match="unknown transfer mode"):
            TransferEngine(env, net, mode="bogus")
        monkeypatch.setenv("REPRO_NET_TRANSFER", "bogus")
        with pytest.raises(ConfigError, match="unknown transfer mode"):
            TransferEngine(env, net)


class TestTimerElision:
    def test_timer_at_tracks_armed_deadline(self):
        env = Environment()
        net = FlowNetwork(env)
        l = link("l", "a", "b", 100.0)
        flow = net.start_flow([l], 500.0)
        assert flow._timer_at == 5.0
        env.run()
        assert env.now == 5.0

    def test_elisions_fire_under_fanin_hotspot(self):
        # The completion-time predicate (the rate-equality one was dead:
        # max-min recomputes almost never reproduce the exact bits).
        # 32 slots restart flows back-to-back on one shared link, so
        # every arrival and departure refills one merged component.
        env = Environment()
        net = FlowNetwork(env, allocator="incremental")
        hot = link("fanin.hot", "many", "gpu", 100 * MB)

        def slot(idx):
            for round_no in range(4):
                size = (1 + (idx * 31 + round_no * 7) % 13) * MB / 8
                yield net.start_flow([hot], size).done

        for idx in range(32):
            env.process(slot(idx))
        env.run()
        assert net.flows_started == 32 * 4
        assert net.timer_elisions > 0

    def test_cancel_flow_still_exact_after_elision_bookkeeping(self):
        env = Environment()
        net = FlowNetwork(env)
        l = link("l", "a", "b", 100.0)
        flow = net.start_flow([l], 500.0)
        outcome = []

        def watcher():
            try:
                yield flow.done
                outcome.append("finished")
            except SimulationError:
                outcome.append("cancelled")

        def canceller():
            yield env.timeout(2.0)
            net.cancel_flow(flow)

        env.process(watcher())
        env.process(canceller())
        env.run()
        assert outcome == ["cancelled"]
        assert net.bytes_carried(l) == pytest.approx(200.0)
