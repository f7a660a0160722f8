"""Directed tests for the O(1) contention index.

The index (``FlowNetwork.contention``) memoizes per-link allocated-rate
sums against a generation counter bumped at every mutation choke point.
Its contract is exact equality with the uncached reference accessors
(``allocated_on`` / ``residual_on`` / ``len(flows_on())``) at every
observable instant, under both allocators — including macro-flow
virtual replay, where flow rates are updated lazily.
"""

import random

from repro.common.units import MB
from repro.net import FlowNetwork, Link, LinkKind
from repro.sim import Environment


def _link(link_id: str, capacity: float = 100 * MB) -> Link:
    return Link(
        link_id=link_id,
        src=f"{link_id}.src",
        dst=f"{link_id}.dst",
        capacity=capacity,
        kind=LinkKind.PCIE,
    )


def _chain(n: int) -> list[Link]:
    links = []
    for i in range(n):
        links.append(Link(
            link_id=f"c{i}",
            src=f"d{i}",
            dst=f"d{i + 1}",
            capacity=(50 + 25 * i) * MB,
            kind=LinkKind.PCIE,
        ))
    return links


def _assert_index_exact(net: FlowNetwork, links) -> None:
    for link in links:
        assert net.contention.flow_count(link) == len(net.flows_on(link))
        assert net.flow_count_on(link) == len(net.flows_on(link))
        assert net.contention.allocated(link) == net.allocated_on(link)
        assert net.contention.residual(link) == net.residual_on(link)


def test_flow_count_on_unregistered_link_is_zero():
    net = FlowNetwork(Environment())
    assert net.flow_count_on(_link("fresh")) == 0


def test_index_tracks_start_and_finish():
    env = Environment()
    net = FlowNetwork(env)
    links = _chain(3)
    f1 = net.start_flow(links, 10 * MB)
    _assert_index_exact(net, links)
    f2 = net.start_flow(links[:2], 5 * MB)
    _assert_index_exact(net, links)
    net.cancel_flow(f2)
    f2.done.defuse()
    _assert_index_exact(net, links)
    env.run()
    assert f1.done.triggered
    _assert_index_exact(net, links)
    assert net.contention.flow_count(links[0]) == 0
    assert net.contention.residual(links[0]) == links[0].capacity


def test_repeated_reads_between_events_hit_the_memo():
    env = Environment()
    net = FlowNetwork(env)
    links = _chain(2)
    net.start_flow(links, 10 * MB)
    net.contention.allocated(links[0])
    recomputes = net.contention_recomputes
    for _ in range(50):
        net.contention.allocated(links[0])
        net.contention.residual(links[0])
    assert net.contention_recomputes == recomputes


def test_index_exact_across_macro_split_and_merge():
    """Macro rates are lazily advanced; the index must agree anyway."""
    env = Environment()
    net = FlowNetwork(env, allocator="incremental")
    shared = _link("shared")
    other = _link("other")
    macro = net.start_macro_flow(
        [shared], 64 * MB, batch_bytes=4 * MB, batch_setup=1e-4
    )
    assert macro is not None and macro._macro is not None
    _assert_index_exact(net, [shared, other])
    env.run(until=0.05)
    _assert_index_exact(net, [shared, other])
    # A new arrival on the shared link splits the macro at the batch
    # boundary; rates are rewritten in place (the "merge" back into the
    # per-batch world).
    net.start_flow([shared], 32 * MB)
    assert net._macro_live == 0
    _assert_index_exact(net, [shared, other])
    env.run(until=0.2)
    _assert_index_exact(net, [shared, other])
    env.run()
    _assert_index_exact(net, [shared, other])


def test_index_exact_under_random_churn_all_allocators():
    for allocator in ("incremental", "fullscan"):
        rng = random.Random(17)
        env = Environment()
        net = FlowNetwork(env, allocator=allocator)
        links = _chain(4)
        live = []
        for step in range(30):
            op = rng.random()
            if op < 0.6 or not live:
                lo = rng.randrange(len(links))
                hi = rng.randrange(lo, len(links)) + 1
                live.append(
                    net.start_flow(links[lo:hi], rng.uniform(1, 20) * MB)
                )
            elif op < 0.8:
                victim = live.pop(rng.randrange(len(live)))
                if not victim.done.triggered:
                    net.cancel_flow(victim)
                    victim.done.defuse()
            else:
                env.run(until=env.now + rng.uniform(0.001, 0.02))
                live = [f for f in live if not f.done.triggered]
            _assert_index_exact(net, links)
        env.run()
        _assert_index_exact(net, links)
