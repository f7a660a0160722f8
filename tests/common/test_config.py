"""Mode-knob resolution: precedence and validation."""

import pytest

from repro.common.config import (
    ENV_NET_ALLOCATOR,
    ENV_NET_TRANSFER,
    NET_ALLOCATORS,
    NET_TRANSFER_MODES,
    net_allocator,
    net_transfer_mode,
    resolve_mode,
)
from repro.common.errors import ConfigError, ReproError


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for var in (ENV_NET_ALLOCATOR, ENV_NET_TRANSFER):
        monkeypatch.delenv(var, raising=False)


def test_precedence_kwarg_beats_env_beats_default(monkeypatch):
    assert net_allocator() == "incremental"
    monkeypatch.setenv(ENV_NET_ALLOCATOR, "fullscan")
    assert net_allocator() == "fullscan"
    assert net_allocator("incremental") == "incremental"  # kwarg wins


def test_unknown_values_raise_config_error(monkeypatch):
    with pytest.raises(ConfigError, match="unknown allocator"):
        net_allocator("bogus")
    monkeypatch.setenv(ENV_NET_TRANSFER, "chunky")
    with pytest.raises(ConfigError, match="unknown transfer mode") as exc:
        net_transfer_mode()
    # The error names the source and the valid choices.
    assert ENV_NET_TRANSFER in str(exc.value)
    for mode in NET_TRANSFER_MODES:
        assert mode in str(exc.value)


def test_config_error_is_a_repro_error():
    assert issubclass(ConfigError, ReproError)


def test_allocators_are_incremental_and_fullscan():
    assert NET_ALLOCATORS == ("incremental", "fullscan")


@pytest.mark.parametrize("retired", "epoch legacy analytic".split())
def test_retired_allocators_raise_config_error(monkeypatch, retired):
    monkeypatch.setenv(ENV_NET_ALLOCATOR, retired)
    with pytest.raises(ConfigError, match="valid: incremental, fullscan"):
        net_allocator()


def test_resolve_mode_reports_source(monkeypatch):
    with pytest.raises(ConfigError, match="from kwarg"):
        resolve_mode("thing", env_var="NOPE", valid=("a",), default="a",
                     override="b")
    monkeypatch.setenv("REPRO_TEST_KNOB", "b")
    with pytest.raises(ConfigError, match="from env REPRO_TEST_KNOB"):
        resolve_mode("thing", env_var="REPRO_TEST_KNOB", valid=("a",),
                     default="a")


def test_all_allocators_construct_networks():
    from repro.net import FlowNetwork
    from repro.sim import Environment

    for allocator in NET_ALLOCATORS:
        net = FlowNetwork(Environment(), allocator=allocator)
        assert net.allocator == allocator
