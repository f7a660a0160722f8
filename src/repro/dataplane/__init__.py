"""Data planes: GROUTER and the three baselines of the evaluation."""

from typing import Callable

from repro.common.errors import ConfigError
from repro.dataplane.base import (
    CAT_CFN_CFN,
    CAT_GFN_GFN_CROSS,
    CAT_GFN_GFN_INTRA,
    CAT_GFN_HOST,
    CAT_MIGRATION,
    CAT_RESTORE,
    DataPlane,
    GetResult,
    PlaneMetrics,
)
from repro.dataplane.deepplan import DeepPlanPlane
from repro.dataplane.grouter import GRouterPlane, QueueOracle
from repro.dataplane.host_centric import HostCentricPlane
from repro.dataplane.nvshmem import NvshmemPlane

PLANES: dict[str, Callable] = {
    "infless+": HostCentricPlane,
    "nvshmem+": NvshmemPlane,
    "deepplan+": DeepPlanPlane,
    "grouter": GRouterPlane,
}


def make_plane(name: str, env, cluster, **kwargs) -> DataPlane:
    """Instantiate a data plane by its evaluation name."""
    try:
        plane_cls = PLANES[name]
    except KeyError:
        raise ConfigError(
            f"unknown data plane {name!r}; choose from {sorted(PLANES)}"
        ) from None
    return plane_cls(env, cluster, **kwargs)


__all__ = [
    "CAT_CFN_CFN",
    "CAT_GFN_GFN_CROSS",
    "CAT_GFN_GFN_INTRA",
    "CAT_GFN_HOST",
    "CAT_MIGRATION",
    "CAT_RESTORE",
    "DataPlane",
    "GetResult",
    "PlaneMetrics",
    "DeepPlanPlane",
    "GRouterPlane",
    "QueueOracle",
    "HostCentricPlane",
    "NvshmemPlane",
    "PLANES",
    "make_plane",
]
