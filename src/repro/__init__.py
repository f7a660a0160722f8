"""GROUTER reproduction: a GPU-centric serverless data plane, simulated.

This package reproduces *Efficient Data Passing for Serverless Inference
Workflows: A GPU-Centric Approach* (EuroSys 2026).  The public surface
re-exports the pieces most users need; subpackages hold the substrates:

- :mod:`repro.sim` — discrete-event simulation kernel
- :mod:`repro.net` — fluid-flow link/bandwidth model + transfer engine
- :mod:`repro.topology` — GPU cluster topologies (DGX-V100/A100, A10, H800)
- :mod:`repro.memory` — GPU memory pools, elasticity, eviction
- :mod:`repro.storage` — data objects, catalogs, GPU/host stores
- :mod:`repro.routing` — contention/topology-aware path selection
- :mod:`repro.dataplane` — GROUTER and the three baseline data planes
- :mod:`repro.functions`, :mod:`repro.workflow` — functions and DAGs
- :mod:`repro.scheduler`, :mod:`repro.platform` — placement + platform
- :mod:`repro.traces` — Azure-like arrival generators
- :mod:`repro.llm` — KV-cache / Mixture-of-Agents layer
- :mod:`repro.experiments` — one module per paper table/figure
- :mod:`repro.telemetry` — event bus, metrics, Perfetto export, and the
  request profiler (span trees, critical paths, Gantt charts)
- :mod:`repro.analysis`, :mod:`repro.report` — bootstrap statistics,
  table rendering
- :mod:`repro.cli` — ``python -m repro`` entry point

Quick start::

    from repro import quickstart
    env, cluster, plane, platform = quickstart("grouter")
"""

from repro.dataplane import PLANES, make_plane
from repro.platform import ServerlessPlatform
from repro.sim import Environment
from repro.topology import make_cluster
from repro.traces import make_trace
from repro.workflow import WORKLOADS, get_workload

__version__ = "1.0.0"

__all__ = [
    "PLANES",
    "WORKLOADS",
    "Environment",
    "ServerlessPlatform",
    "get_workload",
    "make_cluster",
    "make_plane",
    "make_trace",
    "quickstart",
]


def quickstart(
    plane_name: str = "grouter",
    preset: str = "dgx-v100",
    num_nodes: int = 1,
    **plane_kwargs,
):
    """Build a ready-to-use (env, cluster, plane, platform) stack."""
    env = Environment()
    cluster = make_cluster(preset, num_nodes=num_nodes)
    plane = make_plane(plane_name, env, cluster, **plane_kwargs)
    platform = ServerlessPlatform(env, cluster, plane)
    return env, cluster, plane, platform
