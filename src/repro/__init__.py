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
- :mod:`repro.report` — table rendering (text, CSV, JSON)
- :mod:`repro.cli` — ``python -m repro`` entry point

Quick start::

    from repro.platform import build_platform
    from repro.traces import make_trace
    from repro.workflow import get_workload

    platform = build_platform(plane_name="grouter")
    deployment = platform.deploy(get_workload("driving"))
    results = platform.run_trace(
        deployment, make_trace("bursty", rate=4.0, duration=8.0)
    )
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
]
