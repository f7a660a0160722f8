"""Fleet health snapshots: series + SLO state -> per-entity verdicts.

The assembler rolls one run's :class:`~repro.telemetry.timeseries.
TimeSeriesStore` and :class:`~repro.telemetry.slo.SloBoard` into a
verdict per entity — ``ok`` / ``degraded`` / ``violated`` — plus an
overall verdict per run and for the whole capture:

- SLO state drives ``violated``: any spec with a violation episode
  marks the run's plane entity (and the run) violated.
- Anomaly detectors drive ``degraded``: monotone queue growth,
  link-utilization collapse with work still in flight, and starved
  flows (active but rate-zero at end of stream).

Everything derives from the typed event stream alone, so
:func:`build_health` produces bit-identical reports whether fed a live
session's events or a replayed JSONL spool — the reproducibility
contract ``repro health --replay`` asserts.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Sequence, Union

from repro.telemetry.chrome import PLATFORM_PID, _counter
from repro.telemetry.events import PlaneInfo, TelemetryEvent
from repro.telemetry.sinks import iter_jsonl_events
from repro.telemetry.slo import SloBoard, SloSpec
from repro.telemetry.timeseries import EntitySeries, TimeSeriesStore

VERDICTS = ("ok", "degraded", "violated")

# -- anomaly detectors --------------------------------------------------------

#: Minimum final depth before monotone queue growth is anomalous.
QUEUE_GROWTH_MIN_DEPTH = 4.0
#: Samples the growth must span without a single decrease.
QUEUE_GROWTH_MIN_POINTS = 8
#: Peak utilization below which a collapse cannot be claimed.
COLLAPSE_MIN_PEAK = 0.5
#: Final utilization at or below this fraction counts as collapsed.
COLLAPSE_FLOOR = 0.05
#: A still-active flow older than this with ~zero rate is starved.
STARVED_MIN_AGE = 1.0
STARVED_RATE_EPS = 1e-6


def detect_queue_growth(series: EntitySeries) -> Optional[dict]:
    """Monotone growth: the tail never decreases and ends deep.

    Checks the trailing ``QUEUE_GROWTH_MIN_POINTS`` samples; a healthy
    queue drains (some decrease appears), an overloaded one only grows.
    """
    if len(series) < QUEUE_GROWTH_MIN_POINTS:
        return None
    values = list(series.values)[-QUEUE_GROWTH_MIN_POINTS:]
    if values[-1] < QUEUE_GROWTH_MIN_DEPTH:
        return None
    if any(b < a for a, b in zip(values, values[1:])):
        return None
    if values[-1] <= values[0]:
        return None
    return {
        "detector": "queue_monotone_growth",
        "entity": series.name,
        "detail": f"depth grew {values[0]:g} -> {values[-1]:g} "
                  f"over last {len(values)} samples without draining",
    }


def detect_utilization_collapse(
    series: EntitySeries, store: TimeSeriesStore
) -> Optional[dict]:
    """A once-busy link went quiet while flows still traverse it."""
    if len(series) < 2:
        return None
    # Link ids contain dots themselves (``n0.g0>n0.sw0``).
    link_id = series.name.removeprefix("link.util.")
    in_flight = any(
        link_id in state.links for state in store.active_flows.values()
    )
    if not in_flight:
        return None
    values = list(series.values)
    peak = max(values)
    if peak < COLLAPSE_MIN_PEAK or values[-1] > COLLAPSE_FLOOR * peak:
        return None
    return {
        "detector": "utilization_collapse",
        "entity": series.name,
        "detail": f"utilization fell from peak {peak:.3f} to "
                  f"{values[-1]:.3f} with flows still in flight",
    }


def detect_starved_flows(store: TimeSeriesStore) -> list[dict]:
    """Active flows holding ~zero rate for longer than the age bound."""
    anomalies = []
    for flow_id in sorted(store.active_flows):
        state = store.active_flows[flow_id]
        age = store.max_t - state.started_at
        if state.rate <= STARVED_RATE_EPS and age >= STARVED_MIN_AGE:
            anomalies.append({
                "detector": "starved_flow",
                "entity": f"flow.{flow_id}",
                "detail": f"flow {flow_id} active {age:.3f}s on "
                          f"{'/'.join(state.links)} at rate "
                          f"{state.rate:g} B/s",
                "links": list(state.links),
            })
    return anomalies


# -- assembly -----------------------------------------------------------------

def _worst(verdicts: Iterable[str]) -> str:
    rank = {v: i for i, v in enumerate(VERDICTS)}
    worst = "ok"
    for verdict in verdicts:
        if rank[verdict] > rank[worst]:
            worst = verdict
    return worst


def build_run_health(
    store: TimeSeriesStore,
    board: SloBoard,
    plane: str = "",
    window: Optional[float] = None,
) -> dict:
    """Assemble one run's health document (board must not be finalized).

    Finalizes the board at the later of the two stream clocks, runs the
    detectors, and rolls verdicts up: entity -> run.
    """
    t_end = max(store.max_t, board.max_t)
    board.finalize(t_end)
    slo = board.report()

    anomalies: list[dict] = []
    degraded: set[str] = set()
    for name in store.names("queue.depth."):
        hit = detect_queue_growth(store.series[name])
        if hit is not None:
            anomalies.append(hit)
            degraded.add(name)
    for name in store.names("link.util."):
        hit = detect_utilization_collapse(store.series[name], store)
        if hit is not None:
            anomalies.append(hit)
            degraded.add(name)
    for hit in detect_starved_flows(store):
        anomalies.append(hit)
        for link_id in hit.get("links", ()):
            degraded.add(f"link.util.{link_id}")

    entities: dict[str, dict] = {}
    for name in store.names():
        series = store.series[name]
        entities[name] = {
            "kind": series.kind,
            "verdict": "degraded" if name in degraded else "ok",
            "aggregates": series.aggregates(window=window),
            "samples": len(series),
            "clamped": series.clamped,
        }

    plane_verdict = "ok"
    if any(report["episodes"] for report in slo.values()):
        plane_verdict = "violated"
    elif anomalies:
        plane_verdict = "degraded"
    entities[f"plane.{plane or 'run'}"] = {
        "kind": "plane",
        "verdict": plane_verdict,
        "aggregates": {"count": 0},
        "samples": 0,
        "clamped": 0,
    }

    verdict = _worst(
        [entity["verdict"] for entity in entities.values()]
    )
    return {
        "plane": plane,
        "t_end": t_end,
        "slo": slo,
        "attainment": {
            name: report["attainment"] for name, report in slo.items()
        },
        "episodes": sum(len(r["episodes"]) for r in slo.values()),
        "anomalies": anomalies,
        "entities": entities,
        "verdict": verdict,
    }


def fold_runs(
    source: Union[str, Iterable[tuple[int, TelemetryEvent]]],
    specs: Sequence[SloSpec] = (),
    series_capacity: int = 4096,
) -> tuple[dict[int, TimeSeriesStore], dict[int, SloBoard], dict[int, str]]:
    """Fold a (run, event) stream into per-run stores/boards/plane labels."""
    if isinstance(source, (str, os.PathLike)):
        source = iter_jsonl_events(source)
    stores: dict[int, TimeSeriesStore] = {}
    boards: dict[int, SloBoard] = {}
    planes: dict[int, str] = {}
    for run, event in source:
        store = stores.get(run)
        if store is None:
            store = stores[run] = TimeSeriesStore(capacity=series_capacity)
            boards[run] = SloBoard(specs)
        if isinstance(event, PlaneInfo):
            planes[run] = event.plane
        store.feed(event)
        boards[run].feed(event)
    return stores, boards, planes


def build_health(
    source: Union[str, Iterable[tuple[int, TelemetryEvent]]],
    specs: Sequence[SloSpec] = (),
    series_capacity: int = 4096,
    window: Optional[float] = None,
    state: Optional[tuple] = None,
) -> dict:
    """Fold a (run, event) stream — or a JSONL spool path — into health.

    Each run gets its own store and board (experiments build a fresh
    environment, and therefore a fresh time base, per measurement).
    The same stream always produces the same document, byte for byte
    once JSON-serialized: the spool-replay reproducibility contract.
    Pass a :func:`fold_runs` result as *state* to reuse already-folded
    stream state (the CLI does, to also emit counter tracks).
    """
    if state is None:
        state = fold_runs(source, specs, series_capacity)
    stores, boards, planes = state
    runs = [
        {"run": run, **build_run_health(
            stores[run], boards[run],
            plane=planes.get(run, ""), window=window,
        )}
        for run in sorted(stores)
    ]
    return {
        "runs": runs,
        "overall": _worst([run["verdict"] for run in runs]) if runs else "ok",
        "total_episodes": sum(run["episodes"] for run in runs),
        "attainment": {
            # Worst attainment per spec across runs: the fleet view.
            name: min(run["attainment"][name] for run in runs)
            for name in (runs[0]["attainment"] if runs else {})
        },
    }


# -- presentation -------------------------------------------------------------

_VERDICT_MARK = {"ok": "+", "degraded": "~", "violated": "!"}


def format_dashboard(health: dict) -> str:
    """ASCII dashboard: one block per run, one line per noteworthy row."""
    lines = [f"overall: {health['overall']}  "
             f"episodes={health['total_episodes']}"]
    for run in health["runs"]:
        label = run["plane"] or f"run{run['run']}"
        lines.append("")
        lines.append(f"[{_VERDICT_MARK[run['verdict']]}] {label}  "
                     f"verdict={run['verdict']}  t_end={run['t_end']:.2f}s")
        for name, report in run["slo"].items():
            episodes = report["episodes"]
            ttrs = ", ".join(
                f"{ep['ttr']:.2f}s" for ep in episodes
                if ep["ttr"] is not None
            )
            lines.append(
                f"    slo {name:<11} attainment={report['attainment']:.4f} "
                f"worst_burn={report['worst_burn']:.2f} "
                f"episodes={len(episodes)}"
                + (f" ttr=[{ttrs}]" if ttrs else "")
            )
        flagged = [
            (name, entity)
            for name, entity in run["entities"].items()
            if entity["verdict"] != "ok"
        ]
        for name, entity in flagged:
            lines.append(f"    {_VERDICT_MARK[entity['verdict']]} {name}: "
                         f"{entity['verdict']}")
        for anomaly in run["anomalies"]:
            lines.append(f"    anomaly {anomaly['detector']} "
                         f"@ {anomaly['entity']}: {anomaly['detail']}")
        if not flagged and not run["anomalies"]:
            lines.append(f"    all {len(run['entities'])} entities ok")
    return "\n".join(lines)


def health_trace_events(boards: dict[int, SloBoard],
                        multi_run: bool = False) -> list[dict]:
    """Perfetto counter tracks: per-spec attainment and burn rate."""
    records: list[dict] = []
    for run in sorted(boards):
        board = boards[run]
        prefix = f"run{run}:" if multi_run else ""
        for name, tracker in sorted(board.trackers.items()):
            for t, burn in tracker.burn_history:
                records.append(_counter(
                    f"slo {name}", t, prefix + PLATFORM_PID,
                    f"slo:{name}", {"burn_rate": burn},
                ))
    return records
