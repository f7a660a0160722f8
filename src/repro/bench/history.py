"""Bench trajectory: append dated records, diff against the last run.

Every ``repro bench`` invocation appends one JSONL record to
``BENCH_history.jsonl`` — suite, resolved mode metadata, and a flat
``metrics`` map distilled from the suite document — so the repo's perf
trajectory accumulates across commits instead of overwriting a single
``BENCH_<suite>.json`` snapshot.  ``repro bench --compare`` diffs the
fresh record against the most recent *comparable* one (same suite,
same quick/full mode, same resolved mode knobs) and flags changes
beyond a noise tolerance.

Metric direction is encoded in the name suffix: ``overhead_x`` and
``peak_rss_bytes`` regress upward; every other metric
(throughput-shaped) regresses downward.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from typing import Optional

#: Name suffixes where a larger value is worse.
LOWER_IS_BETTER = ("overhead_x", "peak_rss_bytes")

DEFAULT_TOLERANCE = 0.15
HISTORY_FILENAME = "BENCH_history.jsonl"


# -- metric extraction --------------------------------------------------------

def _net_metrics(document: dict) -> dict[str, float]:
    return {
        f"{run['name']}/{run['allocator']}.events_per_sec":
            run["events_per_sec"]
        for run in document.get("benchmarks", ())
    }


def _platform_metrics(document: dict) -> dict[str, float]:
    return {
        f"{run['name']}/{run['plane']}.requests_per_sec":
            run["requests_per_sec"]
        for run in document.get("benchmarks", ())
    }


def _telemetry_metrics(document: dict) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for run in document.get("benchmarks", ()):
        for mode, stats in run["modes"].items():
            metrics[f"{run['name']}/{mode}.events_per_sec"] = (
                stats["events_per_sec"]
            )
        metrics[f"{run['name']}.overhead_x"] = run["overhead_x"]
    return metrics


def _endtoend_metrics(document: dict) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for run in document.get("benchmarks", ()):
        metrics[f"{run['name']}.requests_per_sec"] = run["requests_per_sec"]
        if run.get("peak_rss_bytes"):
            metrics[f"{run['name']}.peak_rss_bytes"] = run["peak_rss_bytes"]
    return metrics


_EXTRACTORS = {
    "net": _net_metrics,
    "platform": _platform_metrics,
    "telemetry": _telemetry_metrics,
    "endtoend": _endtoend_metrics,
}


def extract_metrics(suite: str, document: dict) -> dict[str, float]:
    """Flatten one suite document into comparable scalar metrics."""
    extractor = _EXTRACTORS.get(suite)
    if extractor is None:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {tuple(_EXTRACTORS)}"
        )
    return extractor(document)


def make_record(suite: str, document: dict,
                recorded_at: Optional[str] = None) -> dict:
    """One dated history record for a completed suite run."""
    if recorded_at is None:
        recorded_at = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    return {
        "recorded_at": recorded_at,
        "suite": suite,
        "mode": document.get("mode", ""),
        "modes": document.get("modes", {}),
        "python": document.get("python", ""),
        "metrics": extract_metrics(suite, document),
    }


# -- persistence --------------------------------------------------------------

def append_record(record: dict, path: str) -> None:
    directory = os.path.dirname(os.fspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def load_history(path: str) -> list[dict]:
    """All records, oldest first; a truncated trailing line is skipped."""
    if not os.path.exists(path):
        return []
    records: list[dict] = []
    with open(path) as handle:
        for line in handle:
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # partial write from a crashed run
    return records


def latest_comparable(history: list[dict], record: dict) -> Optional[dict]:
    """Most recent record measuring the same thing the same way."""
    for previous in reversed(history):
        if (previous.get("suite") == record["suite"]
                and previous.get("mode") == record["mode"]
                and previous.get("modes") == record["modes"]):
            return previous
    return None


# -- comparison ---------------------------------------------------------------

def _regresses_upward(name: str) -> bool:
    return name.endswith(LOWER_IS_BETTER)


def compare_records(
    current: dict,
    previous: Optional[dict],
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict:
    """Diff two records; a change past *tolerance* in the bad direction
    is a regression, past it in the good direction an improvement."""
    if previous is None:
        return {
            "comparable": False,
            "reason": "no previous comparable record",
            "metrics": {},
            "regressions": [],
            "improvements": [],
        }
    rows: dict[str, dict] = {}
    regressions: list[str] = []
    improvements: list[str] = []
    for name in sorted(current["metrics"]):
        now = current["metrics"][name]
        then = previous["metrics"].get(name)
        if then is None or then == 0:
            continue
        change = now / then - 1.0
        bad_change = change if _regresses_upward(name) else -change
        verdict = "ok"
        if bad_change > tolerance:
            verdict = "regressed"
            regressions.append(name)
        elif bad_change < -tolerance:
            verdict = "improved"
            improvements.append(name)
        rows[name] = {
            "current": now,
            "previous": then,
            "change": change,
            "verdict": verdict,
        }
    return {
        "comparable": True,
        "baseline_recorded_at": previous.get("recorded_at", ""),
        "tolerance": tolerance,
        "metrics": rows,
        "regressions": regressions,
        "improvements": improvements,
    }


def format_compare(result: dict) -> str:
    if not result["comparable"]:
        return f"compare: skipped ({result['reason']})"
    lines = [
        f"compare vs {result['baseline_recorded_at']} "
        f"(tolerance {result['tolerance']:.0%}):"
    ]
    for name, row in result["metrics"].items():
        mark = {"ok": " ", "regressed": "!", "improved": "+"}[row["verdict"]]
        lines.append(
            f"  {mark} {name:<48} {row['previous']:>14.2f} -> "
            f"{row['current']:>14.2f}  ({row['change']:+.1%})"
        )
    if result["regressions"]:
        lines.append(
            f"REGRESSED: {', '.join(result['regressions'])}"
        )
    else:
        lines.append("no regressions beyond tolerance")
    return "\n".join(lines)
