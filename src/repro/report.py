"""Rendering and export of experiment tables.

Turns :class:`~repro.experiments.harness.ExperimentTable` rows into
text tables, CSV, or JSON — the CLI's output backends.
"""

from __future__ import annotations

import csv
import io
import json

from repro.common.errors import ConfigError
from repro.experiments.harness import ExperimentTable


def to_csv(table: ExperimentTable) -> str:
    """Render a table as CSV (header row + one line per row)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=table.columns)
    writer.writeheader()
    for row in table.rows:
        writer.writerow({c: row.get(c, "") for c in table.columns})
    return buffer.getvalue()


def to_json(table: ExperimentTable) -> str:
    """Render a table as a JSON document with name/notes/rows."""
    return json.dumps(
        {
            "name": table.name,
            "notes": table.notes,
            "columns": table.columns,
            "rows": table.rows,
        },
        indent=2,
        default=str,
    )


def metrics_summary_table(registry) -> ExperimentTable:
    """One row per metric from a telemetry MetricsRegistry summary.

    Counters report ``value``; gauges report last/peak/mean; histograms
    report count/mean/p50/p99/max.  Unused cells stay blank so the four
    metric shapes share one table.
    """
    table = ExperimentTable(
        name="telemetry metrics",
        columns=[
            "namespace", "metric", "type", "value",
            "count", "mean", "p50", "p99", "max",
        ],
    )
    for namespace, metrics in sorted(registry.summary().items()):
        for short, stats in sorted(metrics.items()):
            kind = stats["type"]
            row = {"namespace": namespace, "metric": short, "type": kind}
            if kind == "counter":
                row["value"] = stats["value"]
            elif kind == "gauge":
                row["value"] = stats["last"]
                row["count"] = stats["samples"]
                row["mean"] = stats["mean"]
                row["max"] = stats["peak"]
            else:
                row["count"] = stats["count"]
                row["mean"] = stats["mean"]
                row["p50"] = stats["p50"]
                row["p99"] = stats["p99"]
                row["max"] = stats["max"]
            table.add(**row)
    return table


FORMATS = ("table", "csv", "json")


def render(table: ExperimentTable, fmt: str = "table") -> str:
    """Render *table* in one of :data:`FORMATS`."""
    if fmt == "table":
        return table.format()
    if fmt == "csv":
        return to_csv(table)
    if fmt == "json":
        return to_json(table)
    raise ConfigError(f"unknown format {fmt!r}; choose from {FORMATS}")
