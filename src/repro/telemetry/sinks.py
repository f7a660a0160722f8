"""Streaming telemetry sinks: spool the event bus to disk incrementally.

A session's in-memory event list holds every published event in
RAM, which caps a run at a few thousand requests.  A
:class:`StreamingSink` consumes the bus incrementally instead: events
are buffered in memory and flushed to disk whenever the buffer crosses
a threshold, so telemetry stays complete on disk while the process
footprint stays flat.  Both file sinks count what reached the file:
``records_written`` (spool rows or trace records), ``bytes_written``
(characters handed to the file) and ``flushes``.

Two writers are provided:

- :class:`JsonlEventSink` — the lossless spool: :func:`iter_jsonl_events`
  reconstructs the original typed event stream, so a spooled run can be
  replayed through :class:`~repro.telemetry.StandardMetrics` (or any
  other bus consumer) after the fact.  ``compress=True`` (or a ``.gz``
  path) writes gzip at :data:`COMPRESS_LEVEL`.
- :class:`ChromeStreamingSink` — Chrome/Perfetto ``trace_event``
  records in the *JSON Array Format* (a bare ``[...]`` array), which
  the trace viewers explicitly accept without the closing ``]`` — a
  crashed run's partial spool is still loadable.

The spool format (:data:`FORMAT`) is positional.  Line 1 is a schema
header, ``{"format": "repro-events/2", "types": [[name, [field, ...]],
...]}``, listing every :data:`EVENT_TYPES` class in sorted-name order.
Every later line is one flush batch: a JSON array of rows
``[type_index, run, v1, v2, ...]`` whose values follow the event
dataclass's field order.  The reader refuses a file whose header
differs from the current schema, so a spool written before an event
type changed fails loudly instead of decoding into the wrong fields.

Crash-safety contract: every flush pushes whole lines/records to the
OS, a partially written trailing line (the process died mid-``write``)
is tolerated and skipped by the reader, and :meth:`close` finalizes
the file (idempotent; both sinks are context managers).  For the JSONL
spool the unit of loss is therefore one flush batch, and a gzip spool
that never got its end-of-stream marker replays every flushed batch.
"""

from __future__ import annotations

import dataclasses
import gzip
import io
import itertools
import json
import operator
import os
from typing import IO, Iterable, Iterator, Optional, Protocol, Sequence, Union

from repro.common.errors import ConfigError
from repro.telemetry import events as _events_module
from repro.telemetry.bus import EventBus
from repro.telemetry.chrome import convert_event, process_metadata
from repro.telemetry.events import TelemetryEvent
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import StandardMetrics

DEFAULT_FLUSH_EVENTS = 1024
DEFAULT_FLUSH_BYTES = 1 << 20  # 1 MiB; ChromeStreamingSink only

#: The JSONL spool's format tag, carried in its schema header.
FORMAT = "repro-events/2"
#: gzip level of compressed spools: zlib's default.  On the grouter
#: recognition event stream, level 9 spent 3x as long compressing for
#: a file 4% smaller, and level 1 wrote a file 49% larger.
COMPRESS_LEVEL = 6

#: Registry of every concrete event type, by class name.  Built once
#: from the events module, so a new event type is spool-able the
#: moment it is defined there.
EVENT_TYPES: dict[str, type] = {
    name: obj
    for name, obj in vars(_events_module).items()
    if isinstance(obj, type)
    and issubclass(obj, TelemetryEvent)
    and dataclasses.is_dataclass(obj)
}


class StreamingSink(Protocol):
    """Anything that can consume a session's event stream incrementally."""

    def handle(self, run: int, event: TelemetryEvent) -> None:
        """Consume one event from run *run* (called in publish order)."""

    def flush(self) -> None:
        """Push buffered output to the OS."""

    def close(self) -> None:
        """Flush and finalize the output (idempotent)."""


# -- serialization -----------------------------------------------------------

def _field_getter(fields: list[str]):
    """``event -> tuple of its field values``, in *fields* order."""
    get = operator.attrgetter(*fields)
    if len(fields) == 1:  # attrgetter of one name returns a bare value
        return lambda event: (get(event),)
    return get


_TYPE_NAMES = sorted(EVENT_TYPES)
#: The schema header every spool starts with, as its JSON value.
SCHEMA = {
    "format": FORMAT,
    "types": [
        [name, [f.name for f in dataclasses.fields(EVENT_TYPES[name])]]
        for name in _TYPE_NAMES
    ],
}
_HEADER_LINE = json.dumps(SCHEMA, separators=(",", ":")) + "\n"
_CLASSES = {index: EVENT_TYPES[name] for index, name in enumerate(_TYPE_NAMES)}
_ENCODERS = {
    EVENT_TYPES[name]: (index, _field_getter(fields))
    for index, (name, fields) in enumerate(SCHEMA["types"])
}
# Rows are tuples of immutable values, so they cannot be circular.
_JSON = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def encode_event(run: int, event: TelemetryEvent) -> tuple:
    """One event -> its spool row ``(type_index, run, v1, v2, ...)``."""
    index, get = _ENCODERS[type(event)]
    return (index, run) + get(event)


def _untuple(value):
    """JSON turned the event's tuples into lists; turn them back."""
    if isinstance(value, list):
        return tuple(_untuple(item) for item in value)
    return value


def decode_event(row: Sequence) -> tuple[int, TelemetryEvent]:
    """Inverse of :func:`encode_event`; raises on unknown event types."""
    cls = _CLASSES.get(row[0])
    if cls is None:
        raise ConfigError(f"unknown telemetry event type index {row[0]!r}")
    return row[1], cls(*map(_untuple, row[2:]))


# -- sink implementations ----------------------------------------------------

class _FileSink:
    """File lifetime and write accounting shared by the file-backed sinks."""

    def __init__(self, path: str, flush_events: int) -> None:
        if flush_events < 1:
            raise ConfigError("flush thresholds must be >= 1")
        self.path = os.fspath(path)
        self.flush_events = flush_events
        self.records_written = 0
        self.bytes_written = 0
        self.flushes = 0
        self._file: Optional[IO[str]] = self._open()

    def _open(self) -> IO[str]:
        return open(self.path, "w")

    @property
    def closed(self) -> bool:
        return self._file is None

    def _check_open(self) -> None:
        if self._file is None:
            raise ConfigError(f"sink {self.path} is closed")

    def _write(self, text: str, records: int) -> None:
        """Hand *text* (whole lines/records) to the file and push it."""
        self._file.write(text)
        self._file.flush()
        self.records_written += records
        self.bytes_written += len(text)
        self.flushes += 1

    def close(self) -> None:
        if self._file is None:
            return
        self.flush()
        self._finalize(self._file)
        self._file.close()
        self._file = None

    def _finalize(self, file: IO[str]) -> None:
        """Hook for format-level trailers, written before close."""

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class JsonlEventSink(_FileSink):
    """Spools the raw event stream, one JSON line per flush batch.

    Lossless: the file (gzip-compressed when ``compress=True`` or the
    path ends in ``.gz``) replays into the identical typed event stream
    via :func:`iter_jsonl_events`.  :meth:`handle` only queues the
    event; every ``flush_events`` events :meth:`flush` encodes the
    batch in one call and writes it as one line.  Deferring the
    encoding is safe because events are frozen and their field values
    immutable.
    """

    def __init__(
        self,
        path: str,
        flush_events: int = DEFAULT_FLUSH_EVENTS,
        compress: Optional[bool] = None,
    ) -> None:
        self.compress = (
            compress
            if compress is not None
            else os.fspath(path).endswith(".gz")
        )
        self._batch: list[tuple[int, TelemetryEvent]] = []
        super().__init__(path, flush_events)

    def _open(self) -> IO[str]:
        if self.compress:
            file = gzip.open(self.path, "wt", compresslevel=COMPRESS_LEVEL)
        else:
            file = open(self.path, "w")
        file.write(_HEADER_LINE)
        self.bytes_written += len(_HEADER_LINE)
        return file

    def handle(self, run: int, event: TelemetryEvent) -> None:
        self._check_open()
        batch = self._batch
        batch.append((run, event))
        if len(batch) >= self.flush_events:
            self.flush()

    def flush(self) -> None:
        if self._file is None or not self._batch:
            return
        rows = [encode_event(run, event) for run, event in self._batch]
        self._write(_JSON.encode(rows) + "\n", len(rows))
        self._batch.clear()


class ChromeStreamingSink(_FileSink):
    """Streams Chrome/Perfetto ``trace_event`` records as they happen.

    Writes the JSON *Array Format* (``[`` + comma-separated records):
    the trace viewers accept it without the closing ``]``, so a run
    that dies mid-flight still leaves a loadable trace.  ``close()``
    appends per-process name metadata and the terminator.  Records are
    buffered and flushed when either ``flush_events`` records or
    ``flush_bytes`` characters are pending.

    ``multi_run`` mirrors :func:`~repro.telemetry.export_chrome_trace`:
    a streaming sink cannot know the final run count up front, so it
    defaults to prefixing pids with ``run<N>:`` — pass ``False`` for
    single-run captures that should match the batch exporter's output.
    """

    def __init__(
        self,
        path: str,
        multi_run: bool = True,
        flush_events: int = DEFAULT_FLUSH_EVENTS,
        flush_bytes: int = DEFAULT_FLUSH_BYTES,
    ) -> None:
        if flush_bytes < 1:
            raise ConfigError("flush thresholds must be >= 1")
        self.flush_bytes = flush_bytes
        self.multi_run = multi_run
        self._buffer: list[str] = []
        self._buffer_bytes = 0
        self._pids: set[str] = set()
        self._first = True
        super().__init__(path, flush_events)

    def _open(self) -> IO[str]:
        file = open(self.path, "w")
        file.write("[\n")
        return file

    def _record(self, record: dict) -> None:
        self._check_open()
        prefix = "" if self._first else ",\n"
        self._first = False
        text = prefix + json.dumps(record, separators=(",", ":"))
        self._buffer.append(text)
        self._buffer_bytes += len(text)
        if (len(self._buffer) >= self.flush_events
                or self._buffer_bytes >= self.flush_bytes):
            self.flush()

    def handle(self, run: int, event: TelemetryEvent) -> None:
        prefix = f"run{run}:" if self.multi_run else ""
        for record in convert_event(event, prefix):
            self._pids.add(record["pid"])
            self._record(record)

    def flush(self) -> None:
        if self._file is None or not self._buffer:
            return
        self._write("".join(self._buffer), len(self._buffer))
        self._buffer.clear()
        self._buffer_bytes = 0

    def _finalize(self, file: IO[str]) -> None:
        trailer = io.StringIO()
        for record in process_metadata(self._pids):
            trailer.write("" if self._first else ",\n")
            self._first = False
            trailer.write(json.dumps(record, separators=(",", ":")))
        trailer.write("\n]\n")
        file.write(trailer.getvalue())


# -- replay ------------------------------------------------------------------

def _parsed_lines(handle: IO[str]) -> Iterator:
    """The file's lines as JSON values, up to a partially written tail.

    Only the final line can lack its newline; if it does not parse, the
    writer died mid-``write`` and the line is dropped.  A gzip stream
    without its end-of-stream marker (the writer never closed it) ends
    the same way.  A damaged line anywhere else raises.
    """
    try:
        for line in handle:
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                if line.endswith("\n"):
                    raise
                return
    except EOFError:
        return


def _check_header(path: str, header) -> None:
    if header == SCHEMA:
        return
    if not (isinstance(header, dict) and header.get("format") == FORMAT
            and isinstance(header.get("types"), list)):
        raise ConfigError(
            f"{path} has no {FORMAT} schema header; spools written "
            "before that format cannot be replayed"
        )
    for ours, theirs in itertools.zip_longest(
        SCHEMA["types"], header["types"]
    ):
        if ours != theirs:
            raise ConfigError(
                f"{path} was written with a different event schema: "
                f"it has {theirs!r} where this version has {ours!r}"
            )


def iter_jsonl_events(
    path: str,
) -> Iterator[tuple[int, TelemetryEvent]]:
    """Replay a :class:`JsonlEventSink` spool as ``(run, event)`` pairs.

    The schema header must equal the current :data:`SCHEMA` (else
    :class:`~repro.common.errors.ConfigError`, naming the file and the
    first differing type).  A partially written final batch (the
    writer crashed mid-flush) is skipped, and so is the missing end of
    an unclosed gzip spool; a corrupt line anywhere else raises, since
    that means the file is damaged rather than merely truncated.
    """
    path = os.fspath(path)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt") as handle:
        lines = _parsed_lines(handle)
        header = next(lines, None)
        if header is None:
            return
        _check_header(path, header)
        for rows in lines:
            for row in rows:
                yield decode_event(row)


def replay_metrics(
    source: Union[str, Iterable[tuple[int, TelemetryEvent]]],
    mode: str = "exact",
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Fold a spooled (or in-memory) event stream into a fresh registry.

    This is the differential oracle path: replaying a JSONL spool in
    ``exact`` mode reproduces the live in-memory summary bit-for-bit;
    in ``bounded`` mode the reservoir seeds derive from metric names,
    so a bounded replay also matches a live bounded registry exactly.
    """
    if registry is None:
        registry = MetricsRegistry(mode=mode)
    bus = EventBus()
    consumer = StandardMetrics(registry).attach(bus)
    if isinstance(source, (str, os.PathLike)):
        source = iter_jsonl_events(source)
    try:
        for _run, event in source:
            bus.publish(event)
    finally:
        consumer.detach()
    return registry
