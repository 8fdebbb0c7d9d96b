"""Trace sinks: where :class:`~repro.obs.trace.TraceBus` events end up.

Two sinks cover the common cases:

* :class:`MemorySink` — keeps records in a Python list, for tests and
  interactive inspection.
* :class:`JsonlSink` — streams one JSON object per line to a file, the
  interchange format documented in ``docs/OBSERVABILITY.md`` (and what
  ``python -m repro trace`` writes).

A sink is anything with ``write(record)``, ``flush()`` and ``close()``;
``record`` is a plain dict owned by the bus — sinks that keep it beyond the
call (as :class:`MemorySink` does) receive a fresh dict per event, so no
copying is needed.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Iterator, List, Optional, Union

__all__ = ["TraceSink", "FilterSink", "MemorySink", "JsonlSink"]


def _json_default(value):
    """Serialize non-JSON-native values (e.g. inf ssthresh) as strings."""
    return str(value)


class TraceSink:
    """Base class / duck-type contract for trace sinks."""

    def write(self, record: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class FilterSink(TraceSink):
    """Forwards only selected event types to an inner sink.

    Unlike the :class:`~repro.obs.trace.TraceBus` ``events=`` filter —
    which suppresses events for *every* sink before an emission index is
    assigned — a FilterSink narrows one sink's view while other sinks on
    the same bus (e.g. an attached invariant monitor, which must see every
    event) keep the full stream.  Emission indices in the filtered output
    are therefore sparse but still strictly increasing.
    """

    def __init__(self, sink: "TraceSink", events):
        self.sink = sink
        self.events = set(events)

    def write(self, record: dict) -> None:
        if record["ev"] in self.events:
            self.sink.write(record)

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()


class MemorySink(TraceSink):
    """Accumulates event records in memory.

    >>> sink = MemorySink()
    >>> bus = TraceBus(sinks=[sink])
    ... # run simulation ...
    >>> sink.of_type("pkt.drop")
    [{'ev': 'pkt.drop', 't': 1.25, ...}, ...]
    """

    def __init__(self, limit: Optional[int] = None):
        #: Optional cap on retained records; older records are NOT evicted —
        #: once full, new records are counted in ``dropped`` and discarded,
        #: which keeps long runs from exhausting memory while preserving
        #: the (deterministic) head of the trace.
        self.limit = limit
        self.events: List[dict] = []
        self.dropped = 0

    def write(self, record: dict) -> None:
        if self.limit is not None and len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(record)

    # -- queries --------------------------------------------------------
    def of_type(self, ev: str) -> List[dict]:
        """All records of one event type, in emission order."""
        return [r for r in self.events if r["ev"] == ev]

    def counts(self) -> Dict[str, int]:
        """Event count per type."""
        return dict(Counter(r["ev"] for r in self.events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.events)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemorySink({len(self.events)} events)"


class JsonlSink(TraceSink):
    """Streams events as JSON Lines to a path or an open text file.

    When given a path the file is opened immediately and closed by
    :meth:`close`; when given a file object the caller keeps ownership and
    ``close()`` only flushes.
    """

    def __init__(self, target: Union[str, "object"]):
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            self._file = open(target, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self.records_written = 0
        self._closed = False

    def write(self, record: dict) -> None:
        self._file.write(json.dumps(record, default=_json_default))
        self._file.write("\n")
        self.records_written += 1

    def flush(self) -> None:
        if not self._closed:
            self._file.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._file.flush()
        if self._owns_file:
            self._file.close()
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JsonlSink({self.records_written} records)"
