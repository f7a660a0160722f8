"""Deterministic identifier generation.

The simulator must be fully reproducible, so identifiers come from
per-prefix monotonic counters instead of ``uuid``.  A fresh
:class:`IdGenerator` is created per simulation run, so two runs with the
same seed produce identical identifier streams.
"""

from __future__ import annotations

from collections import defaultdict


class IdGenerator:
    """Produces identifiers like ``data-0``, ``data-1``, ``fn-0``, ...

    One generator is shared per simulation context; prefixes are
    independent counters.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = defaultdict(int)

    def next(self, prefix: str) -> str:
        """Return the next identifier for *prefix*."""
        value = self._counters[prefix]
        self._counters[prefix] = value + 1
        return f"{prefix}-{value}"

    def peek(self, prefix: str) -> int:
        """Return the next counter value without consuming it."""
        return self._counters[prefix]
