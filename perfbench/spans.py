"""In-memory spans for the traced run, and the percentile helpers.

A span records one public call the benchmark makes: its name, start and
end (``perf_counter`` seconds), the span that enclosed it and the id of
the request it served, plus any counts the caller attaches.  Spans stay
in memory while the workload runs and are written out once, at the end,
so tracing adds no I/O to the measured calls.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np


class Tracer:
    """Collects spans; with ``enabled`` false, :meth:`span` records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._open: List[int] = []

    def span(self, name: str, rid: Optional[int] = None, **attrs):
        """Time the enclosed block; the yielded dict takes extra counts."""
        if not self.enabled:
            return nullcontext({})
        return self._span(name, rid, attrs)

    @contextmanager
    def _span(self, name: str, rid: Optional[int], attrs: Dict) -> Iterator[Dict]:
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None, "rid": rid, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> List[Dict]:
        return [s for s in self.spans if s["name"] == name]

    def seconds(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in recording order."""
        return [s["end"] - s["start"] for s in self.named(name)]

    def by_request(self, name: str) -> Dict[int, float]:
        """Duration of span ``name`` per request id."""
        return {s["rid"]: s["end"] - s["start"] for s in self.named(name)}

    def self_seconds(self, outer: str, inner: str) -> List[float]:
        """Per request: ``outer``'s duration minus ``inner``'s, where the two
        spans replayed the same input at adjacent layer boundaries."""
        inner_by = self.by_request(inner)
        return [t - inner_by[rid] for rid, t in self.by_request(outer).items() if rid in inner_by]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def pct(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0
