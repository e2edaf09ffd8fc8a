"""In-memory span recorder for the traced benchmark run.

Each span records its name, start and end (``time.perf_counter`` seconds),
the index of the span open around it, item counts reported by the code
inside it, and the process's resident-memory high-water mark when it
closed.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager


def rss_high_water_mb():
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        """Time the enclosed block; yields a dict for the block's counts."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
            "rss_mb": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record["counts"]
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()
            record["rss_mb"] = rss_high_water_mb()

    def missing(self, names):
        """Names among ``names`` with no closed span recorded."""
        closed = {s["name"] for s in self.spans if s["end"] is not None}
        return [name for name in names if name not in closed]
