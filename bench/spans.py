"""In-memory spans around the harness's calls into each layer.

Kept free of ``repro`` imports: the first span a child records is the
``import repro.experiments`` it is about to time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import List

__all__ = ["Spans"]


class Spans:
    """In-memory spans: name, start, end, parent, shared run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.records)
        record = {
            "run": self.run_id, "id": index, "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None,
        }
        self.records.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()
