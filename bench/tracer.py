"""In-memory spans around wrapped functions, with optional memory peaks.

A span is (name, start, end, parent, job, peak_bytes). Spans nest by
call order in this single-threaded process; a span's self time is its
duration minus the durations of its direct children, which cannot
overlap each other. Nothing is written until the caller asks for the
spans after the run.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict
from typing import Callable

Counter = Callable[[tuple, dict, object], dict[str, float]]


class Tracer:
    """Replaces module attributes with span-recording wrappers until uninstall().

    With memory=True each span also records the tracemalloc peak above the
    traced size at its start; tracemalloc must be running.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job: str | None = None
        self._stack: list[int] = []
        self._peaks: list[list[int]] = []  # per open span: [start_bytes, max_bytes]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, counter: Counter | None = None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(index)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _enter(self, name: str) -> int:
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._peaks:
                self._peaks[-1][1] = max(self._peaks[-1][1], peak)
            tracemalloc.reset_peak()
            self._peaks.append([current, current])
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            start, high = self._peaks.pop()
            high = max(high, peak)
            span[5] = high - start
            if self._peaks:
                self._peaks[-1][1] = max(self._peaks[-1][1], high)
            tracemalloc.reset_peak()

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Summed self time per span name, over the spans from index first on."""
        child = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans[first:]:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(self.spans[first:], first):
            out[name] += end - start - child[i]
        return dict(out)

    def peaks(self) -> dict[str, int]:
        """Largest memory peak per span name, in bytes (memory mode only)."""
        out: dict[str, int] = {}
        for name, _, _, _, _, peak in self.spans:
            if peak is not None:
                out[name] = max(out.get(name, 0), peak)
        return out
