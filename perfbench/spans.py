"""In-memory span recorder with per-thread stacks and self time.

A span is one call of a wrapped function.  Each thread keeps its own stack,
so calls made on the verify suite's pool threads nest correctly; a span's
self time is its duration minus the time of the child spans opened on the
same thread while it was open.  A span that waits for pool threads keeps
that wait in its self time, and busy time summed over threads can exceed
wall time.

A call to an operation from inside a span of the same operation is folded
into the outer span, so ``calls`` counts outermost calls.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

#: spans kept individually; later ones still count in the per-operation totals
SPAN_LIMIT = 50_000


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # per-thread state, merged in totals()
        self.counters = defaultdict(float)
        self.task = None  # label of the request being run, set by the caller
        self.tasks = []  # (label, start, end) of every request run while recording

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"thread": threading.get_ident(), "stack": [], "ops": {}, "by_task": {},
                     "spans": [], "dropped": 0, "top_main": 0.0}
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def count(self, key: str, amount: float = 1.0):
        with self._lock:
            self.counters[key] += amount

    def count_max(self, key: str, value: float):
        with self._lock:
            self.counters[key] = max(self.counters[key], value)

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        state = self._state()
        stack = state["stack"]
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = [name, self.clock(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - frame[1]
            self_s = duration - frame[2]
            op = state["ops"].setdefault(name, [0, 0.0])
            op[0] += 1
            op[1] += self_s
            key = (self.task, name)
            state["by_task"][key] = state["by_task"].get(key, 0.0) + self_s
            if stack:
                stack[-1][2] += duration
            elif state["thread"] == self.main_thread:
                state["top_main"] += duration
            if len(state["spans"]) < SPAN_LIMIT:
                state["spans"].append((name, frame[1], end, len(stack)))
            else:
                state["dropped"] += 1

    def totals(self) -> dict:
        """``{op: [calls, self seconds]}`` summed over threads."""
        out = {}
        for state in list(self._threads):
            for name, (calls, self_s) in state["ops"].items():
                acc = out.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
        return out

    def self_by_task(self) -> dict:
        """``{task: {op: self seconds}}`` summed over threads."""
        out = {}
        for state in list(self._threads):
            for (task, name), self_s in state["by_task"].items():
                ops = out.setdefault(task, {})
                ops[name] = ops.get(name, 0.0) + self_s
        return out

    def main_covered(self) -> float:
        """Seconds of main-thread wall time inside outermost spans."""
        return sum(s["top_main"] for s in self._threads if s["thread"] == self.main_thread)

    def dump(self, path: str):
        """Write every kept span as one JSON line: op, thread, start, end, depth."""
        with open(path, "w") as fh:
            for state in self._threads:
                for name, start, end, depth in state["spans"]:
                    fh.write(json.dumps({"op": name, "thread": state["thread"], "start": start,
                                         "end": end, "depth": depth}) + "\n")
            for label, start, end in self.tasks:
                fh.write(json.dumps({"task": label, "start": start, "end": end}) + "\n")
            dropped = sum(s["dropped"] for s in self._threads)
            fh.write(json.dumps({"dropped_spans": dropped, "limit": SPAN_LIMIT}) + "\n")


def wrap(recorder: Recorder, name: str, fn, before=None, after=None):
    """Wrapper of ``fn`` recording a span; ``before(args)`` runs first and its
    value reaches ``after(value, args, result)``, for counters."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = before(args) if before else None
        result = recorder.call(name, fn, args, kwargs)
        if after:
            after(token, args, result)
        return result

    return traced
