"""Span recording from outside the program.

A :class:`Tracer` patches wrappers onto the names each layer is looked
up by — module attributes, class methods, or attributes of one service
instance — and records a span per call: name, start, end, parent span
and request id.  Per-entity calls (state backend ``get``/``put``) only
add to summed time and a call count, and their time is charged to the
enclosing span as child time so self times stay exact.  Spans live in
memory until :meth:`Tracer.dump`.  :meth:`Tracer.uninstall` restores
every patched name.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict

_NAME, _START, _END, _PARENT, _REQUEST, _CHILD = range(6)


class Tracer:
    def __init__(self):
        # [name, start, end, parent record or None, request, child_s]
        self.spans = []
        self.sums = defaultdict(float)    # name -> seconds (no spans)
        self.counts = defaultdict(int)    # name -> calls / events
        self._local = threading.local()
        self._patches = []
        self._requests = 0
        self._lock = threading.Lock()

    # -- per-thread state -------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def op(self):
        """The service operation this thread is inside ('' when none)."""
        return getattr(self._local, "op", "")

    @contextlib.contextmanager
    def operation(self, op, new_request=False):
        """Mark the thread as inside ``op``; optionally open a request id."""
        previous_op = self.op
        previous_request = getattr(self._local, "request", None)
        self._local.op = op
        if new_request:
            with self._lock:
                self._requests += 1
                self._local.request = self._requests
        try:
            yield
        finally:
            self._local.op = previous_op
            self._local.request = previous_request

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = [name, time.perf_counter(), 0.0, parent,
                  getattr(self._local, "request", None), 0.0]
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record[_END] = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent[_CHILD] += record[_END] - record[_START]

    def charge(self, name, seconds):
        """Add a span-less call's time to ``name`` and to the open span."""
        self.sums[name] += seconds
        self.counts[name] += 1
        stack = self._stack()
        if stack:
            stack[-1][_CHILD] += seconds

    # -- patching ---------------------------------------------------------
    def patch(self, owner, attr, make_wrapper):
        """Replace ``owner.attr`` with ``make_wrapper(original)``.

        Class attributes are read from the class ``__dict__`` so a
        restore puts back exactly what was there.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        functools.update_wrapper(wrapper, original)
        own = isinstance(owner, type) or attr in getattr(owner, "__dict__",
                                                         {})
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr, name, on_call=None):
        """Record a span ``name`` around every call of ``owner.attr``.

        ``on_call(args, kwargs, result)`` may add counts after the call.
        """
        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = original(*args, **kwargs)
                if on_call is not None:
                    on_call(args, kwargs, result)
                return result
            return wrapper
        self.patch(owner, attr, make)

    def wrap_summed(self, owner, attr, name):
        """Summed time and a call count only (for per-entity calls)."""
        def make(original):
            def wrapper(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.charge(name, time.perf_counter() - started)
            return wrapper
        self.patch(owner, attr, make)

    def uninstall(self):
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    # -- summaries --------------------------------------------------------
    def summary(self):
        """Per span name: calls, total seconds, self seconds."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                   "self_s": 0.0})
        for record in self.spans:
            entry = out[record[_NAME]]
            duration = record[_END] - record[_START]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - record[_CHILD]
        return dict(out)

    def durations(self, name):
        return [r[_END] - r[_START] for r in self.spans if r[_NAME] == name]

    def dump(self, path):
        """Write every span as one JSON line."""
        ids = {id(record): index for index, record in enumerate(self.spans)}
        with open(path, "w") as handle:
            for index, r in enumerate(self.spans):
                parent = -1 if r[_PARENT] is None else ids[id(r[_PARENT])]
                handle.write(json.dumps({
                    "id": index, "name": r[_NAME], "start": r[_START],
                    "end": r[_END], "parent": parent,
                    "request": r[_REQUEST]}) + "\n")


class TimedRLock:
    """A reentrant lock that records how long each acquire waited.

    Placed on a service instance in place of its ``RLock``; the wait is
    attributed to the acquiring thread's current operation and recorded
    as a ``serving.service.lock_wait`` span when the thread is inside a
    query, so a query's spans show its lock wait.
    """

    def __init__(self, tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def acquire(self, blocking=True, timeout=-1):
        tracer = self._tracer
        op = tracer.op
        if op == "query":
            with tracer.span("serving.service.lock_wait"):
                acquired = self._inner.acquire(blocking, timeout)
            return acquired
        started = time.perf_counter()
        acquired = self._inner.acquire(blocking, timeout)
        tracer.charge("lock_wait." + (op or "other"),
                      time.perf_counter() - started)
        return acquired

    def release(self):
        self._inner.release()

    __enter__ = acquire

    def __exit__(self, *exc):
        self.release()

