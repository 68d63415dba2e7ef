"""Call tracing for the traced benchmark run.

The tracer wraps public functions of the package from outside: it
rebinds the module attributes, and every name another ``rolemodel``
module imported, to a timing wrapper. Nothing under ``src/`` changes.

Each wrapped call opens a frame on a stack. When the frame closes, its
duration is added to its parent's child time, so a frame's self time is
its duration minus the time its children covered. Calls are kept as
spans (name, start, end, parent) only for coarse functions; functions
called once per sample, or thousands of times per op, are aggregated as
a count plus total and self time, so the trace stays small.

Hooks that gather counters after a call (trace sizes, clamp contacts)
are timed and charged to ``trace.bookkeeping``, not to the caller, so
they do not inflate any layer's self time. What the tracer cannot hide
is the cost of the wrapper itself; ``calibrate`` measures it per call.
"""

from __future__ import annotations

import functools
import sys
import time

BOOKKEEPING = "trace.bookkeeping"


class _Frame:
    __slots__ = ("name", "start", "child_s", "span_id")

    def __init__(self, name, start, span_id):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.span_id = span_id


class Tracer:
    """Spans and per-name aggregates for one op at a time.

    ``stats`` maps a name to [calls, total seconds, self seconds] and
    ``counters`` maps a name to a number; both are reset by
    ``begin_op``. ``spans`` accumulates over all ops as tuples
    (op index, span id, name, start, end, parent span id).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.counters = {}
        self.spans = []
        self._stack = []
        self._patches = []
        self._next_id = 0
        self._op = -1

    # -- frames -------------------------------------------------------------

    def _enter(self, name, span):
        span_id = None
        if span:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(name, self.clock(), span_id)
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = self.clock()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"frame {frame.name!r} closed out of order")
        stack.pop()
        duration = end - frame.start
        self._add(frame.name, duration, duration - frame.child_s)
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_s += duration
        if frame.span_id is not None:
            parent_id = None
            for f in reversed(stack):
                if f.span_id is not None:
                    parent_id = f.span_id
                    break
            self.spans.append((self._op, frame.span_id, frame.name, frame.start, end, parent_id))

    def _add(self, name, total_s, self_s):
        entry = self.stats.get(name)
        if entry is None:
            self.stats[name] = [1, total_s, self_s]
        else:
            entry[0] += 1
            entry[1] += total_s
            entry[2] += self_s

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def begin_op(self, index):
        if self._stack:
            raise RuntimeError("an op is already open")
        self.stats = {}
        self.counters = {}
        self._op = index
        return self._enter("op", True)

    def end_op(self, frame):
        self._exit(frame)

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name, fn, span=False, after=None):
        """A wrapper that times ``fn`` under ``name``. ``after(tracer,
        args, result)`` runs once the call returned, outside its timing."""
        enter, leave, clock = self._enter, self._exit, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if after is not None:
                t0 = clock()
                after(self, args, result)
                spent = clock() - t0
                if self._stack:
                    self._stack[-1].child_s += spent
                self._add(BOOKKEEPING, spent, spent)
            return result

        return traced

    def patch_function(self, module, attr, name, span=False, after=None):
        """Rebind ``module.attr`` and every alias of it in the package."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, span, after)
        root = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == root or mod_name.startswith(root + ".")):
                continue
            for key in [k for k, v in vars(mod).items() if v is original]:
                self._patches.append((mod, key, original))
                setattr(mod, key, wrapper)

    def patch_method(self, cls, attr, name, span=False, after=None):
        """Rebind a plain method or classmethod on its class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self.wrap(name, raw.__func__, span, after))
        else:
            wrapper = self.wrap(name, raw, span, after)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapper)

    def uninstall(self):
        while self._patches:
            obj, key, value = self._patches.pop()
            setattr(obj, key, value)


def self_time_total(stats) -> float:
    """Sum of self times over every traced name, the op root included."""
    return sum(entry[2] for entry in stats.values())


def calibrate(calls: int = 200_000, clock=time.perf_counter) -> float:
    """Cost of one aggregated wrapper around a no-op, in nanoseconds.

    Measured as (wrapped loop - bare loop) / calls inside an open op, so
    it includes the frame bookkeeping the traced run pays per call.
    """

    def noop():
        return None

    tracer = Tracer(clock)
    wrapped = tracer.wrap("noop", noop)
    frame = tracer.begin_op(0)
    t0 = clock()
    for _ in range(calls):
        noop()
    bare = clock() - t0
    t0 = clock()
    for _ in range(calls):
        wrapped()
    traced = clock() - t0
    tracer.end_op(frame)
    return (traced - bare) / calls * 1e9
