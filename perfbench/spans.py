"""Spans around the public calls the ``mdsr`` CLI makes, installed from
the benchmark's own code by swapping module and class attributes.

Each wrapped call pushes a frame; on return its self time (duration
minus the time of wrapped calls inside it) is added to its name.  Calls
made millions of times (``prefers``, ``is_blocking``, ``first_choice``)
are counted and timed the same way but not stored as individual spans,
which keeps memory bounded; every other call is kept as a span of
(name, start, end, parent) in memory until ``write`` at the end of a run.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from functools import wraps

# A traced name starts with its layer: the mdsr module that defines it.
LAYERS = ("cli", "io", "core", "poset", "solvers", "stability")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self.op = None
        self.reset()

    def reset(self) -> None:
        """Start the per-pass accumulators afresh (spans are kept)."""
        self.self_s: dict = defaultdict(float)  # (op kind, name) -> seconds
        self.calls: Counter = Counter()  # name -> calls
        self.counts: Counter = Counter()  # named work counters

    def call(self, name: str, fn, args, kwargs, keep: bool):
        stack = self._stack
        parent = stack[-1][3] if stack else None
        start = time.perf_counter()
        index = None
        if keep:
            index = len(self.spans)
            self.spans.append([name, start, None, parent])
        frame = [name, start, 0.0, index if keep else parent]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[(self.op, name)] += duration - frame[2]
            self.calls[name] += 1
            if stack:
                stack[-1][2] += duration
            if keep:
                self.spans[index][2] = end

    def parent_name(self):
        return self._stack[-1][0] if self._stack else None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": self.spans},
                handle,
                separators=(",", ":"),
            )


def _wrap(tracer: Tracer, name: str, fn, keep: bool, after=None):
    @wraps(fn)
    def traced(*args, **kwargs):
        try:
            result = tracer.call(name, fn, args, kwargs, keep)
        except Exception as exc:
            if after is not None:
                after(tracer, args, None, exc)
            raise
        if after is not None:
            after(tracer, args, result, None)
        return result

    return traced


def _bytes_in(tracer, args, result, exc):
    # The benchmark's documents are ASCII, so characters are bytes.
    tracer.counts["io.bytes_in"] += len(args[0])


def _poset_built(tracer, args, result, exc):
    if result is not None:
        # Comparable pairs: each agent compares with n-1-kappa_of(v) others.
        n = result.n
        incomparable = sum(result.kappa_of(v) for v in range(n))
        tracer.counts["poset.closure_size"] += (n * (n - 1) - incomparable) // 2


def _greedy_done(tracer, args, result, exc):
    if result is not None:
        tracer.counts["solvers.greedy_steps"] += len(result.steps)


def _blocking_done(tracer, args, result, exc):
    if exc is not None:
        if type(exc).__name__ == "TooLarge":
            tracer.counts["stability.guard_trips"] += 1
        return
    if tracer.parent_name() == "stability.enumerate_stable":
        tracer.counts["stability.matchings_scanned"] += 1
        if result is None:
            tracer.counts["stability.stable_found"] += 1


def targets():
    """(owner, attribute, traced name, kept as spans, after-hook) for every
    call the CLI makes into io, core, poset, solvers and stability."""
    from mdsr import cli, core, solvers, stability
    from mdsr.core import Instance
    from mdsr.poset import Poset

    return [
        (cli, "parse_instance", "io.parse_instance", True, _bytes_in),
        (cli, "parse_matching", "io.parse_matching", True, _bytes_in),
        (cli, "serialize_matching", "io.serialize_matching", True, None),
        (Poset, "from_pairs", "poset.from_pairs", True, _poset_built),
        (Poset, "from_ranking", "poset.from_ranking", True, None),
        (Poset, "kappa", "poset.kappa", True, None),
        (Poset, "width", "poset.width", True, None),
        (core, "lpo_order", "poset.lpo_order", True, None),
        (cli, "verify_lpo", "poset.verify_lpo", True, None),
        (Instance, "explicit", "core.instance_build", True, None),
        (Instance, "master_list", "core.instance_build", True, None),
        (Instance, "master_poset", "core.instance_build", True, None),
        (Instance, "prefers", "core.prefers", False, None),
        (Instance, "first_choice", "core.first_choice", False, None),
        (cli, "strict_order_solve", "solvers.strict", True, None),
        (cli, "greedy_big_d_solve", "solvers.greedy", True, _greedy_done),
        (cli, "fpt_dp_solve", "solvers.dp", True, None),
        (cli, "brute_force_solve", "stability.brute_force_solve", True, None),
        (stability, "brute_force_solve", "stability.brute_force_solve", True, None),
        (stability, "enumerate_stable", "stability.enumerate_stable", True, None),
        (cli, "find_blocking", "stability.find_blocking", True, _blocking_done),
        (solvers, "find_blocking", "stability.find_blocking", True, _blocking_done),
        (stability, "find_blocking", "stability.find_blocking", True, _blocking_done),
        (stability, "is_blocking", "stability.is_blocking", False, None),
    ]


class installed:
    """Context manager: trace every target while active, then restore the
    original attributes."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        for owner, attr, name, keep, after in targets():
            raw = owner.__dict__[attr]
            self.saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(self.tracer, name, raw.__func__, keep, after))
            else:
                new = _wrap(self.tracer, name, raw, keep, after)
            setattr(owner, attr, new)
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self.saved):
            setattr(owner, attr, raw)
        self.saved.clear()
        return False
