"""Span tracer that wraps gpsbench functions where their callers look them up.

Each target names the module attribute a caller reads at call time (for
example `gpsbench.bench.gps_sample`, which `run_online` calls by that name),
so wrapping it sees every call without editing the library. A target that no
longer resolves to a plain function is recorded as absent instead of failing,
so the library can delete or rename APIs without breaking the traced mode.

Spans (trace, span, parent, name, start_ns, end_ns) are kept in memory as a
flat int64 array and written out when the benchmark ends. A layer's self time
is its span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

import numpy as np

SPAN_FIELDS = ("trace", "span", "parent", "name", "start_ns", "end_ns")
_WIDTH = len(SPAN_FIELDS)


def _count_offer(counters, args, result):
    counters["buffer.offer.accepted"] += bool(result[0])


def _count_snapshot(counters, args, result):
    counters["buffer.snapshot.bytes"] += len(result)


def _count_replay(counters, args, result):
    counters["assembly.replay_groups_requested"] += args[1]
    counters["assembly.replay_images"] += len(result)


def _count_rows(counters, args, result):
    counters["learner.train_step.rows"] += result.stream_size + result.replay_size


@dataclass(frozen=True)
class Target:
    """One wrapped function: metric name, the module a caller reads it from,
    the attribute path inside that module, and an optional counter hook
    called as count(counters, args, result) after each successful call."""

    name: str
    module: str
    attr: str
    count: Callable | None = None


# The only hook of the untraced mode: it splits each run into set-up and
# online phases.
ONLINE = Target("bench.run_online", "gpsbench.cli", "run_online")

TARGETS = (
    Target("cli.run_one_seed", "gpsbench.cli", "run_one_seed"),
    ONLINE,
    Target("bench.generate_synthetic", "gpsbench.cli", "generate_synthetic"),
    Target("bench.split_tasks", "gpsbench.cli", "split_tasks"),
    Target("learner.init_params", "gpsbench.learner", "init_params"),
    Target("imaging.Rng.split", "gpsbench.imaging", "Rng.split"),
    Target("sampler.gps_sample", "gpsbench.bench", "gps_sample"),
    Target("buffer.offer", "gpsbench.buffer", "ReplayBuffer.offer", _count_offer),
    Target("buffer.snapshot", "gpsbench.buffer", "ReplayBuffer.snapshot", _count_snapshot),
    Target("assembly.draw_replay_batch", "gpsbench.bench", "draw_replay_batch",
           _count_replay),
    Target("assembly.upsample", "gpsbench.learner", "upsample"),
    Target("learner.ncm_prototypes", "gpsbench.learner", "ncm_prototypes"),
    Target("learner.classify_batch", "gpsbench.learner", "classify_batch"),
    Target("learner.softmax_classify_batch", "gpsbench.learner", "softmax_classify_batch"),
    Target("learner.train_step", "gpsbench.learner", "train_step", _count_rows),
)


def _resolve(target):
    """(owner, attribute name, function) for a target, or None if it is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    fn = vars(owner).get(name)
    if not inspect.isfunction(fn):
        return None
    return owner, name, fn


class Tracer:
    """Wraps the resolved targets while used as a context manager.

    Entering installs the wrappers; leaving restores the original functions,
    so code outside a `with tracer:` block (output checks, for instance)
    runs untraced. Single-threaded: spans nest strictly.
    """

    def __init__(self, targets):
        self.names = [t.name for t in targets]
        self.absent = []
        self.records = array("q")
        self.counters = Counter()
        self._stack = []
        self._ids = itertools.count(1)
        self._patches = []
        for code, target in enumerate(targets):
            found = _resolve(target)
            if found is None:
                self.absent.append(target.name)
                continue
            owner, name, fn = found
            self._patches.append((owner, name, fn, self._wrap(code, fn, target.count)))

    def _wrap(self, code, fn, count):
        stack, records, ids, counters = self._stack, self.records, self._ids, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = next(ids)
            parent = stack[-1] if stack else 0
            trace = stack[0] if stack else span
            stack.append(span)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                records.extend((trace, span, parent, code, start, end))
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def __enter__(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, fn, _ in reversed(self._patches):
            setattr(owner, name, fn)
        return False

    def _spans(self):
        return np.frombuffer(self.records, dtype=np.int64).reshape(-1, _WIDTH)

    def last(self, name):
        """(start_ns, end_ns) of the most recent finished span with this name."""
        code = self.names.index(name)
        r = self.records
        for i in range(len(r) - _WIDTH, -1, -_WIDTH):
            if r[i + 3] == code:
                return r[i + 4], r[i + 5]
        raise LookupError(f"no {name} span recorded; is {name} absent?")

    def totals(self):
        """Per name: (call count, self time in ns), over every span recorded."""
        spans = self._spans()
        duration = spans[:, 5] - spans[:, 4]
        child = np.bincount(spans[:, 2], weights=duration,
                            minlength=int(spans[:, 1].max(initial=0)) + 1)
        self_ns = duration - child[spans[:, 1]]
        n = len(self.names)
        calls = np.bincount(spans[:, 3], minlength=n)
        busy = np.bincount(spans[:, 3], weights=self_ns, minlength=n)
        return {name: (int(calls[i]), float(busy[i])) for i, name in enumerate(self.names)}

    def write(self, path):
        """All spans as tab-separated text, one per line, in finishing order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\t".join(SPAN_FIELDS) + "\n")
            for trace, span, parent, code, start, end in self._spans().tolist():
                fh.write(f"{trace}\t{span}\t{parent}\t{self.names[code]}\t{start}\t{end}\n")
