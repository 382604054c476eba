"""Spans around calls into hoferlab, recorded from outside the package.

Nothing in the package changes.  While a `Tracer` is installed, every module
attribute of the package that is bound to a traced function is replaced by
a wrapper (so the package's own global lookups hit it), and traced methods
are replaced on their class.  Each call records a span: name, parent span,
start, end and an optional work count.  Spans stay in memory until the
scenario they belong to ends; `fold` then turns them into per-layer totals
and self times and clears them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

SCAN_SPANS = ("crossings.find", "crossings.rs_index")


def _integrate_steps(fn):
    signature = inspect.signature(fn)
    if "steps" not in signature.parameters:
        return None

    def note(args, kwargs, _result):
        return int(signature.bind(*args, **kwargs).arguments.get(
            "steps", signature.parameters["steps"].default))

    return note


def _result_length(_fn):
    return lambda _args, _kwargs, result: len(result)


# (span name, module holding the name, attribute path, work-count factory)
TARGETS = (
    ("cli.main", "hoferlab.cli", "main", None),
    ("morse.verify_theorem", "hoferlab.morse", "verify_theorem", None),
    ("morse.check_nondegenerate", "hoferlab.morse", "check_nondegenerate", None),
    ("models.validate", "hoferlab.models", "validate_ustilovsky", None),
    ("models.hofer_lengths", "hoferlab.models", "hofer_lengths", None),
    ("flows.integrate", "hoferlab.flows", "integrate", _integrate_steps),
    ("flows.generator", "hoferlab.flows", "HessianPath.__call__", None),
    ("flows.sigma_min_nodes", "hoferlab.flows", "SymplecticPath.sigma_min_nodes", None),
    ("flows.evaluate", "hoferlab.flows", "evaluate", None),
    ("symplectic.expm", "hoferlab.symplectic", "symplectic_expm", None),
    ("crossings.find", "hoferlab.crossings", "find_crossings", _result_length),
    ("crossings.rs_index", "hoferlab.crossings", "rs_index", None),
    ("crossings.refine", "hoferlab.crossings", "minimize_scalar", None),
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, count]
        self._stack = [-1]
        self.absent: list[str] = []
        self.totals: dict[str, float] = defaultdict(float)

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1], clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding site of every target; restore them on exit."""
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hoferlab" or n.startswith("hoferlab."))]
        undo = []
        self.absent = []
        try:
            for name, module_name, attr_path, note_factory in TARGETS:
                owner = sys.modules.get(module_name)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.absent.append(f"{module_name}.{attr_path}")
                    continue
                note = note_factory and note_factory(original)
                wrapper = self._wrap(name, original, note)
                sites = [owner] if outer else [m for m in package
                                               if getattr(m, attr, None) is original]
                for site in sites:
                    undo.append((site, attr, original))
                    setattr(site, attr, wrapper)
            yield self
        finally:
            for site, attr, original in reversed(undo):
                setattr(site, attr, original)

    def fold(self, scale: float = 1.0) -> None:
        """Add the finished spans, durations times `scale`, to the totals.

        The spans are dropped afterwards.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end, _count in spans:
            if parent >= 0:
                child_time[parent] += end - start
        scans = set()
        t = self.totals
        for i, (name, parent, start, end, count) in enumerate(spans):
            t[name + ".calls"] += 1
            t[name + ".s"] += scale * (end - start)
            t[name + ".self_s"] += scale * (end - start - child_time[i])
            t[name + ".count"] += count
            if name == "flows.evaluate":
                while parent >= 0 and spans[parent][0] not in SCAN_SPANS:
                    parent = spans[parent][1]
                if parent >= 0:
                    scans.add(parent)
                    t["scan.evaluate.calls"] += 1
        t["scan.count"] += len(scans)
        spans.clear()
