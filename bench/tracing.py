"""In-memory spans around obsvalue's public layer functions.

The benchmark measures from outside the package: ``Recorder.patch()``
replaces every ``obsvalue.*`` module attribute that refers to one of the
functions in ``TRACED`` (``binom_pmf``, for example, is bound in ``pbin``,
``lower``, ``upper`` and the package root) by a wrapper that records a span,
and puts the originals back on exit.  Spans stay in memory until
``write_jsonl`` is called at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple

# (module, function) pairs the benchmark times.
TRACED = (
    ("cli", "main"),
    ("rates", "bound_sweep"),
    ("rates", "sweep_summary"),
    ("rates", "reports_to_csv"),
    ("lower", "cube_lower"),
    ("lower", "mixedpbin_mass"),
    ("lower", "bayes_risk_curve"),
    ("pbin", "multinomial_enumerate"),
    ("pbin", "binom_pmf"),
    ("pbin", "pbin_pmf"),
    ("pbin", "pbin_survival"),
    ("upper", "mc_mad"),
    ("upper", "exact_mad"),
    ("upper", "inject_kernel"),
    ("densities", "sample_density"),
    ("streams", "child_rng"),
    ("verify", "run_verify"),
)


def _counters(fn_name: str, fn: Callable) -> Callable | None:
    """Work counts a span of ``fn_name`` records, from its arguments and
    result."""
    if fn_name == "lower.cube_lower":
        return lambda a, kw, res: {"mc_samples": res.samples,
                                   "exact_calls": int(res.method == "exact")}
    if fn_name == "lower.mixedpbin_mass":
        return lambda a, kw, res: {"mc_samples": res.samples}
    if fn_name == "pbin.multinomial_enumerate":
        return lambda a, kw, res: {"rows": int(res[0].shape[0]),
                                   "bytes_computed": int(res[0].nbytes
                                                         + res[1].nbytes)}
    if fn_name == "upper.mc_mad":
        sig = inspect.signature(fn)
        return lambda a, kw, res: {
            "draws": int(sig.bind(*a, **kw).arguments["draws"])}
    if fn_name == "densities.sample_density":
        return lambda a, kw, res: {"draws": int(res.size)}
    return None


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    attrs: dict | None


class Recorder:
    """Collects spans.  A span opened in a worker thread with no open span
    of its own takes as parent the innermost span open in the thread that
    created the recorder (the caller blocked on the thread pool)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level interval measured outside a wrapper."""
        self.spans.append(Span(next(self._ids), name, start, end, None,
                               self.pass_id, None))

    def wrap(self, name: str, fn: Callable,
             counter: Callable | None = None) -> Callable:
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            owner = rec._owner_stack
            parent = stack[-1] if stack else (owner[-1] if owner else None)
            sid = next(rec._ids)
            stack.append(sid)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = (counter(args, kwargs, result)
                         if ok and counter is not None else None)
                rec.spans.append(Span(sid, name, start, end, parent,
                                      rec.pass_id, attrs))

        return traced

    @contextlib.contextmanager
    def patch(self):
        """Swap every ``obsvalue.*`` alias of each target for its wrapper;
        restore all of them on exit, also after an error."""
        by_id: dict[int, tuple[Callable, Callable]] = {}
        for module_name, attr in TRACED:
            module = importlib.import_module(f"obsvalue.{module_name}")
            fn = getattr(module, attr)
            name = f"{module_name}.{attr}"
            by_id[id(fn)] = (fn, self.wrap(name, fn, _counters(name, fn)))
        patched = []
        try:
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "obsvalue" and not mod_name.startswith(
                        "obsvalue."):
                    continue
                for key, value in list(vars(module).items()):
                    hit = by_id.get(id(value))
                    if hit is not None and hit[0] is value:
                        patched.append((module, key, value))
                        setattr(module, key, hit[1])
            yield patched
        finally:
            for module, key, value in reversed(patched):
                setattr(module, key, value)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict(), separators=(",", ":"))
                         + "\n")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover.  Children
    running in parallel threads are counted once (union of intervals)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start)
            - covered_length(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``s`` (summed duration), ``self_s`` and the
    sum of every recorded count."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s in spans:
        agg = out[s.name]
        agg["calls"] += 1
        agg["s"] += s.end - s.start
        agg["self_s"] += own[s.id]
        for key, value in (s.attrs or {}).items():
            agg[key] = agg.get(key, 0) + value
    return dict(out)
