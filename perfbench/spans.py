"""In-memory span recording around calls into polarfec, from the outside.

A call is traced by rebinding a public name in the module that resolves it:
``sweep`` calls ``batch.encode_systematic_rows`` through the module, so
rebinding ``batch.encode_systematic_rows`` catches it, and rebinding
``batch.transform_rows`` also catches the nested call made from inside
``encode_systematic_rows``.  A name imported into another module with
``from x import y`` must be rebound in that module too.  Nothing in the
package is edited; ``restore`` puts every original back.

Per-element functions (``codec.f_minsum``, ``codec.g_func``) are never
wrapped: their per-call cost is below the wrapper's, so timing them would
swamp the spans they sit in.
"""

from __future__ import annotations

import functools
import json
import statistics
from dataclasses import asdict, dataclass, field
from time import perf_counter


@dataclass
class Span:
    """One traced call: [start, end) on perf_counter, parent index or -1."""

    name: str
    start: float
    end: float
    parent: int
    run_id: str
    detail: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class SpanRecorder:
    """Rebinds module attributes to timing wrappers and collects spans."""

    def __init__(self):
        self.spans = []
        self.run_id = ""
        self._stack = []
        self._saved = []

    def wrap(self, module, attr, name=None, detail=None):
        """Trace calls of ``module.attr``.

        name: span name, or a callable (args, kwargs) -> name.  Defaults to
        '<module>.<attr>' with the package prefix dropped.
        detail: optional callable (args, kwargs, result) -> dict stored on the
        span, for counts read from a call's arguments or result.
        """
        original = getattr(module, attr)
        default = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else (name or default)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(span_name, start, end, parent, self.run_id)
            if detail is not None:
                spans[index].detail = detail(args, kwargs, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def select(self, run_ids):
        """Indices of spans recorded under any of the given run ids."""
        run_ids = set(run_ids)
        return [i for i, s in enumerate(self.spans) if s.run_id in run_ids]

    def self_times(self, indices):
        """Self time of each selected span: its duration minus its children's."""
        own = {i: self.spans[i].duration for i in indices}
        for i in indices:
            parent = self.spans[i].parent
            if parent in own:
                own[parent] -= self.spans[i].duration
        return own

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def tail_quantile(samples):
    """The highest of p90, p99 and p99.9 with at least 10 samples beyond it.

    The maximum when there are fewer than 100 samples; 0 when there are none.
    """
    n = len(samples)
    if n == 0:
        return 0.0
    q = 1.0
    for cand in (0.9, 0.99, 0.999):
        if n * (1.0 - cand) >= 10:
            q = cand
    ordered = sorted(samples)
    return ordered[min(n - 1, int(q * n))]


def median(samples):
    return statistics.median(samples) if samples else 0.0


class PoolCounter:
    """Counts pools, chunks and result waits of ``sweep.ProcessPoolExecutor``.

    Installed by rebinding the executor class in the sweep module.  Futures
    handed back to the engine are proxies whose ``result`` is timed (the
    engine's wait) and counted (a chunk consumed); a chunk that ran but was
    never consumed is wasted.  Frames simulated per chunk are read from the
    length of the chunk's per-frame error flags.
    """

    def __init__(self):
        self.pools = 0
        self.futures = []
        self.consumed = 0
        self.wait_s = 0.0

    def install(self, sweep_module):
        counter = self
        base = sweep_module.ProcessPoolExecutor

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                counter.pools += 1

            def submit(self, fn, /, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                counter.futures.append(future)
                return _TimedFuture(future, counter)

        sweep_module.ProcessPoolExecutor = CountingPool
        return base

    def totals(self):
        """(submitted, ran, consumed, frames simulated) over all pools so far."""
        ran = [f for f in self.futures if not f.cancelled()]
        frames = sum(len(f.result()[-1]) for f in ran)
        return len(self.futures), len(ran), self.consumed, frames


class _TimedFuture:
    def __init__(self, future, counter):
        self._future = future
        self._counter = counter

    def result(self, timeout=None):
        start = perf_counter()
        try:
            return self._future.result(timeout)
        finally:
            self._counter.wait_s += perf_counter() - start
            self._counter.consumed += 1

    def __getattr__(self, attr):
        return getattr(self._future, attr)
