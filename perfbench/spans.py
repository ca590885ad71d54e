"""In-memory span recorder.

A span is [name, start, end, parent], with times from `time.perf_counter`
and parent the index of the enclosing span (-1 at top level). Spans are
appended at entry, so a parent always precedes its children. Library calls
are traced by swapping module attributes for wrappers while a `patched`
block is open; nothing in the library is edited.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _enter(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._enter(name)
        try:
            yield
        finally:
            self._exit(rec)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(rec)
        return traced

    @contextmanager
    def patched(self, targets):
        """Trace calls made through each (module, attribute, span name)."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        for (mod, attr, name), (_, _, fn) in zip(targets, saved):
            setattr(mod, attr, self.wrap(name, fn))
        try:
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as f:
            json.dump({"names": names,
                       "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}, f)


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of its interval that its
    direct children cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, s, e, p in spans:
        if p >= 0:
            children[p].append((s, e))
    out = []
    for i, (_, s, e, _) in enumerate(spans):
        covered, run_s, run_e = 0.0, None, None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, s), min(ce, e)
            if ce <= cs:
                continue
            if run_e is None or cs > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = cs, ce
            else:
                run_e = max(run_e, ce)
        if run_e is not None:
            covered += run_e - run_s
        out.append((e - s) - covered)
    return out


def roots(spans: list[list]) -> list[int]:
    """Index of each span's top-level ancestor (itself at top level)."""
    out: list[int] = []
    for i, (_, _, _, p) in enumerate(spans):
        out.append(i if p < 0 else out[p])
    return out
