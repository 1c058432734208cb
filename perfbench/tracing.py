"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code around each call into a
capsloc layer's public functions; nothing inside the package is
instrumented. Every span carries a name (`<layer>.<function>`), start and
end times from `time.perf_counter`, the index of its parent span, and the
run id shared by the whole run. Spans stay in memory until `write` is
called when the run ends.

Episodes are the root spans (`bench.setup` or `bench.pass`); counts are
added to the open episode. Per-layer metrics come from the fastest episode
that calls the layer, for the reason given in `run.py`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # dicts: name, start, end, parent, run[, counts]
        self._stack = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")

    def add(self, key: str, value) -> None:
        """Add to a count on the current episode (the outermost open span)."""
        counts = self.spans[self._stack[0]].setdefault("counts", {})
        counts[key] = counts.get(key, 0) + value

    # --- analysis -----------------------------------------------------------

    def episodes(self, kind: str) -> list:
        """Indices of the root spans named `bench.<kind>`."""
        return [
            i for i, s in enumerate(self.spans)
            if s["parent"] is None and s["name"] == f"bench.{kind}"
        ]

    def _episode_of(self, index: int) -> int:
        while self.spans[index]["parent"] is not None:
            index = self.spans[index]["parent"]
        return index

    def fastest(self, name: str):
        """(summed duration of the spans called `name`, counts) of the
        episode where that sum is smallest; (0.0, {}) if there is none."""
        totals = {}
        for i, s in enumerate(self.spans):
            if s["name"] == name:
                ep = self._episode_of(i)
                totals[ep] = totals.get(ep, 0.0) + s["end"] - s["start"]
        if not totals:
            return 0.0, {}
        ep = min(totals, key=totals.get)
        return totals[ep], self.spans[ep].get("counts", {})

    def self_times(self, episode: int) -> dict:
        """Self time per layer within one episode.

        A span's self time is its duration minus the part of it covered by
        its child spans; the layer is the span name's first component, and
        the root span counts as the benchmark harness (`bench`)."""
        children = {}
        for i, s in enumerate(self.spans):
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(i)
        layers = {}
        todo = [episode]
        while todo:
            i = todo.pop()
            s = self.spans[i]
            kids = children.get(i, [])
            covered = _union_length(
                (self.spans[j]["start"], self.spans[j]["end"]) for j in kids
            )
            layer = s["name"].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + s["end"] - s["start"] - covered
            todo.extend(kids)
        return layers


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
