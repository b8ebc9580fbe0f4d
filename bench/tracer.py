"""Spans and counters recorded around the engine's public layer functions.

A span is ``(name, start, end, parent)``, where ``parent`` is the index of
the enclosing span or -1 for a top-level phase.  Phases (import,
load_model, build, query, export, simulate) are recorded in every run;
layer spans only after :meth:`Tracer.install`, which replaces each layer
function on every ``bigrs`` module that holds it, so calls made through a
module's own imported name are seen too.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (defining module, function name): the public layer boundaries.
LAYERS = (
    ("bigrs.canon", "canonical_key"),
    ("bigrs.matching", "occurrences"),
    ("bigrs.matching", "rewrite"),
    ("bigrs.matching", "has_occurrence"),
    ("bigrs.matching", "apply_rule_all"),
    ("bigrs.analysis", "dtmc_reach"),
    ("bigrs.analysis", "ctmc_reach"),
)

SETUP_PHASES = ("import", "load_model")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.phase_name = None
        self.counts: Counter = Counter()  # (phase, event) -> count
        self.key_bytes = 0
        self.keys_seen: set = set()
        self.key_repeats = 0
        self.reach_iterations: list = []
        self.installed: list = []  # "module.attr" sites replaced

    @contextmanager
    def phase(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        self.phase_name = name
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, self.stack[-1])

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, name, on_result):
        spans, stack, now = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_key(self, key):
        self.key_bytes += len(key)
        if key in self.keys_seen:
            self.key_repeats += 1
        else:
            self.keys_seen.add(key)

    def _on_occurrences(self, matches):
        if matches:
            self.counts[self.phase_name, "occurrence_hits"] += 1

    def _on_outcomes(self, outcomes):
        self.counts[self.phase_name, "outcomes"] += len(outcomes)

    def _on_reach(self, value):
        self.reach_iterations.append(value.iterations)

    def install(self) -> None:
        """Wrap every layer function and count ``Bigraph`` constructions."""
        hooks = {
            "canonical_key": self._on_key,
            "occurrences": self._on_occurrences,
            "apply_rule_all": self._on_outcomes,
            "dtmc_reach": self._on_reach,
            "ctmc_reach": self._on_reach,
        }
        modules = {
            n: m for n, m in sys.modules.items()
            if m is not None and (n == "bigrs" or n.startswith("bigrs."))
        }
        for home, attr in LAYERS:
            original = getattr(modules.get(home), attr, None)
            if original is None:
                continue  # a later refactor removed it: "not observed"
            wrapper = self._wrap(
                original, attr, hooks.get(attr, lambda result: None)
            )
            for mod_name, mod in sorted(modules.items()):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self.installed.append(f"{mod_name}.{name}")

        bigraph_cls = modules["bigrs.bigraph"].Bigraph
        init, counts = bigraph_cls.__init__, self.counts

        def counting_init(obj, *args, **kwargs):
            counts[self.phase_name, "bigraph"] += 1
            init(obj, *args, **kwargs)

        bigraph_cls.__init__ = counting_init

    # -- reduction -------------------------------------------------------

    def phase_times(self) -> dict:
        return {s[0]: s[2] - s[1] for s in self.spans if s[3] == -1}

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds, plus
        the consistency checks of the span tree."""
        child_time = [0.0] * len(self.spans)
        problems = []
        for name, start, end, parent in self.spans:
            if parent >= 0:
                _, pstart, pend, _ = self.spans[parent]
                child_time[parent] += end - start
                if start < pstart or end > pend:
                    problems.append(f"span {name} escapes its parent")
        agg: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        digest_s = 0.0
        self_total = root_total = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            a = agg[name]
            a["calls"] += 1
            a["s"] += end - start
            a["self_s"] += end - start - child_time[i]
            self_total += end - start - child_time[i]
            if parent == -1:
                root_total += end - start
            elif name == "canonical_key" and self.spans[parent][0] == "simulate":
                digest_s += end - start
        if abs(self_total - root_total) > 1e-6:
            problems.append(
                f"self times sum to {self_total:.6f} s, phases to {root_total:.6f} s"
            )
        roots = sorted((s[1], s[2]) for s in self.spans if s[3] == -1)
        for (_, end0), (start1, _) in zip(roots, roots[1:]):
            if start1 < end0:
                problems.append("top-level phases overlap")
        return {
            "spans": dict(agg),
            "self_total_s": self_total,
            "phase_total_s": root_total,
            "simulate_digest_s": digest_s,
            "problems": problems,
        }

    def work_count(self, event: str) -> int:
        """An event count summed over the phases after set-up."""
        return sum(
            n for (phase, ev), n in self.counts.items()
            if ev == event and phase not in SETUP_PHASES
        )

    def write_spans(self, path) -> None:
        """Spans as tab-separated ``name start end parent`` lines, times in
        seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")
