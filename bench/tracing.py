"""Spans and counters at the boundaries of the library's layers.

The tracer wraps every public function of each layer module, in every
module namespace of the package that holds it (``best_action``, for
example, is bound in ``decision``, ``updating``, ``voi`` and
``scenarios``), so calls between layers are seen too.  Each call records a
span ``(id, parent id, name, start, end)``; the benchmark opens a root span
around each operation.  Spans are kept in memory and folded into per-name
call counts and self times when the operation ends, outside any span.

Two hot methods get counters without spans, since a span per call would
swamp what it measures: ``Credence.__call__`` (credence lookups) and
``Credence.__init__`` (credences built).
"""

from __future__ import annotations

import inspect
import itertools
import sys
from collections import Counter

import lib

ROOT = "bench.op"

SUCCESS = "ok"


class Tracer:
    """Installs wrappers into one load of the package and collects spans.

    ``clock`` times the spans; the benchmark passes one that leaves out its
    speed probes.
    """

    def __init__(self, L: lib.Lib, clock) -> None:
        self.L = L
        self.clock = clock
        self.spans: list[tuple] = []
        self.stack = [0]
        self.ids = itertools.count(1)
        self.counts = Counter()
        self.self_s = Counter()
        self.outcomes = Counter()
        self.lookups = [0]
        self.credences = [0]
        self.best_action_args: list[tuple] = []
        self.by_group: dict[str, Counter] = {}
        self._patches: list[tuple] = []

    # ---------------------------------------------------------------- install

    def install(self) -> None:
        wrapped = {}
        for layer in lib.LAYERS:
            module = getattr(self.L, layer)
            names = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")
            ]
            for name in names:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[fn] = self._span(f"{layer}.{name}", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "infovalue" and not module_name.startswith("infovalue."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(module, attr, wrapped[value])

        credence = self.L.prob.Credence
        lookup, init = credence.__call__, credence.__init__
        lookups, credences = self.lookups, self.credences

        def counted_lookup(self_, state):
            lookups[0] += 1
            return lookup(self_, state)

        def counted_init(self_, *args, **kwargs):
            credences[0] += 1
            init(self_, *args, **kwargs)

        self._patch(credence, "__call__", counted_lookup)
        self._patch(credence, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self.stack, self.ids, self.clock
        best_args = self.best_action_args if name == "decision.best_action" else None
        counts = self.counts

        def traced(*args, **kwargs):
            if best_args is not None:
                best_args.append(args[:2])
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, type(exc).__name__))
                raise
            end = clock()
            stack.pop()
            spans.append((sid, parent, name, start, end, SUCCESS))
            if name == "problemfile.loads":
                counts["problemfile.loads.bytes"] += len(args[0].encode())
            elif name == "problemfile.dumps":
                counts["problemfile.dumps.bytes"] += len(result.encode())
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    # ---------------------------------------------------------------- ops

    def run_op(self, call):
        """Run one operation under a root span."""
        sid = next(self.ids)
        self.stack.append(sid)
        start = self.clock()
        try:
            return call()
        finally:
            end = self.clock()
            self.stack.pop()
            self.spans.append((sid, 0, ROOT, start, end, SUCCESS))

    def fold(self, group: str, scale: float = 1.0) -> None:
        """Fold the spans of the last operation into counts and self times.

        Call counts are also kept per op group (``group``), so that a
        per-operation figure such as best_action calls per mixture
        evaluate can be read off.  Self times are multiplied by ``scale``,
        the op's factor to reference speed.
        """
        per_group = self.by_group.setdefault(group, Counter())
        per_group["ops"] += 1
        names = {}
        child_s = Counter()
        for sid, parent, name, start, end, outcome in self.spans:
            names[sid] = name
            child_s[parent] += end - start
        for sid, parent, name, start, end, outcome in self.spans:
            self.counts[f"{name}.calls"] += 1
            per_group[name] += 1
            self.self_s[name] += ((end - start) - child_s[sid]) * scale
            self.outcomes[(name, outcome)] += 1
            parent_name = names.get(parent)
            if name == "adversary.construct_bet" and parent_name == "adversary.demonstrate_aversion":
                self.counts["adversary.candidates"] += 1
            if name == "voi.evaluate" and parent_name in (
                "properties.random_conditionalization_instance",
                "properties.random_mixture_instance",
            ):
                self.counts["properties.evaluate_attempts"] += 1
        distinct = {(id(problem), credence) for credence, problem in self.best_action_args}
        self.counts["decision.best_action.distinct_posteriors"] += len(distinct)
        per_group["decision.best_action.distinct_posteriors"] += len(distinct)
        self.counts["spans"] += len(self.spans)
        self.spans.clear()
        self.best_action_args.clear()

    def take(self) -> dict:
        """Counters and self times since the last call, then reset them."""
        counts = Counter(self.counts)
        counts["prob.credence_lookup.calls"] = self.lookups[0]
        counts["prob.credence_new.calls"] = self.credences[0]
        out = {
            "counts": counts,
            "self_s": Counter(self.self_s),
            "outcomes": Counter(self.outcomes),
            "by_group": self.by_group,
        }
        self.by_group = {}
        self.counts.clear()
        self.self_s.clear()
        self.outcomes.clear()
        self.lookups[0] = self.credences[0] = 0
        return out
