"""Spans and counts at the runtime's layer boundaries, for the traced run.

Entering a ``Tracer`` context replaces attributes of the ``dataspace``
modules with thin wrappers; leaving it puts the originals back.  Only calls
that cross into a layer are wrapped: a method of the layer's class, or a
name that another module imported from the layer (so recursion inside
``values`` is not counted as a call into it).  A target that does not exist
is listed in ``absent`` instead of raising, so the traced run keeps working
when a refactor removes a function from the hot path.

Spans are kept in memory as ``(name, start_ns, end_ns, parent, round)``
tuples, where ``parent`` is the index of the enclosing span (-1 for none)
and ``round`` is the driver's round id at the time (``SETUP`` before the
measured rounds).  ``write`` puts them out as JSON lines at the end.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from functools import partial

SETUP = -1

# (module, attribute, span name): calls timed as spans
SPANS = (
    ("network", "Network.run_until_quiescent", "network.run"),
    ("network", "Network.dispatch_one", "network.dispatch"),
    ("network", "Network.interpret_action", "network.action"),
    ("network", "Network.spawn", "network.spawn"),
    ("network", "Network.terminate_actor", "network.terminate"),
    ("network", "visible", "patches.visible"),
    ("network", "interests_of", "patches.interests_of"),
    ("network", "clamp_patch", "patches.clamp"),
    ("network", "apply_patch", "patches.apply"),
    ("network", "delta", "patches.delta"),
    ("network", "patch_jsonable", "tracing.encode"),
    ("network", "to_jsonable", "tracing.encode"),
    ("tracing", "TraceLog.emit", "tracing.emit"),
    ("reactive", "ReactiveState.collect_actions", "reactive.step"),
    ("reactive", "ReactiveState.install_group", "reactive.install"),
    ("reactive", "ReactiveState.teardown_group", "reactive.teardown"),
)

# (module, attribute, counter): calls counted, not timed, because a span per
# call would cost more than the call; ``replay`` times these on their own
COUNTS = (
    ("patches", "intersect", "values.intersect"),
    ("reactive", "intersect", "values.intersect"),
    ("network", "matches", "values.matches"),
    ("reactive", "matches", "values.matches"),
)

# interpret_action spans are named after the action they interpret
_ACTION_SPANS = {"PatchAction": "network.patch", "MessageAction": "network.message"}

# spans whose arguments are kept for the replay timings (counted calls always are)
_SAMPLED = ("patches.clamp", "patches.apply", "patches.delta")


class Sampler:
    """Keeps at most ``cap`` items spread evenly over everything offered.

    Every ``stride``-th item is kept; when the list fills, every other kept
    item is dropped and the stride doubles.
    """

    def __init__(self, cap: int = 512):
        self.cap = cap
        self.items: list = []
        self.stride = 1
        self.seen = 0

    def offer(self, item) -> None:
        self.seen += 1
        if self.seen % self.stride:
            return
        self.items.append(item)
        if len(self.items) >= self.cap:
            del self.items[::2]
            self.stride *= 2


class Tracer:
    """Spans, counters and argument samples of one traced run."""

    def __init__(self):
        self.spans: list = []
        self.round = SETUP
        self.absent: list[str] = []
        self.calls: Counter = Counter()  # counted calls since ``measuring``
        self.hits: Counter = Counter()
        self.idle_steps = 0
        self.deliveries = 0  # message events dispatched
        self.queue_max = 0
        self.live_at: dict[int, int] = {}  # patch span index -> live actors
        self.samples = defaultdict(Sampler)
        self._stack = [-1]
        self._undo: list = []

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        # span name -> (before, after): ``before`` returns the span's label
        hooks = {
            "network.dispatch": (self._count_delivery, self._note_queue),
            "network.action": (self._label_action, None),
            "reactive.step": (None, self._count_idle),
        }
        for module, attr, name in SPANS:
            before, after = hooks.get(name, (None, None))
            self._replace(module, attr, partial(self._span, name=name, before=before, after=after))
        for module, attr, name in COUNTS:
            self._replace(module, attr, partial(self._count, name=name))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _replace(self, module: str, attr: str, make) -> None:
        owner = importlib.import_module(f"dataspace.{module}")
        *path, key = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = vars(owner).get(key) if owner is not None else None
        if not callable(original):
            self.absent.append(f"{module}.{attr}")
            return
        self._undo.append((owner, key, original))
        setattr(owner, key, make(original))

    # -- wrappers -------------------------------------------------------------

    def behaviour(self, fn):
        """Span for one of the benchmark's own behaviour functions."""
        return self._span(fn, "bench.behaviour")

    def _span(self, fn, name: str, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        sampler = self.samples[name] if name in _SAMPLED else None

        def wrapper(*args, **kwargs):
            label = name if before is None else before(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent, self.round)
            if after is not None:
                after(args, result)
            if sampler is not None:
                sampler.offer(args)
            return result

        return wrapper

    def _count(self, fn, name: str):
        calls, hits, sampler = self.calls, self.hits, self.samples[name]

        def wrapper(*args):
            result = fn(*args)
            calls[name] += 1
            if result is not None and result is not False:
                hits[name] += 1
            sampler.offer(args)
            return result

        return wrapper

    def _count_delivery(self, args) -> str:
        queue = args[0].queue
        if queue and type(queue[0][1]).__name__ == "MessageEvent":
            self.deliveries += 1
        return "network.dispatch"

    def _note_queue(self, args, result) -> None:
        self.queue_max = max(self.queue_max, len(args[0].queue))

    def _label_action(self, args) -> str:
        net, _, action = args
        label = _ACTION_SPANS.get(type(action).__name__, "network.action")
        if label == "network.patch":
            self.live_at[len(self.spans)] = len(net.actors)
        return label

    def _count_idle(self, args, result) -> None:
        if not result:
            self.idle_steps += 1

    # -- analysis -------------------------------------------------------------

    def measuring(self) -> None:
        """Start the measured rounds: counters restart; the driver numbers rounds from 1."""
        self.round = 0
        self.calls.clear()
        self.hits.clear()
        self.idle_steps = self.deliveries = self.queue_max = 0

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for (_, start, end, _, _) in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def per_name(self) -> dict[str, tuple[int, int]]:
        """span name -> (calls, total self ns), over the measured rounds."""
        out: dict[str, list] = defaultdict(lambda: [0, 0])
        for span, own in zip(self.spans, self.self_times()):
            if span[4] == SETUP:
                continue
            acc = out[span[0]]
            acc[0] += 1
            acc[1] += own
        return {k: (v[0], v[1]) for k, v in out.items()}

    def patch_exponent(self) -> tuple[float, int]:
        """Log-log slope of patch span time against live actors, over N/4..N.

        Uses the inclusive span time: the visibility recount the patch
        triggers runs in child spans, and it is what scales with N.
        """
        points = [
            (self.live_at[i], self.spans[i][2] - self.spans[i][1])
            for i in self.live_at
            if self.spans[i][4] == SETUP
        ]
        top = max((n for n, _ in points), default=0)
        fit = [(math.log(n), math.log(t)) for n, t in points if n * 4 >= top and t > 0]
        if len({x for x, _ in fit}) < 2:
            return 0.0, len(fit)
        return statistics.linear_regression(*zip(*fit)).slope, len(fit)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
