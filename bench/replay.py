"""Value-layer and patch-algebra timings, replayed on a run's own inputs.

The traced run keeps a sample of the arguments the runtime passed to
``intersect``, ``matches``, ``clamp_patch``, ``apply_patch`` and ``delta``.
After the measured phase each operation is re-timed on that sample alone,
so the value layer is timed on real inputs without a span per call.
"""

from __future__ import annotations

import importlib
import statistics
import time


def _noop(*args):
    return None


def _loop_ns(fn, items, loops: int) -> int:
    clock = time.perf_counter_ns
    start = clock()
    for _ in range(loops):
        for args in items:
            fn(*args)
    return clock() - start


def ns_per_op(fn, items: list, reps: int = 5, min_ns: int = 20_000_000) -> float:
    """Median ns per call of fn(*args) over items, less the loop's own cost."""
    if not items:
        return 0.0
    loops = 1
    while _loop_ns(fn, items, loops) < min_ns:
        loops *= 2
    ops = loops * len(items)
    runs = []
    for _ in range(reps):
        runs.append((_loop_ns(fn, items, loops) - _loop_ns(_noop, items, loops)) / ops)
    return max(statistics.median(runs), 0.0)


def _lookup(module: str, name: str, absent: list):
    fn = getattr(importlib.import_module(f"dataspace.{module}"), name, None)
    if fn is None:
        absent.append(f"{module}.{name}")
    return fn


def replay(samples, absent: list) -> dict[str, float]:
    """ns-per-operation timings keyed by metric name; 0.0 where nothing was sampled."""
    pairs = samples["values.intersect"].items
    probes = samples["values.matches"].items
    values = list({v for _, v in pairs} | {v for _, v in probes})

    def timed(module, name, items):
        fn = _lookup(module, name, absent)
        return ns_per_op(fn, items) if fn is not None else 0.0

    to_jsonable = _lookup("values", "to_jsonable", absent)
    forms = [(to_jsonable(v),) for v in values] if to_jsonable else []
    out = {
        "values.intersect.ns": timed("values", "intersect", pairs),
        "values.matches.ns": timed("values", "matches", probes),
        "values.hash.ns": ns_per_op(hash, [(v,) for v in values]),
        "values.encode.ns": timed("values", "canonical_encode", [(v,) for v in values]),
        "values.build.ns": timed("values", "from_jsonable", forms),
    }
    algebra = [
        (timed("patches", fn, samples[span].items), len(samples[span].items))
        for fn, span in (
            ("clamp_patch", "patches.clamp"),
            ("apply_patch", "patches.apply"),
            ("delta", "patches.delta"),
        )
    ]
    total = sum(n for _, n in algebra)
    out["patches.algebra.ns"] = sum(ns * n for ns, n in algebra) / total if total else 0.0
    return out
