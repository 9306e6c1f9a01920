"""A fixed pure-Python reference loop that measures the host's current speed.

The benchmark runs on a shared host whose speed drifts by a quarter or more
over minutes, as other tenants come and go.  Timings taken under that drift
say more about the neighbours than about the runtime.  So the benchmark
plays one pass of this loop after every block of rounds and scales its
times to a host on which one pass takes REFERENCE_S.

The loop does the kind of work the runtime does: it builds small hashable
records, indexes them into a dict of sets, and takes set differences,
unions and intersections.  It uses nothing from ``dataspace``, so a change
to the runtime cannot change it, and its data are fixed, so every pass
does the same work.
"""

from __future__ import annotations

import gc
import random
import time

# seconds one pass takes, played between blocks of rounds, on a 2-core shared
# x86-64 VM under Python 3.11.7 in a calm period; scaled times read as if
# measured on that host
REFERENCE_S = 0.0015


class _Rec:
    __slots__ = ("label", "fields", "_hash")

    def __init__(self, label, fields):
        self.label = label
        self.fields = fields
        self._hash = hash((label, fields))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, _Rec) and self.label == other.label and self.fields == other.fields


_rng = random.Random(20160617)
_RAW = [(_rng.randrange(64), _rng.randrange(1000)) for _ in range(1500)]


def _pass() -> int:
    index: dict = {}
    for k, v in _RAW:
        index.setdefault(k, set()).add(_Rec("presence", (k, v)))
    total = 0
    everything = set()
    for k in range(64):
        group = index.get(k, set())
        even = {r for r in group if r.fields[1] % 2 == 0}
        everything |= group
        total += len(group - even) + len(frozenset(even) & group)
    return total + len(everything)


def calibration_pass() -> float:
    """Seconds one pass of the reference loop takes now.

    The collector is off during the pass, so the size of the benchmark's
    own heap cannot change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _pass()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
