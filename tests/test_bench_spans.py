"""The traced benchmark wraps runtime functions by name; each must still exist.

``bench/spans.py`` lists a target it cannot find as ``absent`` instead of
raising, so a refactor that renames or un-imports a wrapped name would
otherwise go unnoticed.  Its dispatch span counts ``Network.dispatch_one``
calls, so a run loop that delivered events some other way would also go
unnoticed.
"""

import importlib.util
from pathlib import Path

from dataspace import MessageAction, Patch, PatchAction, WILDCARD, new_network, observe, rec

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def idle(event, state):
    return None


def test_every_bench_span_target_resolves():
    with _load_spans().Tracer() as tracer:
        pass
    assert tracer.absent == []


def test_every_dispatched_event_is_one_dispatch_span():
    interests = Patch({observe(rec("m", WILDCARD)), observe(rec("p", WILDCARD))}, ())
    fan_outs = [PatchAction(Patch({rec("p", 1)}, ())), MessageAction(rec("m", 1))]
    with _load_spans().Tracer() as tracer:
        net = new_network()
        for _ in range(3):
            net.spawn(idle, None, [PatchAction(interests)])
        net.spawn(idle, None, fan_outs)
        steps = net.run_until_quiescent(100)
    assert steps == 6  # three patch-ins and three messages
    dispatches = sum(span[0] == "network.dispatch" for span in tracer.spans)
    assert dispatches == steps + 1  # the last call finds the queue empty
