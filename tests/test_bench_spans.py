"""The traced benchmark wraps runtime functions by name; each must still exist.

``bench/spans.py`` lists a target it cannot find as ``absent`` instead of
raising, so a refactor that renames or un-imports a wrapped name would
otherwise go unnoticed.
"""

import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_bench_span_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    with spans.Tracer() as tracer:
        pass
    assert tracer.absent == []
