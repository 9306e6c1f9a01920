"""Every benchmark workload's default-seed trace still has its recorded digest.

``bench/run.py`` checks the digest of each workload's fixed-length run
against ``bench/digests.json`` and reports ``correct: false`` on a mismatch;
running the same check here keeps it on every Python the tests run under.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
DIGESTS = json.loads((BENCH / "digests.json").read_text())


@pytest.fixture(scope="module")
def bench_run():
    # run.py imports its sibling modules (calibrate, workloads) by bare name
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        from workloads import WORKLOADS

        yield run, WORKLOADS
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bench_trace_matches_recorded_digest(bench_run, name):
    run, workloads = bench_run
    tally = run.Tally()
    digest, trace = run.digest_run(workloads[name], tally)
    assert tally.failed == 0
    assert digest == DIGESTS[name]
    # a second render reads each form's kept text, and writes the same bytes
    text = "\n".join(trace.lines()) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[name]
