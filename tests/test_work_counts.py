"""Per-function call counts of fixed programs, pinned like a golden.

Timings cannot tell a small change in work from noise; call counts can, and
they repeat exactly.  Each program runs in a fresh process under cProfile,
since records cache facts about themselves that an earlier test in the same
process would already have worked out.  Counted are the named functions and
lambdas the ``dataspace`` package defines, keyed ``module.qualname``;
comprehensions and generator expressions are left out, because Python 3.12
inlines comprehensions (PEP 709).  The counts are generated on Python 3.11
(``co_qualname`` needs 3.11), and the test runs there only.

A change that does more or less work rewrites the file, as ``dataspace run
--out`` rewrites a golden, and says why; the rewrite prints each changed
program's delta lines, in the form the test reports them::

    PYTHONPATH=src python tests/test_work_counts.py
"""

from __future__ import annotations

import cProfile
import gc
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dataspace.scenarios import MAX_STEPS, SCENARIOS

HERE = Path(__file__).resolve().parent
COUNTS = HERE / "work_counts.json"
WORKLOADS_PY = HERE.parent / "bench" / "workloads.py"
WORKLOAD_NAMES = ("presence", "broadcast", "sessions")
PROGRAMS = (*SCENARIOS, *WORKLOAD_NAMES)
STEP_BUDGET = 100_000  # per workload round, as the benchmark allows
INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def play_scenario(name):
    from dataspace import new_network

    net = new_network()
    SCENARIOS[name](net)
    net.run_until_quiescent(MAX_STEPS)


def play_workload(name):
    # seed 0: build, then the warm-up and digest rounds bench/run.py plays
    from dataspace import new_network

    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    wl = workloads.WORKLOADS[name](0)
    net = new_network()
    wl.build(net)
    net.run_until_quiescent(STEP_BUDGET)
    assert wl.check()
    for _ in range(wl.warmup_rounds + wl.digest_rounds):
        for aid, action in wl.next_round():
            net.interpret_action(aid, action)
        net.run_until_quiescent(STEP_BUDGET)
        assert wl.check()


def count_calls(program: str) -> dict:
    """Calls per dataspace function while program runs, in this process."""
    import dataspace

    package = Path(dataspace.__file__).resolve().parent
    if program in WORKLOAD_NAMES:
        run = lambda: play_workload(program)
    else:
        run = lambda: play_scenario(program)
    # the cyclic collector runs after so many allocations, and what it frees
    # is interned anew: left on, it would tie the counts to every allocation
    gc.collect()
    gc.disable()
    profile = cProfile.Profile()
    profile.runcall(run)
    gc.enable()
    counts = {}
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str) or code.co_name in INLINED:  # a builtin, or inlined
            continue
        path = Path(code.co_filename).resolve()
        if path.parent != package:
            continue
        key = f"{path.stem}.{code.co_qualname}"
        counts[key] = counts.get(key, 0) + entry.callcount
    return dict(sorted(counts.items()))


def counted_in_fresh_process(program: str) -> dict:
    path = os.pathsep.join([str(HERE.parent / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), program],
        capture_output=True,
        check=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    return json.loads(out)


def deltas(pinned: dict, got: dict) -> list[str]:
    """One ``name: old -> new (+d)`` line per function whose count changed."""
    return [
        f"{name}: {pinned.get(name, 0)} -> {got.get(name, 0)} ({got.get(name, 0) - pinned.get(name, 0):+d})"
        for name in sorted(pinned.keys() | got.keys())
        if pinned.get(name, 0) != got.get(name, 0)
    ]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="work counts are generated on Python 3.11"
)
@pytest.mark.parametrize("program", PROGRAMS)
def test_work_counts_are_the_pinned_ones(program):
    pinned = json.loads(COUNTS.read_text(encoding="utf-8"))[program]
    changed = deltas(pinned, counted_in_fresh_process(program))
    assert not changed, f"{program} call counts changed:\n" + "\n".join(changed)


def main(argv) -> int:
    if argv:  # one program's counts, in this fresh process
        (program,) = argv
        print(json.dumps(count_calls(program)))
        return 0
    pinned = json.loads(COUNTS.read_text(encoding="utf-8")) if COUNTS.exists() else {}
    counts = {program: counted_in_fresh_process(program) for program in PROGRAMS}
    COUNTS.write_text(json.dumps(counts, indent=1) + "\n", encoding="utf-8")
    for program, got in counts.items():  # what the rewrite changed, as the test reports it
        changed = deltas(pinned.get(program, {}), got)
        if changed:
            print(f"{program}:", *changed, sep="\n  ")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
