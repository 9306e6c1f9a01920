"""Closed-loop benchmark of the dataspace runtime, end to end and by layer.

    python3 bench/run.py --workload presence --seed 1 --seconds 10 --trace 0

Each workload is a single-threaded closed loop: a driver actor makes one
change (a round), the network runs to quiescence, and only then comes the
next round.  With ``--trace 0`` the run is untraced and prints the
end-to-end metrics; with ``--trace 1`` it also makes a traced run, with
spans around calls into each layer, and prints the per-layer metrics.
Every round is checked against the workload's reference model outside the
timed part.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, calibration_pass

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

DIGEST_SEED = 0
DIGESTS = BENCH / "digests.json"
SEGMENTS = 10  # each segment sets up a fresh network, then plays timed rounds
RENDERS = 60  # timed renders of the digest run's trace
PASS_EVERY_S = 0.01  # set-up time between two passes of the reference loop
STEP_BUDGET = 100_000
SPAN_CAP = 400_000  # the traced phase ends early rather than hold more spans

END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "settle_ms_p50": "ms",
    "trace_out_s": "s",
    "peak_rss_mb": "MB",
}

# spans reported as <span>.calls (per round) and <span>.self_us (mean per call)
LAYER_SPANS = (
    "network.dispatch",
    "network.patch",
    "network.message",
    "network.spawn",
    "network.terminate",
    "patches.visible",
    "reactive.step",
    "reactive.install",
    "reactive.teardown",
    "tracing.emit",
)

PER_LAYER = {
    **{f"{s}.{m}": u for s in LAYER_SPANS for m, u in (("calls", "1/round"), ("self_us", "us"))},
    "network.patch.exponent": "slope",
    "network.patch.exponent.points": "count",
    "network.queue.max_len": "count",
    "network.fanout.patch_in_per_patch_out": "ratio",
    "network.fanout.deliveries_per_message": "ratio",
    "patches.visible.share": "ratio",
    "patches.algebra.ns": "ns",
    "values.intersect.calls": "1/round",
    "values.intersect.hit_ratio": "ratio",
    "values.matches.calls": "1/round",
    "values.matches.hit_ratio": "ratio",
    "values.intersect.ns": "ns",
    "values.matches.ns": "ns",
    "values.hash.ns": "ns",
    "values.encode.ns": "ns",
    "values.build.ns": "ns",
    "reactive.step.idle_ratio": "ratio",
    "tracing.encode.self_us": "us",
    "tracing.entries_per_round": "1/round",
    "bench.behaviour.self_us": "us",
    "spans.self_sum_share": "ratio",
    "span_overhead": "ratio",
}


class Tally:
    """Rounds and end-of-run checks attempted, and how many failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok


def play_round(net, wl, tally: Tally) -> float:
    """One round: the driver's actions, then quiescence.  Returns settle seconds.

    The round fails if it raises (an exhausted step budget raises), leaves a
    crash entry in the trace, or disagrees with the reference model.
    """
    actions = wl.next_round()
    mark = len(net.trace.entries)
    start = time.perf_counter()
    try:
        for aid, action in actions:
            net.interpret_action(aid, action)
        net.run_until_quiescent(STEP_BUDGET)
        ok = True
    except Exception as exc:  # the round is counted as failed; the run goes on
        print(f"round raised {type(exc).__name__}: {exc}", file=sys.stderr)
        ok = False
    settle = time.perf_counter() - start
    ok = wl.check() and ok
    ok = ok and all(e["kind"] != "crash" for e in net.trace.entries[mark:])
    tally.record(ok)
    return settle


def set_up(net, wl, tally: Tally, wrap=lambda fn: fn, passes=None) -> list[float]:
    """Spawn the population, settle it, and play the warm-up rounds.

    It goes in steps: one spawn with the patches it routes, the settling,
    one warm-up round.  Given a ``passes`` list, passes of the reference
    loop are played first, last, and after each step that brings the time
    since the last pass to PASS_EVERY_S; their times are appended there.
    Returns the seconds taken between consecutive passes, less the passes
    and the workload's checks.
    """
    gc.collect()  # so that every set-up starts from the same heap
    chunks = [0.0]
    if passes is not None:
        passes.append(calibration_pass())

    def record(seconds):
        chunks[-1] += seconds
        if passes is not None and chunks[-1] >= PASS_EVERY_S:
            passes.append(calibration_pass())
            chunks.append(0.0)

    start = time.perf_counter()

    def step():
        nonlocal start
        record(time.perf_counter() - start)
        start = time.perf_counter()

    wl.build(net, wrap, step)
    net.run_until_quiescent(STEP_BUDGET)
    step()
    tally.record(wl.check())
    for _ in range(wl.warmup_rounds):
        record(play_round(net, wl, tally))
    if passes is not None:
        passes.append(calibration_pass())
    return chunks


def check_visibility(net, tally: Tally) -> None:
    from dataspace import VisibilityMismatch

    try:
        net.check_visibility()
        tally.record(True)
    except VisibilityMismatch as exc:
        print(f"check_visibility: {exc}", file=sys.stderr)
        tally.record(False)


def digest_run(workload, tally: Tally, wrap=lambda fn: fn):
    """Default-seed run of fixed length; returns its trace digest and trace."""
    from dataspace import new_network

    wl = workload(DIGEST_SEED)
    net = new_network()
    set_up(net, wl, tally, wrap)
    for _ in range(wl.digest_rounds):
        play_round(net, wl, tally)
    check_visibility(net, tally)
    text = "\n".join(net.trace.lines()) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), net.trace


def check_digest(name: str, digest: str, digests: dict, tally: Tally) -> None:
    if not tally.record(digest == digests.get(name)):
        print(f"trace digest {digest} != recorded {digests.get(name)}", file=sys.stderr)


def render(trace, path) -> float:
    """Seconds to write the whole trace as JSONL, the way ``dataspace run --out`` does."""
    start = time.perf_counter()
    text = "\n".join(trace.lines()) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return time.perf_counter() - start


def timed_blocks(net, wl, tally: Tally, seconds: float, tracer=None, passes=None) -> list[list]:
    """Settle times of whole blocks of rounds, played until ``seconds`` have passed.

    Under a tracer, each round gets the next round id, and the phase also
    ends when SPAN_CAP spans are held.  Given a ``passes`` list, passes of
    the reference loop are played before the first block and after each
    block, and their times are appended there.
    """
    gc.collect()
    blocks = []
    if passes is not None:
        passes.append(calibration_pass())
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and (tracer is None or len(tracer.spans) < SPAN_CAP):
        block = []
        for _ in range(wl.block_rounds):
            if tracer is not None:
                tracer.round += 1
            block.append(play_round(net, wl, tally))
        blocks.append(block)
        if passes is not None:
            passes.append(calibration_pass())
    return blocks


def host_scale(passes: list[float]) -> list[float]:
    """Factors that scale the times taken between consecutive passes to the reference host.

    A time is scaled by the mean of the two passes on either side of it, so
    it is measured against the host as it was at that moment.
    """
    return [2 * REFERENCE_S / (a + b) for a, b in zip(passes, passes[1:])]


def scaled_blocks(blocks: list[list], passes: list[float]) -> list[list]:
    return [[t * f for t in block] for block, f in zip(blocks, host_scale(passes))]


def end_to_end(workload, seed: int, seconds: float, tally: Tally, digests: dict) -> dict:
    from dataspace import new_network

    digest, trace = digest_run(workload, tally)
    check_digest(workload.name, digest, digests, tally)
    # memory after a fixed amount of work: the time-bounded rounds that follow
    # keep a trace whose length grows with the round rate
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # every time below is scaled to the reference host, so that a slow spell of
    # the shared host does not read as a slower runtime; the renders come first,
    # while the heap holds only the digest run
    OUT.mkdir(exist_ok=True)
    passes, renders = [calibration_pass()], []
    for _ in range(RENDERS):
        renders.append(render(trace, OUT / f"{workload.name}.trace.jsonl"))
        passes.append(calibration_pass())
    renders = [t * f for t, f in zip(renders, host_scale(passes))]
    setups, blocks = [], []
    for _ in range(SEGMENTS):
        wl, net = workload(seed), new_network()
        passes = []
        chunks = set_up(net, wl, tally, passes=passes)
        setups.append(sum(t * f for t, f in zip(chunks, host_scale(passes))))
        passes = []
        segment = timed_blocks(net, wl, tally, seconds / SEGMENTS, passes=passes)
        blocks += scaled_blocks(segment, passes)
        check_visibility(net, tally)
    settles = [t for block in blocks for t in block]
    print(f"trace sha256 {digest} (seed {DIGEST_SEED}, {workload.digest_rounds} rounds)")
    print(f"settle samples {len(settles)}")
    # printed, not gated: on a shared host it spreads too much from run to run
    print(f"settle_ms_p95 {1e3 * statistics.quantiles(settles, n=20)[-1]} ms")
    return {
        "setup_s": statistics.median(setups),
        "rounds_per_s": wl.block_rounds / statistics.median(map(sum, blocks)),
        "settle_ms_p50": 1e3 * statistics.median(settles),
        "trace_out_s": statistics.median(renders),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(workload, seed: int, seconds: float, tally: Tally, digests: dict) -> dict:
    from dataspace import new_network

    from replay import replay
    from spans import Tracer
    from workloads import Presence

    # the traced and untraced runs must leave byte-identical traces
    with Tracer() as tracer:
        digest, _ = digest_run(workload, tally, wrap=tracer.behaviour)
    check_digest(workload.name, digest, digests, tally)

    with Tracer() as fit:
        Presence(seed).build(new_network())
    exponent, points = fit.patch_exponent()

    wl, net = workload(seed), new_network()
    set_up(net, wl, tally)
    passes = []
    untraced = scaled_blocks(timed_blocks(net, wl, tally, seconds / 2, passes=passes), passes)

    with Tracer() as tracer:
        wl, net = workload(seed), new_network()
        set_up(net, wl, tally, wrap=tracer.behaviour)
        mark = len(net.trace.entries)
        tracer.measuring()
        passes = []
        blocks = timed_blocks(net, wl, tally, seconds / 2, tracer, passes)
    check_visibility(net, tally)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload.name}.spans.jsonl")

    rounds = sum(map(len, blocks))
    round_ns = 1e9 * sum(map(sum, blocks))
    stats = tracer.per_name()
    kinds = [e["kind"] for e in net.trace.entries[mark:]]

    def mean_us(span):
        calls, own = stats.get(span, (0, 0))
        return own / calls / 1e3 if calls else 0.0

    out = {}
    for span in LAYER_SPANS:
        out[f"{span}.calls"] = stats.get(span, (0, 0))[0] / rounds
        out[f"{span}.self_us"] = mean_us(span)
    out["network.patch.exponent"] = exponent
    out["network.patch.exponent.points"] = points
    out["network.queue.max_len"] = tracer.queue_max
    out["network.fanout.patch_in_per_patch_out"] = _ratio(
        kinds.count("patch-in"), kinds.count("patch-out")
    )
    out["network.fanout.deliveries_per_message"] = _ratio(
        tracer.deliveries, kinds.count("message")
    )
    out["patches.visible.share"] = stats.get("patches.visible", (0, 0))[1] / round_ns
    for name in ("values.intersect", "values.matches"):
        out[f"{name}.calls"] = tracer.calls[name] / rounds
        out[f"{name}.hit_ratio"] = _ratio(tracer.hits[name], tracer.calls[name])
    out.update(replay(tracer.samples, tracer.absent))
    out["reactive.step.idle_ratio"] = _ratio(
        tracer.idle_steps, stats.get("reactive.step", (0, 0))[0]
    )
    out["tracing.encode.self_us"] = mean_us("tracing.encode")
    out["tracing.entries_per_round"] = len(kinds) / rounds
    out["bench.behaviour.self_us"] = mean_us("bench.behaviour")
    out["spans.self_sum_share"] = sum(own for _, own in stats.values()) / round_ns
    # traced / untraced rounds_per_s
    traced = scaled_blocks(blocks, passes)
    out["span_overhead"] = (
        statistics.median(map(sum, untraced)) / statistics.median(map(sum, traced))
    )

    print(f"traced rounds {rounds}, spans {len(tracer.spans)}")
    print(f"patch exponent fitted on {points} set-up patches")
    for name in sorted(set(tracer.absent)):
        print(f"absent {name}")
    print("self time share of traced round time, by span:")
    for name, (calls, own) in sorted(stats.items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:24s} {own / round_ns:7.3f}  ({calls / rounds:.1f} calls/round)")
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dataspace" / "__init__.py").is_file():
        print(f"no dataspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tally = Tally()
    digests = json.loads(DIGESTS.read_text())
    measure, units = (per_layer, PER_LAYER) if args.trace else (end_to_end, END_TO_END)
    found = measure(workload, args.seed, args.seconds, tally, digests)
    metrics = {name: found[name] for name in units}
    print(f"fail_share {tally.failed / tally.attempted} ratio ({tally.failed}/{tally.attempted})")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0

if __name__ == "__main__":
    sys.exit(main())
