"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from workloads import Broadcast, Presence, Sessions  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TinyPresence(Presence):
    digest_rounds = 8

    def __init__(self, seed):
        super().__init__(seed, keys=4, keyed=6, wildcard=2)


class TinyBroadcast(Broadcast):
    mix = ("keyed",) * 3 + ("wildcard",)
    digest_rounds = 8

    def __init__(self, seed):
        super().__init__(seed, topics=2, keyed=6, wildcard=2)


class TinySessions(Sessions):
    mix = ("count",) * 3 + ("cancel",)
    digest_rounds = 8

    def __init__(self, seed):
        super().__init__(seed, sessions=2)


TINY = (TinyPresence, TinyBroadcast, TinySessions)


@pytest.mark.parametrize("workload", (Presence, Broadcast, Sessions), ids=lambda w: w.name)
def test_blocks_hold_the_mix_and_timed_rounds_start_on_a_block(workload):
    assert workload.warmup_rounds % len(workload.mix) == 0
    assert workload.digest_rounds % len(workload.mix) == 0
    wl = workload(1)
    kinds = []
    wl.play = lambda kind: kinds.append(kind) or []
    for _ in range(3 * wl.block_rounds):
        wl.next_round()
    for start in range(0, len(kinds), wl.block_rounds):
        assert sorted(kinds[start : start + wl.block_rounds]) == sorted(wl.mix)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_reference_passes_bracket_every_timed_piece(workload):
    from dataspace import new_network

    wl, net, tally = workload(1), new_network(), run.Tally()
    passes = []
    chunks = run.set_up(net, wl, tally, passes=passes)
    assert len(passes) == len(chunks) + 1
    passes = []
    blocks = run.timed_blocks(net, wl, tally, 0.05, passes=passes)
    assert len(passes) == len(blocks) + 1
    assert len(run.scaled_blocks(blocks, passes)) == len(blocks)
    assert tally.failed == 0


def test_host_scale_uses_the_passes_on_either_side():
    ref = run.REFERENCE_S
    assert run.host_scale([ref, ref, 3 * ref]) == pytest.approx([1.0, 0.5])


def measure(measure_fn, workload, seconds=0.2):
    """Run one measurement with the digest this code itself produces."""
    digest, _ = run.digest_run(workload, run.Tally())
    tally = run.Tally()
    metrics = measure_fn(workload, 1, seconds, tally, {workload.name: digest})
    return tally, metrics


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_end_to_end_metrics_are_all_reported(workload):
    tally, metrics = measure(run.end_to_end, workload)
    assert tally.attempted > 0 and tally.failed == 0
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_per_layer_metrics_are_all_reported(workload):
    tally, metrics = measure(run.per_layer, workload)
    assert tally.failed == 0
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["network.dispatch.calls"] > 0
    assert 0.9 < metrics["spans.self_sum_share"] <= 1.0


class WrongPresence(TinyPresence):
    def expected_view(self, key):
        return set() if key is not None else super().expected_view(key)


class WrongBroadcast(TinyBroadcast):
    def next_round(self):
        actions = super().next_round()
        self.expected = self.expected[1:]
        return actions


class WrongSessions(TinySessions):
    def next_round(self):
        actions = super().next_round()
        (i, k, n), = self.expected
        self.expected = ((i, k, n + 1),)
        return actions


@pytest.mark.parametrize(
    "workload", (WrongPresence, WrongBroadcast, WrongSessions), ids=lambda w: w.name
)
def test_wrong_reference_answer_fails_rounds(workload):
    tally, _ = measure(run.end_to_end, workload)
    assert tally.failed > 0


def test_wrong_digest_fails_the_run():
    tally = run.Tally()
    run.end_to_end(TinySessions, 1, 0.1, tally, {})
    assert tally.failed == 1


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_every_metric_with_its_unit(trace, kind):
    done = _cli(ROOT, "--workload", "sessions", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for metric in SPEC[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(
            line.startswith(f"{metric['name']} ") and line.endswith(f" {metric['unit']}")
            for line in lines[:-1]
        )
    assert any(line.startswith("fail_share 0.0 ratio") for line in lines)
    if trace == "0":
        assert any(line.startswith("settle_ms_p95 ") and line.endswith(" ms") for line in lines)


def test_cli_fails_without_the_runtime_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _cli(tmp_path, "--workload", "presence", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout
