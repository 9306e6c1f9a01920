import subprocess
import sys

import pytest

from dataspace import (
    SCENARIOS,
    Continue,
    MessageAction,
    MessageEvent,
    Network,
    Patch,
    PatchAction,
    VisibilityMismatch,
    observe,
    rec,
)
from dataspace.cli import main
from dataspace.scenarios import MAX_STEPS


ALL = sorted(SCENARIOS)


def test_list_names(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert set(out) == set(ALL)


def test_module_entry_point_lists_the_scenarios():
    cmd = [sys.executable, "-m", "dataspace.cli", "list"]
    out = subprocess.run(cmd, capture_output=True, check=True, text=True).stdout
    assert sorted(out.splitlines()) == ALL


def test_run_unknown_scenario_exits_2(capsys):
    assert main(["run", "nosuch"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_run_emits_trace_to_stdout(capsys):
    assert main(["run", "bank-account-plain"]) == 0
    out = capsys.readouterr().out
    assert out.endswith('"kind":"event-message","data":70}\n')
    assert out.splitlines()[0].startswith('{"seq":0,')


def test_run_writes_file(tmp_path, capsys):
    target = tmp_path / "trace.jsonl"
    assert main(["run", "counter", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    text = target.read_text(encoding="utf-8")
    assert text.count("\n") == len(text.splitlines())
    again = tmp_path / "trace2.jsonl"
    main(["run", "counter", "--out", str(again)])
    assert text == again.read_text(encoding="utf-8")


def test_run_out_in_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "trace.jsonl"
    assert main(["run", "counter", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert str(target) in captured.err


def _ping_pong(net):
    # each actor answers every message it hears with one the other hears,
    # so the run never settles
    def answer(event, state):
        if isinstance(event, MessageEvent):
            return Continue(state, [MessageAction(rec(state))])
        return None

    net.spawn(answer, "pong", [PatchAction(Patch({observe(rec("ping"))}, ()))])
    net.spawn(
        answer, "ping", [PatchAction(Patch({observe(rec("pong"))}, ())), MessageAction(rec("ping"))]
    )


def test_run_exhausted_budget_exits_3(monkeypatch, capsys):
    monkeypatch.setitem(SCENARIOS, "ping-pong", _ping_pong)
    assert main(["run", "ping-pong"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"ping-pong: not quiescent after {MAX_STEPS} dispatches" in captured.err


@pytest.mark.parametrize("steps", ["0", "-3", "many"])
def test_run_rejects_non_positive_budget_as_usage_error(steps, capsys):
    # the budget is no setting: a run takes no --max-steps at all
    with pytest.raises(SystemExit) as err:
        main(["run", "counter", "--max-steps", steps])
    assert err.value.code == 2
    assert "unrecognized arguments: --max-steps" in capsys.readouterr().err


@pytest.mark.parametrize("name", ALL)
def test_check_matches_committed_goldens(name, capsys):
    assert main(["check", name]) == 0
    assert "ok" in capsys.readouterr().out


def test_check_reports_first_mismatching_line(monkeypatch, capsys):
    import dataspace.cli as cli

    real = cli._golden_text("counter")
    lines = real.splitlines()
    lines[3] = '{"seq":3,"actor":"g/9","kind":"spawn","data":null}'
    monkeypatch.setattr(cli, "_golden_text", lambda name: "\n".join(lines) + "\n")
    assert main(["check", "counter"]) == 1
    err = capsys.readouterr().err
    assert "mismatch at line 3" in err


def test_check_reports_length_mismatch(monkeypatch, capsys):
    import dataspace.cli as cli

    real = cli._golden_text("counter")
    truncated = "\n".join(real.splitlines()[:-1]) + "\n"
    monkeypatch.setattr(cli, "_golden_text", lambda name: truncated)
    assert main(["check", "counter"]) == 1
    assert "length mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("name", ALL)
def test_check_reports_oracle_divergence(name, monkeypatch, capsys):
    def diverge(net):
        raise VisibilityMismatch("induced")

    monkeypatch.setattr(Network, "check_visibility", diverge)
    assert main(["check", name]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{name}: oracle divergence: induced" in captured.err


def test_console_runs_are_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "dataspace.cli", "run", "file-system-reactive"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty
