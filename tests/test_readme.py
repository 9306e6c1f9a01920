"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_of_the_readme_runs_to_a_quiescent_network_without_a_crash():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    nets = 0
    for block in blocks:
        namespace: dict = {}
        exec(compile(block, str(README), "exec"), namespace)
        net = namespace.get("net")
        if net is None:
            continue
        nets += 1
        assert not net.queue
        assert [e for e in net.trace.entries if e["kind"] == "crash"] == []
    assert nets
