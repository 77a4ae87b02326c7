"""README.md's library quick start runs, and its comments hold."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_as_commented():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    assert len(blocks) == 1
    ns = {}
    exec(blocks[0], ns)
    exact = ns["exact"]
    assert exact.sequence == (0, 1, 2, 3)
    assert exact.total_time == 5.0
    assert ns["quick"].sequence == exact.sequence
    assert ns["tree"].sequence == exact.sequence
