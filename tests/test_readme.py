"""The README's "Library quick start" block runs and states true values."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_as_documented():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    res = scope["res"]
    assert res.schedule.ranges == (3, 11)
    assert res.kernel(1).values.shape == (1, 1, 25, 25)
    assert res.table(1).values.shape == (324, 1, 1)
    assert scope["xi"].values.shape == (1, 25, 25)
