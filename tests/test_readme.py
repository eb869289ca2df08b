"""The README's library examples run as written: each ``python`` block runs
in a fresh interpreter, and each line it prints equals the ``# ...``
comment on its ``print`` line, so an API change cannot leave them stale."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_prints_its_comments(block):
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert prints and all("#" in line for line in prints), "every print needs its output"
    want = [line.split("#", 1)[1].strip() for line in prints]
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                         env=env, cwd=ROOT, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == want
