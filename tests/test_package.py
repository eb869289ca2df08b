"""The package namespace: the state-space layers load on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lqsys

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_import_loads_only_the_feedback_layer():
    code = "import sys, lqsys; print(*sorted(m for m in sys.modules if 'lqsys' in m))"
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    loaded = run.stdout.split()
    assert loaded == ["lqsys", "lqsys.errors", "lqsys.feedback", "lqsys.rational"]


def test_every_public_name_resolves():
    for name in lqsys.__all__:
        assert getattr(lqsys, name) is not None, name
    assert lqsys.smith_mcmillan is lqsys.smith.smith_mcmillan
    assert "kalman_decompose" in dir(lqsys)
    with pytest.raises(AttributeError, match="no_such_name"):
        lqsys.no_such_name
