"""The package namespace and start-up: ``import lqsys`` loads no layer, and
each CLI command loads only the layers it runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lqsys
from lqsys.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
SPECS = ROOT / "specs"
# runs the CLI on argv and names the lqsys modules it loaded on stderr,
# after the report and also when argparse exits
CHILD = """\
import sys
from lqsys.cli import main
try:
    sys.exit(main())
finally:
    print(*sorted(m for m in sys.modules if m.startswith("lqsys")), file=sys.stderr)
"""
# what importing the CLI loads: its spec reader needs the exact scalars
CLI = {"lqsys", "lqsys.cli", "lqsys.errors", "lqsys.rational", "lqsys.specio"}
STATE_SPACE = CLI | {"lqsys.exactlinalg", "lqsys.linalg", "lqsys.model", "lqsys.spectra"}
ZEROS = STATE_SPACE | {"lqsys.kalman", "lqsys.smith", "lqsys.zeros"}
# argv after the command name -> the lqsys modules a fresh run loads
COMMANDS = {
    "check": (["gain_system.json"], STATE_SPACE),
    "zeros": (["dpa.json", "--method", "all"], ZEROS),
    "poles": (["gain_system.json", "--exact"], ZEROS),
    "smf": (["gain_system.json"], STATE_SPACE | {"lqsys.smith"}),
    "kalman": (["quadrature_hidden_pair.json"], STATE_SPACE | {"lqsys.kalman"}),
    "invert": (["dpa.json"], ZEROS | {"lqsys.invertibility"}),
    "feedback": (
        ["feedback_plant.json", "feedback_controller.json", "--solve-alpha", "q",
         "--sweep", "1e-2:1e1:4"],
        CLI | {"lqsys.feedback"},
    ),
}


def fresh(args):
    """(exit code, stdout, stderr lines) of ``args`` in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run(
        [sys.executable, "-c", CHILD, *args], capture_output=True, text=True, env=env
    )
    return run.returncode, run.stdout, run.stderr.splitlines()


def test_import_loads_no_layer_and_no_numpy():
    code = "import sys, lqsys; print(*sorted(m for m in sys.modules if 'lqsys' in m))"
    code += "; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["lqsys lqsys.errors", "False"]


@pytest.mark.parametrize("command", COMMANDS)
def test_fresh_command_loads_only_its_layers(capsys, command):
    tail, loaded = COMMANDS[command]
    args = [command] + [str(SPECS / a) if a.endswith(".json") else a for a in tail]
    code, out, err = fresh(args)
    assert set(err[-1].split()) == loaded, err
    assert code == main(args) == 0
    assert out == capsys.readouterr().out


def test_help_loads_no_layer():
    code, out, err = fresh(["--help"])
    assert code == 0 and "exit codes:" in out
    assert set(err[-1].split()) == CLI


def test_every_public_name_resolves():
    for name in lqsys.__all__:
        assert getattr(lqsys, name) is not None, name
    assert lqsys.smith_mcmillan is lqsys.smith.smith_mcmillan
    assert "kalman_decompose" in dir(lqsys)
    with pytest.raises(AttributeError, match="no_such_name"):
        lqsys.no_such_name
