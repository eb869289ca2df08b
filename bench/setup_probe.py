"""Set-up of one workload in a fresh interpreter: ``import lqsys`` and
build the workload's inputs, nothing else.  run.py times this process from
outside and reports the median of several as setup_s.

    python3 bench/setup_probe.py <workload> <seed>
"""

import importlib
import sys

import core
from run import WORKLOADS

if __name__ == "__main__":
    core.check_checkout()
    importlib.import_module(WORKLOADS[sys.argv[1]]).build_inputs(int(sys.argv[2]))
