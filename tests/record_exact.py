"""Rewrite ``data/exact_recorded.json`` from the current implementation.

The recording pins the outputs of the exact kernels (``charpoly``,
``pencil_det``, the transfer matrix, the exact det identity and the
Smith-McMillan roots), so it changes only when one of them is meant to
change.  Run

    PYTHONPATH=src python tests/record_exact.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_exact_recorded import DATA, record  # noqa: E402
from test_smf_recorded import SYSTEMS, _key  # noqa: E402


def main():
    data = {_key(*system): record(*system) for system in SYSTEMS}
    DATA.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
