"""Rewrite ``data/smf_recorded.json`` from the current implementation.

The recording pins the operations of the Smith-McMillan reduction, so it
changes only when the pivot or clearing rule changes on purpose.  Run

    PYTHONPATH=src python tests/record_smf.py

then check that ``tests/test_smf_invariants.py`` still passes: the
invariant factors it checks do not depend on the recorded operations.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_smf_recorded import DATA, SYSTEMS, _key, record  # noqa: E402


def main():
    data = {_key(*system): record(*system) for system in SYSTEMS}
    DATA.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
