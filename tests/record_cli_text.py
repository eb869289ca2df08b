"""Rewrite ``data/cli_text_digests.json`` from the current program.

    python3 tests/record_cli_text.py

For each command that ``bench/cli_fingerprints.json`` pins, run in process
with ``--format text`` instead of ``--format json``, the file stores the
exit code and the sha256 of stdout.  Only for a change that means to alter
the CLI's text output; ``tests/check_cli_fingerprints.py`` checks it.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from check_cli_fingerprints import (  # noqa: E402
    TEXT_DIGESTS,
    fingerprinted_commands,
    text_digests,
)


def main():
    table = text_digests(fingerprinted_commands())
    TEXT_DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
