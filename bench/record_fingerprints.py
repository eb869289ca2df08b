"""Rewrite cli_fingerprints.json from the current program.

    python3 bench/record_fingerprints.py

Only for a change that means to alter CLI output or the generated spec
pool; say so in the change.  A performance change must leave the stored
fingerprints as they are, since cli_specs counts every mismatch as a
failed operation.
"""

import os

import core

if __name__ == "__main__":
    core.pin_threads()
    core.check_checkout()
    os.chdir(core.ROOT)
    import wl_cli

    wl_cli.record_fingerprints()
