"""Run every fingerprinted CLI command in process and compare it with
``bench/cli_fingerprints.json`` and ``tests/data/cli_text_digests.json``.

    python3 tests/check_cli_fingerprints.py

Each command's exit code and the sha256 of its stdout must equal the stored
fingerprint, and every stored fingerprint must be covered.  The JSON
fingerprints pin ``--format json``; the text digests pin the same argv
with ``--format text``, so a change that reorders or renames the fields a
command prints is caught too.  Both files are only read, never rewritten
(``bench/record_fingerprints.py`` and ``tests/record_cli_text.py`` do that
for a deliberate change of CLI output).  Exits 1 on any mismatch.  pytest
does not collect this file; it is a separate CI step.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import wl_cli  # noqa: E402
from lqsys.cli import main  # noqa: E402

TEXT_DIGESTS = ROOT / "tests" / "data" / "cli_text_digests.json"


def run_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def text_argv(argv):
    """The fingerprinted argv, which ends in ``--format json``, with text
    output instead."""
    return argv[:-1] + ["text"]


def fingerprinted_commands():
    """Every fingerprinted argv, run from the checkout root."""
    os.chdir(ROOT)
    return wl_cli.all_commands(*wl_cli.spec_pool())


def text_digests(commands):
    """{key: {"exit", "stdout_sha256"}} of each command in text format."""
    table = {}
    for argv in map(text_argv, commands):
        code, digest = run_in_process(argv)
        table[wl_cli.fingerprint_key(argv)] = {"exit": code, "stdout_sha256": digest}
    return table


def check():
    commands = fingerprinted_commands()
    refs = json.loads(wl_cli.FINGERPRINTS.read_text())
    failures = []
    for argv in commands:
        key = wl_cli.fingerprint_key(argv)
        ref = refs.get(key)
        if ref is None:
            failures.append(f"no fingerprint: {key}")
            continue
        if ref["spec_sha256"] != wl_cli.spec_digest(argv):
            failures.append(f"stale spec digest: {key}")
        code, digest = run_in_process(argv)
        if code != ref["exit"]:
            failures.append(f"exit {code}, fingerprint {ref['exit']}: {key}")
        elif digest != ref["stdout_sha256"]:
            failures.append(f"stdout digest differs: {key}")
    keys = {wl_cli.fingerprint_key(argv) for argv in commands}
    failures += [f"fingerprint not run: {key}" for key in sorted(set(refs) - keys)]

    text_refs = json.loads(TEXT_DIGESTS.read_text())
    text = text_digests(commands)
    for key, got in text.items():
        ref = text_refs.get(key)
        if ref is None:
            failures.append(f"no text digest: {key}")
        elif got["exit"] != ref["exit"]:
            failures.append(f"exit {got['exit']}, text digest {ref['exit']}: {key}")
        elif got["stdout_sha256"] != ref["stdout_sha256"]:
            failures.append(f"text stdout digest differs: {key}")
    failures += [f"text digest not run: {key}" for key in sorted(set(text_refs) - set(text))]

    for line in failures:
        print(line)
    print(f"{len(commands)} commands, {len(refs)} fingerprints, "
          f"{len(text_refs)} text digests, {len(failures)} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(check())
