"""Print the check outcomes of every draw of float_scale pools.

    python3 tests/float_outcomes.py SRC SEED [SEED ...]

SRC is the ``src`` directory whose lqsys is loaded, so that two checkouts
can be run through the same harness; ``bench/`` beside this file is
imported and only read.  For each seed the pool of ``wl_float.build_inputs``
is built and each draw is run once through ``wl_float.run_item``, with
BLAS on one thread as in the benchmark.  One line per draw gives the seed,
the stratum, the draw's index in it, its check outcomes in order (1 passed,
0 failed, E for an exception that ended the item) and the names of the
failed checks; one line per seed gives the share of checks passed.  Diff
the output of two checkouts to list the verdicts a change moves.  pytest
does not collect this file.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class OutcomeItem:
    """Stands in for the benchmark's Item: keeps every check's outcome,
    not only the failures."""

    def __init__(self, item):
        self._item = item
        self.outcomes = []
        self.failed = []

    def __getattr__(self, name):
        return getattr(self._item, name)

    def check(self, what, ok, known_defect=False):
        self.outcomes.append("1" if ok else "0")
        if not ok:
            self.failed.append(what)
        return self._item.check(what, ok, known_defect)


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__)
    src, seeds = argv[0], [int(s) for s in argv[1:]]
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "bench")]
    import core

    core.pin_threads()  # before numpy is loaded
    import wl_float

    tracer = core.Tracer(False)
    for seed in seeds:
        passed = total = 0
        for (n, kind), draws in wl_float.build_inputs(seed).items():
            for index, draw in enumerate(draws):
                item = OutcomeItem(core.Item(tracer, 0, 0, f"n{n}-{kind}"))
                try:
                    wl_float.run_item(item, draw)
                except Exception as exc:  # the benchmark counts it as a failed item
                    item.outcomes.append("E")
                    item.failed.append(f"{type(exc).__name__}: {exc}")
                passed += item.outcomes.count("1")
                total += len(item.outcomes)
                print(f"seed {seed} n{n}-{kind} #{index} {''.join(item.outcomes)}"
                      f" failed: {'; '.join(item.failed) or '-'}")
        print(f"seed {seed} ok {passed / total:.4f} ({passed}/{total} checks)")


if __name__ == "__main__":
    main(sys.argv[1:])
