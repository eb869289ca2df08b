"""Print a digest of the exact stack's results on every draw of two corpora.

    python3 tests/exact_outcomes.py SRC SEED [SEED ...]

SRC is the ``src`` directory whose lqsys is loaded, so that two checkouts
can be run through the same harness; ``bench/`` beside this file is
imported and only read.  For each seed S (1 or more) the draws are

- every system of the exact_corpus pool ``wl_exact.build_inputs(S)``, and
- ``random_params`` seeds 10(S-1) to 10S-1 at each (n, m) of ``SHAPES``,
  generic and passive, exact and float.

One line per draw gives its label and one short digest per stage:

- ``params``: the exact blocks and the float blocks (bytes, dtype, shape);
- ``build``: ``build_state_space``, its exact matrices and float copy;
- ``lossless``: ``with_lossless_modes`` with one mode (frequency 2 for an
  exact draw, 0.5 for a float one) and the build of the extension;
- ``quad``: ``to_quadrature`` of the build;
- ``cp``: ``exactlinalg.charpoly`` of A, its polynomial and its adjugate
  terms as exact matrices, and ``exactlinalg.schur_complement``, its
  charpoly(D) and A - B D^-1 C (exact systems);
- ``tm`` and ``smf``: the exact transfer matrix and its Smith-McMillan
  form, with the recorded operations and their counts (exact systems);
- ``det``: ``verify_det_identity``.

A stage that raises prints ``E:`` and the exception's name, and a stage
that needs its result prints ``-``; one line per seed counts both.  Exact
matrices are digested as rows of entry strings, so a list of lists and a
2-D array with the same rows give the same digest.  Diff the output of
two checkouts to list the results a change moves.  pytest does not
collect this file.
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SHAPES = ((1, 1), (2, 1), (2, 2), (3, 2), (1, 0), (0, 1), (0, 0), (2, 3))
SKIPPED = "-"


def digest(record):
    return hashlib.sha256(repr(record).encode()).hexdigest()[:12]


def exact_record(mats):
    if mats is None:
        return None
    return {k: [[str(x) for x in row] for row in v] for k, v in sorted(mats.items())}


def float_record(x):
    return x.dtype.str, x.shape, x.tobytes().hex()


def params_record(p):
    keys = ("omega_minus", "omega_plus", "c_minus", "c_plus")
    return p.n, p.m, exact_record(p.exact), [float_record(getattr(p, k)) for k in keys]


def system_record(ss):
    mats = [float_record(getattr(ss, k)) for k in ("A", "B", "C", "D")]
    return ss.representation, exact_record(ss.exact), mats


def charpolys(xl, ss):
    """charpoly(A) with its terms as exact matrices, and schur_complement."""
    a, b, c, d = (ss.exact[k] for k in ("A", "B", "C", "D"))
    poly, terms = xl.charpoly(a)
    return poly, [xl.from_scaled(*t) for t in terms], *xl.schur_complement(a, b, c, d)


def cp_record(out):
    poly, terms, p, schur = out
    rows = lambda m: [[str(x) for x in row] for row in m]
    return repr(poly), [rows(t) for t in terms], repr(p), None if schur is None else rows(schur)


def tm_record(g):
    return [[str(e) for e in row] for row in g.entries]


def smf_record(smf):
    return (smf.to_dict(), smf.shape, len(smf.left_ops), len(smf.right_ops),
            repr(smf.left_ops), repr(smf.right_ops))


def det_record(rep):
    return rep.ok, rep.mode, repr(rep.unit), repr(rep.det_pencil), repr(rep.det_adjoint)


class Line:
    """The stage digests of one draw."""

    def __init__(self):
        self.fields = []
        self.raised = 0

    def stage(self, name, compute, record, *needs):
        """Run ``compute(*needs)`` and digest ``record`` of its result;
        None in ``needs`` means an earlier stage gave no result."""
        if any(x is None for x in needs):
            self.fields.append(f"{name}:{SKIPPED}")
            return None
        try:
            out = compute(*needs)
            text = digest(record(out))
        except Exception as exc:  # the digest marks it; later stages skip
            self.raised += 1
            self.fields.append(f"{name}:E:{type(exc).__name__}")
            return None
        self.fields.append(f"{name}:{text}")
        return out


def system_stages(lq, line, ss):
    exact = ss if ss is not None and ss.is_exact else None
    line.stage("quad", lq.to_quadrature, system_record, ss)
    line.stage("cp", lambda s: charpolys(lq.exactlinalg, s), cp_record, exact)
    tm = line.stage("tm", lq.transfer_matrix_exact, tm_record, exact)
    line.stage("smf", lq.smith_mcmillan, smf_record, tm)
    line.stage("det", lq.verify_det_identity, det_record, ss)


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__)
    src, seeds = argv[0], [int(s) for s in argv[1:]]
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "bench")]
    import core

    core.pin_threads()  # before numpy is loaded
    import lqsys as lq
    import wl_exact

    for seed in seeds:
        draws = raised = 0
        for index, (label, ss) in enumerate(wl_exact.build_inputs(seed)):
            line = Line()
            line.stage("build", lambda: ss, system_record)
            system_stages(lq, line, ss)
            print(f"seed {seed} exact_corpus #{index} {label} {' '.join(line.fields)}")
            draws, raised = draws + 1, raised + line.raised
        for n, m in SHAPES:
            for kind in ("generic", "passive"):
                for exact in (True, False):
                    for draw in range(10 * (seed - 1), 10 * seed):
                        line = Line()
                        params = line.stage(
                            "params", lq.random_params, params_record,
                            draw, n, m, kind == "passive", exact,
                        )
                        ss = line.stage("build", lq.build_state_space, system_record, params)
                        freqs = [2] if exact else [0.5]
                        ext = line.stage(
                            "lossless", lambda p: lq.with_lossless_modes(p, freqs),
                            params_record, params,
                        )
                        line.stage("lossless-build", lq.build_state_space, system_record, ext)
                        system_stages(lq, line, ss)
                        print(f"seed {seed} random n{n}m{m} {kind} "
                              f"{'exact' if exact else 'float'} #{draw} {' '.join(line.fields)}")
                        draws, raised = draws + 1, raised + line.raised
        print(f"seed {seed}: {draws} draws, {raised} stages raised")


if __name__ == "__main__":
    main(sys.argv[1:])
