"""exact_corpus: seeded exact realizable systems, n in 1..4, m in 1..2,
through the whole exact stack.  Floating-point layers sit idle here."""

from __future__ import annotations

import random
from fractions import Fraction

from lqsys import (
    GaussianRational,
    QSystemParams,
    apply_operations,
    build_state_space,
    frequency_response,
    smith_mcmillan,
    transfer_matrix_exact,
    verify_det_identity,
    zeros_poles_from_smf,
)
from lqsys import exactlinalg as xl

import refs

# Every pass: one n = 4, m = 2 system, the same for every seed, then the
# seeded systems below as (n, m, how many).  A pass takes about 19 s on a
# 2-core x86 VM with Python 3.11, half of it in the n = 4, m = 2 system,
# whose cost alone varies by 15% between draws; fixing that one draw keeps
# the seed-to-seed spread of items_per_s down to that of the rest.
#
# By latency the 86 items fall into clusters: n = 1, m = 1 (1-30),
# n + m = 3 (31-74), n = 3, m = 1 (75-82) and the four largest.  The
# median (items 43-44) sits 30% of the way into its cluster and the tail
# (item 76, ten beyond it) 25% of the way into its own.  On a machine
# whose speed switches between two states for seconds at a time, an order
# statistic in the middle of a cluster jumps between the states' values
# from run to run; one in the lower part of a cluster moves only when most
# of the run was slow.
ANCHOR = (4, 2)
SHAPES = ((3, 2, 1), (2, 2, 2), (3, 1, 8), (2, 1, 42), (1, 2, 2), (1, 1, 30))

# Evaluation points for the transfer-matrix references; the first two that
# are not poles are used.
POINTS = [
    (Fraction(7, 3), Fraction(5, 2)),
    (Fraction(-3, 7), Fraction(11, 5)),
    (Fraction(13, 4), Fraction(-2, 9)),
    (Fraction(1, 6), Fraction(-17, 5)),
]


def _gmat(rng, r, c):
    def frac():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    return [[GaussianRational(frac(), frac()) for _ in range(c)] for _ in range(r)]


def exact_params(rng, n, m):
    """Realizable exact parameters: Hermitian omega_minus, symmetric
    omega_plus, small Gaussian-rational entries."""
    t = _gmat(rng, n, n)
    s = _gmat(rng, n, n)
    om = [[t[i][j] + t[j][i].conjugate() for j in range(n)] for i in range(n)]
    op = [[s[i][j] + s[j][i] for j in range(n)] for i in range(n)]
    return QSystemParams.create(om, op, _gmat(rng, m, n), _gmat(rng, m, n))


def build_inputs(seed, item_timer=None):
    """The corpus as a list of (label, system).  Each shape's draws are
    spread evenly over the pass, with the n = 4, m = 2 system in the
    middle, so that no stretch of slow machine lands on one cluster
    alone."""
    rng = random.Random(f"exact_corpus/{seed}")
    slots = sorted(((j + 0.5) / k, i) for i, (_, _, k) in enumerate(SHAPES) for j in range(k))
    draws = [(rng, *SHAPES[i][:2]) for _, i in slots]
    draws.insert(len(draws) // 2, (random.Random("exact_corpus/anchor"), *ANCHOR))
    corpus = []
    for r, n, m in draws:
        params = exact_params(r, n, m)
        if item_timer is None:
            ss = build_state_space(params)
        else:
            ss = item_timer("model.build", build_state_space, params)
        corpus.append((f"n{n}m{m}", ss))
    return corpus


def items_of_pass(corpus):
    return lambda p: corpus


def run_item(it, ss):
    g = it.call("smith.transfer_matrix", transfer_matrix_exact, ss)
    it.peak("rational.tm_max_bits",
            refs.max_bits(p for row in g.entries for x in row for p in (x.num, x.den)))

    ref_points = []
    for s0 in POINTS:
        gref = refs.transfer_at(ss.exact, s0)
        if gref is not None:
            ref_points.append((s0, gref))
        if len(ref_points) == 2:
            break
    s0, g0 = ref_points[0]
    exact_val = g.evaluate(GaussianRational(*s0))
    it.check("transfer matrix at s0 equals the exact solve",
             [[refs.q(x) for x in row] for row in exact_val] == g0)
    fr = it.call("model.frequency_response", frequency_response, ss, refs.to_complex(s0))
    g0c = [[refs.to_complex(x) for x in row] for row in g0]
    it.check("frequency_response at s0 within 1e-9 of the exact value",
             refs.rel_close(fr, g0c, 1e-9))

    smf = it.call("smith.smith_mcmillan", smith_mcmillan, g)
    it.count("smith.ops", len(smf.left_ops) + len(smf.right_ops))
    it.peak("rational.smf_max_bits", refs.max_bits(smf.alphas + smf.betas))
    it.check("det G = unit * prod(alpha) / prod(beta)", _smf_det_consistent(smf, ref_points))

    zeros, poles = it.call("smith.roots", zeros_poles_from_smf, smf)
    mirrored = [-z.conjugate() for z in poles.expand()]
    it.check("SMF zeros are the negated conjugate SMF poles",
             refs.multiset_match(zeros.expand(), mirrored, 1e-7))

    replay = it.call("smith.replay", apply_operations, g, smf.left_ops, smf.right_ops)
    it.check("certificate replay reproduces the diagonal", replay == smf.diagonal())

    det = it.call("zeros.det_identity_exact", verify_det_identity, ss)
    it.check("exact det identity holds", det.ok and det.mode == "exact")


def _smf_det_consistent(smf, ref_points):
    """det G(s) * prod beta(s) / prod alpha(s) is the same nonzero
    constant at both reference points (G is square with full normal rank)."""
    p, q = smf.shape
    if p != q or smf.rank != p:
        return smf.rank <= min(p, q)
    units = []
    for s0, g0 in ref_points:
        num = refs.qdet(g0)
        den = refs.Q1
        for a, b in zip(smf.alphas, smf.betas):
            num = refs.qmul(num, refs.poly_at(b, s0))
            den = refs.qmul(den, refs.poly_at(a, s0))
        if den == refs.Q0:
            return False
        units.append(refs.qdiv(num, den))
    return units[0] == units[1] and units[0] != refs.Q0


def probe_item(it, ss):
    """Standalone exact-linear-algebra calls, traced runs only."""
    a, b, c, d = (ss.exact[k] for k in ("A", "B", "C", "D"))
    ns, nf = len(a), len(d)
    s0 = POINTS[0]
    poly, _ = it.probe("exactlinalg.charpoly", xl.charpoly, a)
    shifted = [[refs.qsub(s0 if i == j else refs.Q0, refs.q(a[i][j]))
                for j in range(ns)] for i in range(ns)]
    it.check("charpoly(A) at s0 equals det(s0 I - A)",
             refs.poly_at(poly, s0) == refs.qdet(shifted))
    p0 = xl.mat_block([[a, b], [c, d]])
    e = xl.mat_zeros(ns + nf, ns + nf)
    for i in range(ns):
        e[i][i] = GaussianRational(1)
    pdet = it.probe("exactlinalg.pencil_det", xl.pencil_det, p0, e)
    pencil = [[refs.qsub(refs.q(p0[i][j]), s0 if (i == j and i < ns) else refs.Q0)
               for j in range(ns + nf)] for i in range(ns + nf)]
    it.check("pencil_det at s0 equals det(P0 - s0 E)",
             refs.poly_at(pdet, s0) == refs.qdet(pencil))
