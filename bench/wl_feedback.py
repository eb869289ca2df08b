"""feedback_networks: seeded SISO coherent-feedback networks through the
feedback layer.  Its rational arithmetic is many scalar evaluations of
small rational functions, not matrix elimination as in exact_corpus."""

from __future__ import annotations

import random
from fractions import Fraction

from lqsys import (
    Beamsplitter,
    DegenerateNetworkError,
    FeedbackNetwork,
    GaussianRational,
    QuadPlantParams,
    SynthesisError,
    UnsolvableError,
    check_quadrature_duality,
    closed_loop,
    frequency_sweep,
    matched_controller,
    quadrature_transfer,
    solve_alpha_for_squeezing,
)

PER_PASS = 20
POOL_PASSES = 40
SWEEP = (1e-4, 1e1, 60)
SAMPLES = (0.37 + 1.3j, -0.8 + 0.45j, 2.1 - 0.7j)


def _frac(rng, lo, hi, dmax, nonzero=False):
    while True:
        num = rng.randint(lo, hi)
        if num or not nonzero:
            return Fraction(num, rng.randint(1, dmax))


def _params(rng):
    """Imaginary pump; real or imaginary couplings with a nonzero product."""
    w = GaussianRational(0, _frac(rng, -3, 3, 3))
    cq, cp = _frac(rng, -3, 3, 3, True), _frac(rng, -3, 3, 3, True)
    if rng.randint(0, 1):
        return QuadPlantParams.create(w, GaussianRational(cq), GaussianRational(cp))
    return QuadPlantParams.create(w, GaussianRational(0, cq), GaussianRational(0, cp))


def build_inputs(seed, item_timer=None):
    rng = random.Random(f"feedback_networks/{seed}")
    nets = []
    for _ in range(PER_PASS * POOL_PASSES):
        plant, controller = _params(rng), _params(rng)
        alpha = _frac(rng, -2, 2, 3)
        while abs(alpha) > 1:
            alpha = _frac(rng, -2, 2, 3)
        nets.append(FeedbackNetwork(plant, controller, Beamsplitter.create(alpha)))
    return nets


def items_of_pass(nets):
    def items(p):
        k = (p % POOL_PASSES) * PER_PASS
        return [("network", net) for net in nets[k:k + PER_PASS]]

    return items


# ---------------------------------------------------------------------------
# references: each quadrature transfer is (s + n) / (s + d) with real n, d


def _factors(params, quadrature):
    """(n, d) of G_q = (s + a - c)/(s + a + c) or G_p = (s - a - c)/(s - a + c),
    with a = i * omega_plus and c = Re(c_q c_p) / 2, read from the fields."""
    a = -params.omega_plus.im
    c = (params.c_q.re * params.c_p.re - params.c_q.im * params.c_p.im) / 2
    return (a - c, a + c) if quadrature == "q" else (-a - c, -a + c)


def _value(factors, s):
    out = 1
    for n, d in factors:
        out *= (s + float(n)) / (s + float(d))
    return out


def loop_gain_at_zero(factors):
    """Exact value at s = 0 of the reduced product of the factors, or None
    when it has a pole there."""
    nums = [n for n, d in factors if n != d]
    dens = [d for n, d in factors if n != d]
    for n in list(nums):
        if n in dens:
            nums.remove(n)
            dens.remove(n)
    if any(d == 0 for d in dens):
        return None
    out = Fraction(1)
    for n in nums:
        out *= n
    for d in dens:
        out /= d
    return out


def _closed(alpha, gk):
    return (alpha + gk) / (1 + alpha * gk)


def _sensitivity(alpha, gk):
    return (1 - alpha * alpha) * gk / ((1 + alpha * gk) * (alpha + gk))


def _synthesis_exists(plant, alpha):
    """Whether a controller sharing the plant's couplings can put the
    closed-loop q zero at the origin: K(0) = (x - c)/(x + c) takes every
    real value but 1 as x = i W' runs over the reals, and a pole or zero of
    G at the origin can only be cancelled by K's zero or pole there."""
    n, d = _factors(plant, "q")
    if d == 0:
        return alpha == 1
    g = n / d
    if g == 0:
        return alpha in (0, 1)
    return alpha != -g


def run_item(it, net):
    alpha = net.bs.alpha
    fq = [_factors(net.plant, "q"), _factors(net.controller, "q")]
    fp = [_factors(net.plant, "p"), _factors(net.controller, "p")]

    loops = it.call("feedback.closed_loop", closed_loop, net, allowed=DegenerateNetworkError)
    degenerate = all(abs(1 + float(alpha) * _value(fq, s)) < 1e-12 for s in SAMPLES)
    if isinstance(loops, Exception):
        it.check("closed loop refused only when 1 + alpha G K vanishes", degenerate)
        return
    t_q, t_p = loops
    it.check("closed loop matches the factor formula at sample points", all(
        abs(complex(t(s)) - _closed(float(alpha), _value(f, s)))
        <= 1e-9 * max(1.0, abs(_closed(float(alpha), _value(f, s))))
        for t, f in ((t_q, fq), (t_p, fp)) for s in SAMPLES))

    def duality():
        g_q, g_p = quadrature_transfer(net.plant)
        return check_quadrature_duality(g_q, g_p), check_quadrature_duality(t_q, t_p)

    plant_dual, loop_dual = it.call("feedback.duality", duality)
    plant_ref = all(abs(_value(fq[:1], s) * _value(fp[:1], -s) - 1) < 1e-9 for s in SAMPLES)
    loop_ref = all(
        abs(_closed(float(alpha), _value(fq, s)) * _closed(float(alpha), _value(fp, -s)) - 1)
        < 1e-9 for s in SAMPLES)
    it.check("plant duality verdict matches evaluation", plant_dual == plant_ref)
    it.check("closed-loop duality verdict matches evaluation", loop_dual == loop_ref)

    sol = it.call("feedback.solve_alpha", solve_alpha_for_squeezing, net.plant,
                  net.controller, "q", allowed=UnsolvableError)
    gk0 = loop_gain_at_zero(fq)
    if isinstance(sol, Exception):
        it.check("alpha refused only when the loop gain has a pole at 0", gk0 is None)
    else:
        it.check("solved alpha is -(G_q K_q)(0) and flagged physical iff |alpha| <= 1",
                 gk0 is not None and sol.raw == -gk0 and sol.physical == (abs(gk0) <= 1))

    # Where the plant's G_q has a zero or pole at the origin, the synthesis
    # formula degenerates: it returns controllers whose loop gain cancels
    # to -1 there, or refuses although any controller works at alpha = 0.
    # Those verdicts are tracked as a known defect.
    at_origin = 0 in fq[0]
    ctrl = it.call("feedback.synthesis", matched_controller, net.plant, alpha, "-",
                   allowed=SynthesisError)
    if isinstance(ctrl, Exception):
        ok = it.check("synthesis refused only when no matched controller exists",
                      not _synthesis_exists(net.plant, alpha), known_defect=at_origin)
    else:
        gk = loop_gain_at_zero([fq[0], _factors(ctrl, "q")])
        ok = it.check("matched controller puts the closed-loop q zero at the origin",
                      ctrl.c_q == net.plant.c_q and ctrl.c_p == net.plant.c_p
                      and gk is not None and alpha + gk == 0, known_defect=at_origin)
    if not ok:
        it.count("feedback.synthesis_wrong")

    rows = it.call("feedback.sweep", frequency_sweep, net, *SWEEP)
    it.count("feedback.sweep_points", len(rows))
    ok = len(rows) == SWEEP[2]
    for w, tq, tp, sq, sp in rows:
        s = 1j * w
        gq, gp = _value(fq, s), _value(fp, s)
        ref = (abs(_closed(float(alpha), gq)), abs(_closed(float(alpha), gp)),
               abs(_sensitivity(float(alpha), gq)), abs(_sensitivity(float(alpha), gp)))
        ok = ok and all(abs(x - r) <= 1e-7 * max(r, 1e-6) for x, r in zip((tq, tp, sq, sp), ref))
    it.check("sweep magnitudes match the factor formula", ok)
