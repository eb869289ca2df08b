"""SISO coherent feedback networks: quadrature transfer functions, closed
loops through a beamsplitter, squeezing conditions, matched-controller
synthesis and the squeezing/sensitivity tradeoff.

For a single-mode system with purely imaginary pump parameter and real or
purely imaginary couplings, the quadrature transfer matrix is diagonal,

    G_q(s) = (s + iW - c) / (s + iW + c),   c = (1/2) Cq Cp,
    G_p(s) = (s - iW - c) / (s - iW + c),

with W the pump parameter, and satisfies G_q(s) G_p(-s) = 1.  The closed
loop through a beamsplitter with transmissivity parameter alpha is

    T_j = (alpha + G_j K_j) / (1 + alpha G_j K_j),      j = q, p,

which preserves the same duality.  A zero of T_j at the origin is "ideal
squeezing" at that quadrature, and the loop sensitivity

    S_j = beta^2 G_j K_j / ((1 + alpha G_j K_j)(alpha + G_j K_j))

necessarily diverges there: perfect low-frequency squeezing costs
unbounded fragility to plant uncertainty.

Everything is computed on exact scalar rational functions per quadrature
(the transfer matrices are diagonal throughout), so identities like the
q/p duality hold exactly, not just numerically.  Each closed loop and
sensitivity is formed from the reduced loop gain P/Q = G_j K_j, once per
quadrature, as T_j = (alpha Q + P)/(Q + alpha P) and
S_j = beta^2 P Q / ((Q + alpha P)(alpha Q + P)).  A frequency sweep
evaluates these exact reduced functions in complex floats, all points of
one polynomial at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateNetworkError,
    ParameterError,
    PoleEvaluationError,
    SynthesisError,
    UnsolvableError,
)
from .rational import GR_ONE, GR_ZERO, POLY_ONE, GaussianRational, Poly, RationalFn

__all__ = [
    "QuadPlantParams",
    "Beamsplitter",
    "FeedbackNetwork",
    "unit_controller",
    "quadrature_transfer",
    "check_quadrature_duality",
    "closed_loop",
    "squeezing_residual",
    "AlphaSolution",
    "solve_alpha_for_squeezing",
    "unit_controller_alpha_formula",
    "synthesize_matched_controller",
    "matched_controller",
    "sensitivity_functions",
    "sensitivity",
    "frequency_sweep",
    "write_sweep_csv",
    "random_network",
]


@dataclass(frozen=True, slots=True)
class QuadPlantParams:
    """Single-mode quadrature-diagonal system parameters.

    ``omega_plus`` must be purely imaginary and each coupling real or
    purely imaginary, with a real coupling product (these are exactly the
    conditions under which the quadrature transfer matrix is diagonal with
    the q/p duality).
    """

    omega_plus: GaussianRational
    c_q: GaussianRational
    c_p: GaussianRational

    @classmethod
    def create(cls, omega_plus, c_q, c_p):
        w = GaussianRational.of(omega_plus)
        cq = GaussianRational.of(c_q)
        cp = GaussianRational.of(c_p)
        if not w.is_imaginary():
            raise ParameterError(
                f"pump parameter must be purely imaginary, got {w}"
            )
        for name, val in (("c_q", cq), ("c_p", cp)):
            if not (val.is_real() or val.is_imaginary()):
                raise ParameterError(
                    f"{name} must be real or purely imaginary, got {val}"
                )
        if not (cq * cp).is_real():
            raise ParameterError(
                f"coupling product must be real, got {cq * cp}"
            )
        return cls(omega_plus=w, c_q=cq, c_p=cp)

    @classmethod
    def from_coupling_product(cls, omega_plus, c_product):
        """Build from the product Cq*Cp alone; every quantity in this
        module depends on the couplings only through their product, so a
        physically sqrt-valued coupling pair can be kept exact this way."""
        return cls.create(omega_plus, c_product, 1)

    @property
    def c_product(self) -> GaussianRational:
        return self.c_q * self.c_p

    @property
    def i_omega(self) -> Fraction:
        """The real number i * omega_plus."""
        return -self.omega_plus.im

    @property
    def half_coupling(self) -> Fraction:
        return self.c_product.re / 2


def unit_controller() -> QuadPlantParams:
    """The parameter choice with identically-1 transfer at both
    quadratures (zero pump, zero coupling product)."""
    return QuadPlantParams.create(0, 0, 0)


@dataclass(frozen=True, slots=True)
class Beamsplitter:
    """Static mixing element with real parameters alpha, beta on the unit
    circle.  Only alpha and beta^2 = 1 - alpha^2 enter any formula, so
    alpha is stored exactly and beta^2 stays exact as well."""

    alpha: Fraction

    @classmethod
    def create(cls, alpha):
        a = Fraction(alpha)
        if abs(a) > 1:
            raise ParameterError(f"|alpha| <= 1 required, got {a}")
        return cls(alpha=a)

    @property
    def beta_squared(self) -> Fraction:
        return 1 - self.alpha * self.alpha

    @property
    def beta(self) -> float:
        return math.sqrt(float(self.beta_squared))


@dataclass(frozen=True, slots=True)
class FeedbackNetwork:
    plant: QuadPlantParams
    controller: QuadPlantParams
    bs: Beamsplitter


_I = GaussianRational(0, 1)
_HALF = GaussianRational(Fraction(1, 2))


def _factor(n, d) -> RationalFn:
    """(s + n)/(s + d) for real n != d: distinct roots make it reduced, and
    it is monic, so it is built without a gcd."""
    fn = object.__new__(RationalFn)
    object.__setattr__(fn, "num", Poly([n, GR_ONE]))
    object.__setattr__(fn, "den", Poly([d, GR_ONE]))
    return fn


def quadrature_transfer(p: QuadPlantParams):
    """(G_q, G_p) as exact rational functions with real coefficients."""
    iw = p.omega_plus * _I  # i * W, real
    c = p.c_product * _HALF
    return tuple(
        RationalFn(POLY_ONE) if n == d else _factor(n, d)
        for n, d in ((iw - c, iw + c), (-iw - c, c - iw))
    )


def check_quadrature_duality(g_q: RationalFn, g_p: RationalFn) -> bool:
    """Exact check of G_q(s) * G_p(-s) = 1, cross-multiplied: no gcd."""
    return g_q.num * g_p.num.compose_neg() == g_q.den * g_p.den.compose_neg()


def _loop(net: FeedbackNetwork, closed: bool, sens: bool):
    """([T_q, T_p] if closed, [S_q, S_p] if sens) from the reduced loop
    gain P/Q = G_j K_j, formed once per quadrature:

        T_j = (alpha Q + P)/(Q + alpha P),
        S_j = beta^2 P Q / ((Q + alpha P)(alpha Q + P)).

    Q + alpha P vanishes identically exactly when 1 + alpha G K does.  The
    closed-loop check runs first, q before p, then the sensitivity check.
    """
    alpha = GaussianRational(net.bs.alpha)
    gains = []
    for g, k in zip(*map(quadrature_transfer, (net.plant, net.controller))):
        gk = g * k
        gains.append((gk.num, gk.den, gk.den + gk.num * alpha))
    ts, ss = [], []
    if closed:
        for p, q, den in gains:
            if den.is_zero():
                raise DegenerateNetworkError(
                    "closed-loop denominator 1 + alpha*G*K vanishes identically"
                )
            ts.append(RationalFn(q * alpha + p, den))
    if sens:
        beta2 = GaussianRational(net.bs.beta_squared)
        for p, q, den in gains:
            den = den * (q * alpha + p)
            if den.is_zero():
                raise DegenerateNetworkError("sensitivity denominator vanishes")
            ss.append(RationalFn(p * q * beta2, den))
    return ts, ss


def closed_loop(net: FeedbackNetwork):
    """(T_q, T_p) of the beamsplitter loop, as reduced rational functions."""
    return tuple(_loop(net, True, False)[0])


def _squeezing_xy(plant: QuadPlantParams, controller: QuadPlantParams):
    """The two real invariants X, Y of the zero-at-origin condition:
    X = (1/4) CqCp Cq'Cp' - W W',  Y = (i/2)(CqCp W' + Cq'Cp' W)."""
    c2 = plant.c_product
    c2p = controller.c_product
    w = plant.omega_plus
    wp = controller.omega_plus
    x = c2 * c2p / 4 - w * wp
    y = GaussianRational(0, Fraction(1, 2)) * (c2 * wp + c2p * w)
    return x, y


def squeezing_residual(net: FeedbackNetwork, quadrature: str) -> GaussianRational:
    """Left-hand side of the ideal-squeezing condition for the chosen
    quadrature; it vanishes exactly when the closed loop at that
    quadrature has a zero at the origin.

    Degenerate parameterizations with X = Y = 0 (both condition invariants
    vanish, e.g. an identically-1 controller) make the residual zero for
    every alpha without implying a closed-loop zero; closed_loop /
    solve_alpha_for_squeezing, which work on the reduced loop gain, are
    authoritative there."""
    if quadrature not in ("q", "p"):
        raise ParameterError(f"quadrature must be 'q' or 'p', got {quadrature!r}")
    x, y = _squeezing_xy(net.plant, net.controller)
    alpha = GaussianRational(net.bs.alpha)
    one = GR_ONE
    if quadrature == "q":
        return (one + alpha) * x - (one - alpha) * y
    return (one + alpha) * x + (one - alpha) * y


@dataclass(frozen=True, slots=True)
class AlphaSolution:
    """Mixing parameter solving the ideal-squeezing condition.

    ``raw`` is the algebraic solution; ``alpha`` is None when |raw| > 1
    (no physical beamsplitter); ``physical`` records which case occurred.
    """

    raw: Fraction
    physical: bool

    @property
    def alpha(self) -> Fraction | None:
        return self.raw if self.physical else None

    def to_dict(self):
        return {
            "raw": str(self.raw),
            "value": float(self.raw),
            "physical": self.physical,
        }


def solve_alpha_for_squeezing(
    plant: QuadPlantParams, controller: QuadPlantParams, quadrature: str
) -> AlphaSolution:
    """Solve the zero-at-origin condition for alpha.

    The closed-loop numerator at the origin is alpha + (G_j K_j)(0), so
    alpha = -(G_j K_j)(0), evaluated on the reduced loop gain (which also
    covers parameterizations whose unreduced factors degenerate at the
    origin, such as the identically-1 controller).  Equivalent, where both
    are defined, to (Y - X)/(X + Y) for the q quadrature and its
    sign-flipped variant for p.  Raises UnsolvableError when the loop gain
    has a pole at the origin (no finite alpha can place the zero there).
    """
    if quadrature not in ("q", "p"):
        raise ParameterError(f"quadrature must be 'q' or 'p', got {quadrature!r}")
    gain = _gain_at_origin(plant, controller, 0 if quadrature == "q" else 1)
    if gain is None:
        raise UnsolvableError(
            "loop gain has a pole at the origin; the ideal-squeezing "
            "condition has no solution for this pair"
        )
    raw = -gain
    return AlphaSolution(raw=raw, physical=abs(raw) <= 1)


def _gain_at_origin(plant, controller, idx) -> Fraction | None:
    """(G_j K_j)(0) on the reduced loop gain, or None where it has a pole
    at the origin."""
    gk = quadrature_transfer(plant)[idx] * quadrature_transfer(controller)[idx]
    den0 = gk.den(GR_ZERO)
    if den0.is_zero():
        return None
    return (gk.num(GR_ZERO) / den0).re


def unit_controller_alpha_formula(plant: QuadPlantParams, sign: str) -> Fraction:
    """The closed-form alpha for a trivial (identically-1) controller,

        alpha = (+-i W - c) / (+-i W + c),     c = (1/2) Cq Cp.

    This published shorthand differs in sign from the alpha that actually
    puts the closed-loop zero at the origin (solve_alpha_for_squeezing
    gives -G_j(0) for a unit controller; this formula gives +G_j(0) or its
    reciprocal).  It is provided for comparison and reporting; the
    normative route is solve_alpha_for_squeezing.
    """
    if sign not in ("+", "-"):
        raise ParameterError(f"sign must be '+' or '-', got {sign!r}")
    iw = GaussianRational(plant.i_omega)
    if sign == "-":
        iw = -iw
    c = GaussianRational(plant.half_coupling)
    den = iw + c
    if den.is_zero():
        raise UnsolvableError("formula denominator vanishes")
    return ((iw - c) / den).re


def synthesize_matched_controller(
    plant: QuadPlantParams, alpha, sign: str
) -> GaussianRational:
    """Pump parameter W' for a controller sharing the plant's couplings so
    that the loop squeezes ideally at one quadrature, alpha + (G_j K_j)(0)
    = 0 on the reduced loop gain; '-' targets the q quadrature, '+' the p
    quadrature.

    Write c = (1/2) Cq Cp, G_j = (s + n)/(s + d) for the plant and
    y = +-x for x = i W' (upper sign q), so that K_j = (s + y - c)/(s + y + c):

    - c = 0: G_j = K_j = 1 for every W', so only alpha = -1 is solved
      (by W' = 0);
    - n, d != 0: K_j(0) = (y - c)/(y + c) must equal k = -alpha d / n,
      so y = c (1 + k)/(1 - k); refused when k = 1, which no real y gives;
    - d = 0: G_j's pole at the origin must be cancelled by K_j's zero
      (y = c), which leaves a loop gain of -1 there, so only alpha = 1;
    - n = 0: the loop gain is 0 at the origin unless K_j's pole there
      (y = -c) cancels G_j's zero and leaves -1, so alpha = 0 takes any
      y != -c (y = c, the value the generic rule gives) and alpha = 1
      takes y = -c.

    The result is checked on the reduced loop gain, as in
    solve_alpha_for_squeezing.
    """
    if sign not in ("+", "-"):
        raise ParameterError(f"sign must be '+' or '-', got {sign!r}")
    a = Fraction(alpha)
    idx = 0 if sign == "-" else 1
    c = plant.half_coupling
    iw = plant.i_omega if sign == "-" else -plant.i_omega
    n, d = iw - c, iw + c
    if c == 0:
        ok, y, why = a == -1, 0, "the loop gain is identically 1, so only alpha = -1"
    elif d == 0:
        ok, y, why = a == 1, c, "a plant pole at the origin admits only alpha = 1"
    elif n == 0:
        ok, y = a in (0, 1), (c if a == 0 else -c)
        why = "a plant zero at the origin admits only alpha = 0 or 1"
    else:
        k = -a * d / n
        if k == 1:
            raise SynthesisError("matched-controller synthesis denominator vanishes")
        ok, y = True, c * (1 + k) / (1 - k)
    if not ok:
        raise SynthesisError(
            f"no matched controller places the zero at the origin: {why}"
        )
    w_prime = GaussianRational(0, -y if sign == "-" else y)
    Beamsplitter.create(a)  # ParameterError for |alpha| > 1
    controller = QuadPlantParams.create(w_prime, plant.c_q, plant.c_p)
    gain = _gain_at_origin(plant, controller, idx)
    if gain is None or a + gain != 0:
        raise SynthesisError(
            "synthesis self-check failed: alpha + G K does not vanish at the origin"
        )
    return w_prime


def matched_controller(plant: QuadPlantParams, alpha, sign: str) -> QuadPlantParams:
    """Controller params with the plant's couplings and the synthesized pump."""
    w_prime = synthesize_matched_controller(plant, alpha, sign)
    return QuadPlantParams.create(w_prime, plant.c_q, plant.c_p)


def sensitivity_functions(net: FeedbackNetwork):
    """(S_q, S_p) as exact rational functions."""
    return tuple(_loop(net, False, True)[1])


def sensitivity(net: FeedbackNetwork, s) -> tuple:
    """(S_q(s), S_p(s)) as complex numbers; raises at poles."""
    s = complex(s)
    vals = []
    for fn in sensitivity_functions(net):
        den = fn.den(s)
        scale = max(1.0, max(abs(complex(c)) for c in fn.den.coeffs))
        if abs(den) <= 1e-13 * scale:
            raise PoleEvaluationError(s, s)
        vals.append(complex(fn.num(s)) / den)
    return tuple(vals)


def frequency_sweep(net: FeedbackNetwork, w_from, w_to, points):
    """Rows (omega, |T_q|, |T_p|, |S_q|, |S_p|) at log-spaced omega."""
    if points < 1:
        raise ParameterError("sweep needs at least one point")
    if w_from <= 0 or w_to <= 0:
        raise ParameterError("sweep endpoints must be positive frequencies")
    ts, ss = _loop(net, True, True)
    fns = ts + ss
    ws = np.logspace(math.log10(w_from), math.log10(w_to), points).tolist()
    z = 1j * np.array(ws)
    dens = [_horner(fn.den, z) for fn in fns]
    for w, row in zip(ws, zip(*dens)):
        if 0 in row:
            s = 1j * w
            raise PoleEvaluationError(s, s)
    # the quotient and abs run on Python complex scalars: numpy divides by
    # multiplying with a reciprocal, and np.abs may differ from abs in the
    # last bit, which the 17 digits of the CSV would show
    cols = [
        [abs(x / y) for x, y in zip(_horner(fn.num, z), d)]
        for fn, d in zip(fns, dens)
    ]
    return list(zip(ws, *cols))


def _horner(poly: Poly, z: np.ndarray) -> list:
    """poly at every point of the complex array z, as a list of Python
    complex numbers, by the same steps as Poly.__call__ takes at one point."""
    acc = np.zeros_like(z)
    for c in poly.horner_coeffs():
        acc = acc * z + c
    return acc.tolist()


def write_sweep_csv(rows, fh):
    fh.write("omega,abs_T_q,abs_T_p,abs_S_q,abs_S_p\n")
    for row in rows:
        fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def random_network(seed) -> FeedbackNetwork:
    """Seeded random physical network with exact rational parameters."""
    rng = np.random.default_rng(seed)

    def frac(lo=-3, hi=3, dmax=3):
        return Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, dmax + 1)))

    def params():
        w = GaussianRational(0, frac())
        if rng.integers(0, 2):
            cq, cp = GaussianRational(frac()), GaussianRational(frac())
        else:
            cq, cp = GaussianRational(0, frac()), GaussianRational(0, frac())
        return QuadPlantParams.create(w, cq, cp)

    while True:
        alpha = frac(-2, 2, 3)
        if abs(alpha) <= 1:
            break
    return FeedbackNetwork(params(), params(), Beamsplitter.create(alpha))
