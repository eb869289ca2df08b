import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqsys import (
    Beamsplitter,
    DegenerateNetworkError,
    FeedbackNetwork,
    LqsysError,
    ParameterError,
    PoleEvaluationError,
    QuadPlantParams,
    SynthesisError,
    UnsolvableError,
    check_quadrature_duality,
    closed_loop,
    frequency_sweep,
    matched_controller,
    quadrature_transfer,
    sensitivity,
    sensitivity_functions,
    solve_alpha_for_squeezing,
    squeezing_residual,
    synthesize_matched_controller,
    unit_controller,
    unit_controller_alpha_formula,
)
from lqsys.feedback import (
    _gain_at_origin,
    _gain_roots,
    _monic_product,
    _roots,
    random_network,
    write_sweep_csv,
)
from lqsys.rational import GaussianRational as GR, Poly, RationalFn

S = Poly.s()
prop = settings(deadline=None)


@pytest.fixture
def plant():
    # pump -3i, coupling product 2: G_q = (s+2)/(s+4), G_p = (s-4)/(s-2)
    return QuadPlantParams.from_coupling_product(GR(0, -3), 2)


@pytest.fixture
def controller():
    return QuadPlantParams.from_coupling_product(GR(0, Fraction(-1, 3)), 2)


@pytest.fixture
def squeezing_net(plant, controller):
    return FeedbackNetwork(plant, controller, Beamsplitter.create(Fraction(1, 4)))


class TestParams:
    def test_rejects_non_imaginary_pump(self):
        with pytest.raises(ParameterError):
            QuadPlantParams.create(GR(1, 1), 1, 1)

    def test_rejects_mixed_coupling(self):
        with pytest.raises(ParameterError):
            QuadPlantParams.create(GR(0, 1), GR(1), GR(0, 1))

    def test_imaginary_couplings_allowed(self):
        p = QuadPlantParams.create(GR(0, 1), GR(0, 2), GR(0, 3))
        assert p.c_product == GR(-6)

    def test_beamsplitter_bounds(self):
        with pytest.raises(ParameterError):
            Beamsplitter.create(Fraction(3, 2))
        bs = Beamsplitter.create(Fraction(3, 5))
        assert bs.beta_squared == Fraction(16, 25)
        assert abs(bs.alpha ** 2 + bs.beta ** 2 - 1) < 1e-15


class TestQuadratureTransfer:
    def test_worked_example(self, plant):
        g_q, g_p = quadrature_transfer(plant)
        assert g_q == RationalFn(S + 2, S + 4)
        assert g_p == RationalFn(S - 4, S - 2)

    def test_dpa(self):
        dpa = QuadPlantParams.from_coupling_product(GR(0, Fraction(1, 2)), 2)
        g_q, g_p = quadrature_transfer(dpa)
        assert g_q == RationalFn(2 * S - 3, 2 * S + 1)  # (s-3/2)/(s+1/2)
        assert g_p == RationalFn(2 * S - 1, 2 * S + 3)  # (s-1/2)/(s+3/2)

    def test_closed_trivial(self):
        g_q, g_p = quadrature_transfer(unit_controller())
        assert g_q.is_one() and g_p.is_one()

    def test_duality(self, plant):
        assert check_quadrature_duality(*quadrature_transfer(plant))

    def test_duality_random(self):
        for seed in range(20):
            net = random_network(seed)
            assert check_quadrature_duality(*quadrature_transfer(net.plant))


class TestClosedLoop:
    def test_zero_at_origin(self, squeezing_net):
        t_q, t_p = closed_loop(squeezing_net)
        assert complex(t_q(0j)) == 0
        assert check_quadrature_duality(t_q, t_p)

    def test_mirror_degenerate(self, plant, controller):
        net = FeedbackNetwork(plant, controller, Beamsplitter.create(1))
        t_q, t_p = closed_loop(net)
        assert t_q.is_one() and t_p.is_one()

    def test_passthrough_is_series(self, plant, controller):
        net = FeedbackNetwork(plant, controller, Beamsplitter.create(0))
        t_q, _ = closed_loop(net)
        assert t_q == quadrature_transfer(plant)[0] * quadrature_transfer(controller)[0]

    def test_duality_preserved_on_random_networks(self):
        for seed in range(25):
            t_q, t_p = closed_loop(random_network(seed))
            assert check_quadrature_duality(t_q, t_p)


class TestSqueezingResidual:
    def test_worked_example(self, squeezing_net):
        assert squeezing_residual(squeezing_net, "q").is_zero()
        assert squeezing_residual(squeezing_net, "p") == GR(5)

    def test_alpha_minus_one(self, plant, controller):
        # at alpha = -1 the residual collapses to -2Y
        from lqsys.feedback import _squeezing_xy

        x, y = _squeezing_xy(plant, controller)
        net = FeedbackNetwork(plant, controller, Beamsplitter.create(-1))
        assert squeezing_residual(net, "q") == -2 * y
        assert squeezing_residual(net, "p") == 2 * y

    def test_residual_iff_zero_at_origin(self):
        # both directions of the equivalence, on solved and perturbed
        # networks; parameterizations with X = Y = 0 are excluded (the
        # residual is identically zero there and conveys nothing)
        from lqsys.feedback import _squeezing_xy

        checked = 0
        for seed in range(30):
            net = random_network(seed)
            if abs(net.bs.alpha) == 1:
                continue  # mirror: T is identically +-1, no condition to test
            x, y = _squeezing_xy(net.plant, net.controller)
            if x.is_zero() and y.is_zero():
                continue
            for quadrature, idx in (("q", 0), ("p", 1)):
                res = squeezing_residual(net, quadrature)
                t = closed_loop(net)[idx]
                num_at_zero = t.num(GR(0))
                den_at_zero = t.den(GR(0))
                if not den_at_zero.is_zero():
                    assert res.is_zero() == num_at_zero.is_zero()
                    checked += 1
        assert checked >= 20

    def test_solved_network_residual_vanishes(self, plant, controller):
        # forward direction on a solved network and failure on a perturbed one
        sol = solve_alpha_for_squeezing(plant, controller, "q")
        net = FeedbackNetwork(plant, controller, Beamsplitter.create(sol.alpha))
        assert squeezing_residual(net, "q").is_zero()
        off = FeedbackNetwork(
            plant, controller, Beamsplitter.create(sol.alpha + Fraction(1, 10))
        )
        assert not squeezing_residual(off, "q").is_zero()

    def test_bad_quadrature(self, squeezing_net):
        with pytest.raises(ParameterError):
            squeezing_residual(squeezing_net, "x")


class TestSolveAlpha:
    def test_worked_example(self, plant, controller):
        sol = solve_alpha_for_squeezing(plant, controller, "q")
        assert sol.physical and sol.alpha == Fraction(1, 4)

    def test_unphysical_returns_none(self):
        p = QuadPlantParams.from_coupling_product(GR(0, Fraction(1, 4)), 1)
        sol = solve_alpha_for_squeezing(p, p, "q")
        assert sol.raw == Fraction(-9) and not sol.physical and sol.alpha is None

    def test_closure_of_defining_equation(self, plant):
        # controller chosen so K_q(0) = -alpha/G_q(0) with alpha = 2/5;
        # the solver must return exactly that alpha
        k = QuadPlantParams.create(GR(0, -1), GR(9), GR(2))
        sol = solve_alpha_for_squeezing(plant, k, "q")
        assert sol.alpha == Fraction(2, 5)

    def test_pole_at_origin_unsolvable(self):
        # epsilon = kappa DPA: loop gain pole at the origin in q
        p = QuadPlantParams.from_coupling_product(GR(0, 1), 2)
        with pytest.raises(UnsolvableError):
            solve_alpha_for_squeezing(p, unit_controller(), "q")

    def test_unit_controller_and_formula_disagree(self, plant):
        # normative route: alpha = -G_q(0) = -1/2
        sol = solve_alpha_for_squeezing(plant, unit_controller(), "q")
        assert sol.raw == Fraction(-1, 2)
        # published shorthand gives +G_q(0) (or its reciprocal): flagged by
        # comparing against the normative value
        plus = unit_controller_alpha_formula(plant, "+")
        minus = unit_controller_alpha_formula(plant, "-")
        assert plus == Fraction(1, 2) and minus == Fraction(2)
        assert plus != sol.raw and minus != sol.raw

    def test_formula_refuses_a_vanishing_denominator(self):
        # i*omega_plus = -1 and c = 1: the '+' denominator -1 + c vanishes
        p = QuadPlantParams.from_coupling_product(GR(0, 1), 2)
        with pytest.raises(UnsolvableError, match="denominator vanishes"):
            unit_controller_alpha_formula(p, "+")
        assert unit_controller_alpha_formula(p, "-") == 0

    def test_matches_xy_form_when_defined(self, plant, controller):
        from lqsys.feedback import _squeezing_xy

        x, y = _squeezing_xy(plant, controller)
        sol = solve_alpha_for_squeezing(plant, controller, "q")
        assert sol.raw == ((y - x) / (x + y)).re
        sol_p = solve_alpha_for_squeezing(plant, controller, "p")
        assert sol_p.raw == ((x + y) / (y - x)).re


class TestSynthesis:
    def test_alpha_zero_closed_form(self, plant):
        # at alpha = 0 the formula collapses to -+ i c2 / 2
        assert synthesize_matched_controller(plant, 0, "-") == GR(0, -1)
        assert synthesize_matched_controller(plant, 0, "+") == GR(0, 1)

    def test_reproduces_worked_controller(self, plant):
        w = synthesize_matched_controller(plant, Fraction(1, 4), "-")
        assert w == GR(0, Fraction(-1, 3))

    def test_zero_at_origin_both_signs(self, plant):
        for sign, idx in (("-", 0), ("+", 1)):
            k = matched_controller(plant, Fraction(1, 4), sign)
            net = FeedbackNetwork(plant, k, Beamsplitter.create(Fraction(1, 4)))
            t = closed_loop(net)[idx]
            assert t.num(GR(0)).is_zero()

    def test_symbolic_residual_closure(self):
        # substituting the synthesized pump back into the condition gives a
        # zero residual exactly, across a parameter sweep
        for seed in range(10):
            net = random_network(seed)
            plant = net.plant
            if plant.c_product.is_zero():
                continue
            alpha = net.bs.alpha
            for sign, quadrature in (("-", "q"), ("+", "p")):
                try:
                    k = matched_controller(plant, alpha, sign)
                except SynthesisError:
                    continue
                res = squeezing_residual(
                    FeedbackNetwork(plant, k, net.bs), quadrature
                )
                assert res.is_zero()

    def test_degenerate_denominator(self):
        # c2 = 2, W = 0, alpha = 1 zeroes the '-' branch denominator
        # (1 - alpha) c2 - 2 (1 + alpha) iW
        p = QuadPlantParams.from_coupling_product(GR(0), 2)
        with pytest.raises(SynthesisError):
            synthesize_matched_controller(p, 1, "-")


class TestSensitivity:
    def test_unit_at_full_reflection(self, plant, controller):
        net = FeedbackNetwork(plant, controller, Beamsplitter.create(0))
        s_q, s_p = sensitivity(net, 0.7j)
        assert abs(s_q - 1) < 1e-14 and abs(s_p - 1) < 1e-14

    def test_divergence_toward_squeezing_zero(self, squeezing_net):
        lo = abs(sensitivity(squeezing_net, 1e-3j)[0])
        hi = abs(sensitivity(squeezing_net, 1e-1j)[0])
        assert lo / hi >= 10
        slope = (math.log(lo) - math.log(hi)) / (math.log(1e-3) - math.log(1e-1))
        assert abs(slope + 1) < 0.1

    def test_finite_difference_consistency(self, squeezing_net):
        rng = np.random.default_rng(12)
        g_q = quadrature_transfer(squeezing_net.plant)[0]
        k_q = quadrature_transfer(squeezing_net.controller)[0]
        a = float(squeezing_net.bs.alpha)
        h = 1e-6
        for _ in range(8):
            s = 1j * 10 ** rng.uniform(-2, 1)
            g = complex(g_q(s))
            k = complex(k_q(s))

            def loop(gv):
                return (a + gv * k) / (1 + a * gv * k)

            fd = (loop(g * (1 + h)) - loop(g)) / loop(g) / h
            s_q = sensitivity(squeezing_net, s)[0]
            assert abs(s_q - fd) / abs(s_q) < 1e-4

    def test_pole_raises(self, squeezing_net):
        from lqsys import PoleEvaluationError

        with pytest.raises(PoleEvaluationError):
            sensitivity(squeezing_net, 0j)  # alpha + GK vanishes at the origin


# endpoints that are not finite and positive, and point counts that are
# not ints or lie outside 1..10**6; no count above the cap is ever allocated
REFUSED_SWEEPS = (
    (math.nan, 1.0, 2), (1.0, math.nan, 2), (1.0, math.inf, 3), (0.0, 1.0, 3),
    (1.0, 2.0, 0), (1.0, 2.0, 10**6 + 1), (1.0, 2.0, 10**20), (1.0, 2.0, 3.0),
    (1.0, 2.0, 2.5),
)


class TestSweep:
    def test_rows_and_csv(self, squeezing_net):
        rows = frequency_sweep(squeezing_net, 1e-3, 1e0, 16)
        assert len(rows) == 16
        assert rows[0][0] == pytest.approx(1e-3)
        assert rows[-1][0] == pytest.approx(1.0)
        # squeezing: |T_q| drops and |S_q| grows toward low frequency
        assert rows[0][1] < rows[-1][1]
        assert rows[0][3] > rows[-1][3]
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "omega,abs_T_q,abs_T_p,abs_S_q,abs_S_p"
        assert len(lines) == 17

    def test_bad_range(self, squeezing_net):
        with pytest.raises(ParameterError):
            frequency_sweep(squeezing_net, -1.0, 1.0, 5)

    @pytest.mark.parametrize("sweep", REFUSED_SWEEPS)
    def test_refused_before_the_grid_is_made(self, squeezing_net, sweep, monkeypatch):
        monkeypatch.setattr(np, "logspace", None)  # a call would raise TypeError
        with pytest.raises(ParameterError, match="sweep"):
            frequency_sweep(squeezing_net, *sweep)

    def test_point_count_is_an_index(self, squeezing_net):
        # 3.0 and 2.5 escaped as numpy's TypeError from np.logspace
        for points in (3.0, 2.5):
            with pytest.raises(ParameterError, match=f"points, got {points}$"):
                frequency_sweep(squeezing_net, 1.0, 2.0, points)
        want = frequency_sweep(squeezing_net, 1.0, 2.0, 3)
        assert frequency_sweep(squeezing_net, 1.0, 2.0, np.int64(3)) == want

    def test_sweep_through_a_pole_raises_pole_error(self):
        # T_q = (s^2 - 2s + 2)/(s^2 + 1): a lossless closed-loop pole at s = i
        net = FeedbackNetwork(
            QuadPlantParams.from_coupling_product(GR(0, Fraction(3, 2)), 3),
            QuadPlantParams.from_coupling_product(GR(0, Fraction(-1, 2)), 3),
            Beamsplitter.create(Fraction(1, 2)),
        )
        assert closed_loop(net)[0].den == S * S + 1
        with pytest.raises(PoleEvaluationError):
            frequency_sweep(net, 1.0, 1.0, 1)


# ---------------------------------------------------------------------------
# references written here: the general RationalFn arithmetic, reducing every
# product and quotient by a gcd, and per-point evaluation of the results


def ref_transfer(p):
    iw, c = GR(p.i_omega), GR(p.half_coupling)
    return (
        RationalFn(Poly([iw - c, 1]), Poly([iw + c, 1])),
        RationalFn(Poly([-iw - c, 1]), Poly([-iw + c, 1])),
    )


def ref_gains(net):
    plant, controller = ref_transfer(net.plant), ref_transfer(net.controller)
    return [g * k for g, k in zip(plant, controller)]


def ref_closed_loop(net):
    a = RationalFn.of(GR(net.bs.alpha))
    out = []
    for gk in ref_gains(net):
        den = 1 + a * gk
        if den.is_zero():
            raise DegenerateNetworkError(
                "closed-loop denominator 1 + alpha*G*K vanishes identically"
            )
        out.append((a + gk) / den)
    return tuple(out)


def ref_sensitivity_functions(net):
    a = RationalFn.of(GR(net.bs.alpha))
    b2 = RationalFn.of(GR(net.bs.beta_squared))
    out = []
    for gk in ref_gains(net):
        den = (1 + a * gk) * (a + gk)
        if den.is_zero():
            raise DegenerateNetworkError("sensitivity denominator vanishes")
        out.append(b2 * gk / den)
    return tuple(out)


def ref_sensitivity(net, s):
    s = complex(s)
    vals = []
    for fn in ref_sensitivity_functions(net):
        den = fn.den(s)
        scale = max(1.0, max(abs(complex(c)) for c in fn.den.coeffs))
        if abs(den) <= 1e-13 * scale:
            raise PoleEvaluationError(s, s)
        vals.append(complex(fn.num(s)) / den)
    return tuple(vals)


def ref_sweep(net, w_from, w_to, points):
    if not isinstance(points, int) or not 1 <= points <= 10**6:
        raise ParameterError(f"sweep needs 1 to 1000000 points, got {points}")
    if not all(0 < w < math.inf for w in (w_from, w_to)):
        raise ParameterError("sweep endpoints must be positive finite frequencies")
    fns = ref_closed_loop(net) + ref_sensitivity_functions(net)
    rows = []
    for w in np.logspace(math.log10(w_from), math.log10(w_to), points):
        s = 1j * float(w)
        rows.append((float(w),) + tuple(abs(complex(fn(s))) for fn in fns))
    return rows


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except LqsysError as exc:
        return type(exc), str(exc)


def assert_matches_reference(net):
    assert outcome(closed_loop, net) == outcome(ref_closed_loop, net)
    assert outcome(sensitivity_functions, net) == outcome(
        ref_sensitivity_functions, net
    )
    for s in (0.37 + 1.3j, 2.5j, 0j, 1j):
        assert outcome(sensitivity, net, s) == outcome(ref_sensitivity, net, s)
    for sweep in ((1e-3, 1e2, 13), (1.0, 1.0, 1), (0.5, 2.0, 3), (2.0, 0.5, 4),
                  *REFUSED_SWEEPS):
        assert outcome(frequency_sweep, net, *sweep) == outcome(ref_sweep, net, *sweep)


def net_of(w_plant, c_plant, w_ctrl, c_ctrl, alpha):
    return FeedbackNetwork(
        QuadPlantParams.from_coupling_product(GR(0, w_plant), c_plant),
        QuadPlantParams.from_coupling_product(GR(0, w_ctrl), c_ctrl),
        Beamsplitter.create(alpha),
    )


fractions = st.builds(
    Fraction, st.integers(-4, 4), st.integers(1, 3)
)
networks = st.builds(
    net_of,
    fractions,
    fractions,
    fractions,
    fractions,
    st.sampled_from([-1, Fraction(-2, 3), Fraction(-1, 2), 0, Fraction(1, 3), 1]),
)

# alpha = +-1 and 0, zero coupling products (c = 0, so n = d and the factor
# is 1), factors that cancel, plant roots at the origin, and lossless
# closed-loop poles on the sweep grid
EDGE_NETWORKS = [
    net_of(0, 0, 0, 0, -1),  # G = K = 1, alpha = -1: degenerate loop
    net_of(0, 0, 0, 0, 1),
    net_of(3, 0, Fraction(1, 2), 0, Fraction(1, 2)),
    net_of(-3, 2, Fraction(-1, 3), 2, -1),
    net_of(-3, 2, Fraction(-1, 3), 2, 1),
    net_of(-3, 2, Fraction(-1, 3), 2, 0),
    net_of(-3, 2, 3, 2, Fraction(1, 4)),  # K_q = 1/G_q: the loop gain is 1
    net_of(1, 2, 0, 0, Fraction(1, 2)),  # pole of G_q at the origin
    net_of(-1, 2, -1, 2, Fraction(-1, 2)),  # zero of G_q at the origin
    net_of(Fraction(3, 2), 3, Fraction(-1, 2), 3, Fraction(1, 2)),  # T_q pole at i
]


class TestLoopAgainstReference:
    @pytest.mark.parametrize("seed", range(0, 400, 3))
    def test_random_networks(self, seed):
        assert_matches_reference(random_network(seed))

    @pytest.mark.parametrize("net", EDGE_NETWORKS)
    def test_edge_networks(self, net):
        assert_matches_reference(net)

    def test_edges_cover_refusals_and_poles(self):
        kinds = {type(outcome(closed_loop, n)) for n in EDGE_NETWORKS}
        assert kinds == {tuple}
        assert outcome(closed_loop, EDGE_NETWORKS[0])[0] is DegenerateNetworkError
        got = outcome(frequency_sweep, EDGE_NETWORKS[-1], 1.0, 1.0, 1)
        assert got[0] is PoleEvaluationError and "s=1j" in got[1]

    @prop
    @given(networks)
    def test_drawn_networks(self, net):
        assert_matches_reference(net)

    @prop
    @given(networks)
    def test_quadrature_transfer_is_the_general_construction(self, net):
        for p in (net.plant, net.controller):
            got = quadrature_transfer(p)
            assert got == ref_transfer(p)
            for fn, ref in zip(got, ref_transfer(p)):
                assert (fn.num, fn.den) == (ref.num, ref.den)
                assert fn.den.leading() == GR(1)

    def test_sweep_rows_are_python_floats(self, squeezing_net):
        rows = frequency_sweep(squeezing_net, 1e-2, 1e1, 5)
        assert all(type(v) is float for row in rows for v in row)
        assert rows == ref_sweep(squeezing_net, 1e-2, 1e1, 5)


# ---------------------------------------------------------------------------
# the gcd-free constructions (factors, reduced loop gain, its value at the
# origin, closed loop, sensitivity) field by field against RationalFn(num,
# den), which reduces by a gcd


def fields(fn):
    """The canonical fields of a RationalFn, numerator then denominator."""
    return [(p._xs, p._ys, p._q) for p in (fn.num, fn.den)]


def by_gcd(num, den):
    return fields(RationalFn(num, den))


def linear(r):
    return Poly([r, 1])


def degenerate_or(build, net):
    try:
        return [fields(fn) for fn in build(net)]
    except DegenerateNetworkError as exc:
        return str(exc)


CLOSED_REFUSAL = "closed-loop denominator 1 + alpha*G*K vanishes identically"
SENSITIVITY_REFUSAL = "sensitivity denominator vanishes"


def check_constructions(net):
    """Assert each construction equals its gcd reference; return the kind
    of loop gain at each quadrature and the closed-loop outcome."""
    a, b2 = GR(net.bs.alpha), GR(net.bs.beta_squared)
    for params in (net.plant, net.controller):
        for fn, (n, d) in zip(quadrature_transfer(params), _roots(params)):
            assert fields(fn) == by_gcd(linear(n), linear(d))
    closed, sens, kinds = [], [], []
    for idx, (g, k) in enumerate(zip(_roots(net.plant), _roots(net.controller))):
        gain = RationalFn(linear(g[0]) * linear(k[0]), linear(g[1]) * linear(k[1]))
        p, q = gain.num, gain.den
        zeros, poles = _gain_roots(g, k)
        got = RationalFn._reduced(_monic_product(zeros), _monic_product(poles))
        assert fields(got) == fields(gain)
        if g[0] == g[1] or k[0] == k[1]:
            kinds.append("one" if gain.is_one() else "a unit factor")
        else:
            kinds.append({(True, True): "one", (True, False): "zero of K on pole of G",
                          (False, True): "zero of G on pole of K",
                          (False, False): "no cancellation"}[(k[0] == g[1], g[0] == k[1])])
        den0 = q(GR(0))
        at_origin = None if den0.is_zero() else (p(GR(0)) / den0).re
        assert _gain_at_origin(net.plant, net.controller, idx) == at_origin
        down, up = q + p * a, q * a + p
        closed.append(CLOSED_REFUSAL if down.is_zero() else by_gcd(up, down))
        sens.append(
            SENSITIVITY_REFUSAL if (down * up).is_zero() else by_gcd(p * q * b2, down * up)
        )
    # a refusal names the first quadrature, q before p, that has one
    want_closed = next((x for x in closed if isinstance(x, str)), closed)
    want_sens = next((x for x in sens if isinstance(x, str)), sens)
    assert degenerate_or(closed_loop, net) == want_closed
    assert degenerate_or(sensitivity_functions, net) == want_sens
    # a sweep asks for both: the closed-loop refusal comes first
    sweep = outcome(frequency_sweep, net, 1.0, 2.0, 2)
    if isinstance(want_closed, str) or isinstance(want_sens, str):
        want = want_closed if isinstance(want_closed, str) else want_sens
        assert sweep == (DegenerateNetworkError, want)
    return kinds, want_closed if isinstance(want_closed, str) else "built"


CONTROLLER_KINDS = ("free", "zero on pole", "pole on zero", "inverse", "unit")
ALPHAS = (-1, 0, 1, Fraction(-2, 3), Fraction(1, 2))


def controller_of(kind, w, c2, w_free, c2_free):
    """(pump, coupling product) of a controller placed against the plant
    (w, c2): with i W = -w and c = c2/2, G_q = (s - w - c)/(s - w + c) and
    G_p = (s + w - c)/(s + w + c).  "zero on pole" puts K_q's zero on
    G_q's pole, "pole on zero" K_q's pole on G_q's zero (each does the
    other at p), "inverse" gives K = 1/G at both quadratures."""
    half = (c2 + c2_free) / 2
    return {
        "free": (w_free, c2_free),
        "zero on pole": (w - half, c2_free),
        "pole on zero": (w + half, c2_free),
        "inverse": (w, -c2),
        "unit": (0, 0),
    }[kind]


class TestGcdFreeConstructions:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(fractions, fractions, st.sampled_from(CONTROLLER_KINDS), fractions,
           fractions, st.sampled_from(ALPHAS + (Fraction(1, 3), Fraction(-1, 5))))
    def test_drawn_networks(self, w, c2, kind, w_free, c2_free, alpha):
        check_constructions(net_of(w, c2, *controller_of(kind, w, c2, w_free, c2_free), alpha))

    def test_every_case_is_reached(self):
        seen = set()
        for w, c2 in ((Fraction(-3), 2), (Fraction(1, 2), Fraction(-4, 3)), (1, 0), (0, 0)):
            for kind in CONTROLLER_KINDS:
                for alpha in ALPHAS:
                    net = net_of(w, c2, *controller_of(kind, w, c2, Fraction(2, 3), 1), alpha)
                    kinds, closed = check_constructions(net)
                    seen.update((kind, k, alpha, closed) for k in kinds)
        assert {s[1] for s in seen} == {
            "one", "a unit factor", "zero of K on pole of G", "zero of G on pole of K",
            "no cancellation"}
        assert {s[1] for s in seen if s[0] == "inverse"} == {"one"}
        # loop gain 1 (K = 1/G, or G = K = 1) at alpha = -1 is refused
        assert {s[3] for s in seen if s[1] == "one" and s[2] == -1} == {CLOSED_REFUSAL}
        assert {s[3] for s in seen if s[2] != -1} == {"built"}

    def test_sensitivity_refusal_alone(self):
        net = net_of(1, 2, 1, -2, -1)  # K = 1/G
        assert degenerate_or(sensitivity_functions, net) == SENSITIVITY_REFUSAL
        assert degenerate_or(closed_loop, net) == CLOSED_REFUSAL


def duality_pairs(net):
    """Plant, controller and closed-loop pairs, and two crossed pairs that
    are dual only by accident."""
    g, k = quadrature_transfer(net.plant), quadrature_transfer(net.controller)
    pairs = [g, k, (g[0], k[1]), (k[0], g[1])]
    try:
        pairs.append(closed_loop(net))
    except DegenerateNetworkError:
        pass
    return pairs


class TestDualityAgainstReducedProduct:
    """check_quadrature_duality cross-multiplies; the reference forms the
    reduced product G_q(s) G_p(-s) and asks whether it is 1."""

    @staticmethod
    def assert_agrees(nets):
        seen = set()
        for net in nets:
            for g_q, g_p in duality_pairs(net):
                want = (g_q * g_p.compose_neg()).is_one()
                assert check_quadrature_duality(g_q, g_p) is want
                seen.add(want)
        return seen

    def test_random_networks(self):
        assert self.assert_agrees(random_network(seed) for seed in range(3000)) == {
            True, False,
        }

    def test_edge_alphas_and_zero_coupling(self):
        nets = [
            FeedbackNetwork(net.plant, net.controller, Beamsplitter.create(alpha))
            for net in map(random_network, range(100))
            for alpha in (-1, 0, 1)
        ]
        nets += EDGE_NETWORKS + [net_of(0, 0, 2, 1, a) for a in (-1, 0, 1)]
        assert self.assert_agrees(nets) == {True, False}


# ---------------------------------------------------------------------------
# matched-controller synthesis against an existence predicate written here


def synthesis_exists(plant, alpha, sign):
    """Whether a controller sharing the plant's couplings puts the closed
    loop's zero at the origin.  With G = (s + n)/(s + d) and K(0) =
    (y - c)/(y + c): K(0) takes every real value but 1 as y runs over the
    reals (c != 0); a pole or zero of G at the origin can only be cancelled
    by K's zero or pole there, which leaves a loop gain of -1; for c = 0
    the loop gain is identically 1."""
    c = plant.half_coupling
    iw = plant.i_omega if sign == "-" else -plant.i_omega
    n, d = iw - c, iw + c
    if c == 0:
        return alpha == -1
    if d == 0:
        return alpha == 1
    if n == 0:
        return alpha in (0, 1)
    return -alpha * d / n != 1


def zeroes_origin(plant, w_prime, alpha, sign):
    """alpha + (G_j K_j)(0) = 0 on the reference loop gain."""
    idx = 0 if sign == "-" else 1
    ctrl = QuadPlantParams.create(w_prime, plant.c_q, plant.c_p)
    gk = ref_transfer(plant)[idx] * ref_transfer(ctrl)[idx]
    den0 = gk.den(GR(0))
    return not den0.is_zero() and (GR(alpha) + gk.num(GR(0)) / den0).is_zero()


def closed_form(plant, alpha, sign):
    """The published generic-case pump, or None where its denominator
    vanishes."""
    a, c2, iw = GR(alpha), plant.c_product, plant.omega_plus * GR(0, 1)
    s = GR(-1) if sign == "-" else GR(1)
    num = (1 + a) * c2 + s * 2 * (1 - a) * iw
    den = (1 - a) * c2 + s * 2 * (1 + a) * iw
    return None if den.is_zero() else s * GR(0, Fraction(1, 2)) * c2 * num / den


def check_synthesis(plant, alpha, sign):
    got = outcome(synthesize_matched_controller, plant, alpha, sign)
    c = plant.half_coupling
    candidates = [GR(0, y) for y in (c, -c, 0, 1, -2)]
    generic = closed_form(plant, alpha, sign)
    if generic is not None:
        candidates.append(generic)
    if synthesis_exists(plant, alpha, sign):
        assert isinstance(got, GR) and got.is_imaginary()
        assert zeroes_origin(plant, got, alpha, sign)
        iw = plant.i_omega if sign == "-" else -plant.i_omega
        if c != 0 and iw - c != 0 and iw + c != 0:
            assert got == generic  # the generic solution is unique
    else:
        assert got[0] is SynthesisError
        assert not any(zeroes_origin(plant, w, alpha, sign) for w in candidates)


class TestSynthesisExistence:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_networks(self, seed):
        net = random_network(seed)
        for sign in "-+":
            for alpha in (net.bs.alpha, -1, 0, 1):
                check_synthesis(net.plant, alpha, sign)

    @prop
    @given(fractions, fractions, st.sampled_from([-1, Fraction(-1, 2), 0, 1]))
    def test_drawn_plants(self, w, c2, alpha):
        plant = QuadPlantParams.from_coupling_product(GR(0, w), c2)
        for sign in "-+":
            check_synthesis(plant, alpha, sign)

    def test_origin_cases(self):
        # G_q = (s - 2)/s: only alpha = 1, by K_q = s/(s + 2)
        pole = QuadPlantParams.from_coupling_product(GR(0, 1), 2)
        assert synthesize_matched_controller(pole, 1, "-") == GR(0, -1)
        for alpha in (0, Fraction(1, 2), -1):
            with pytest.raises(SynthesisError, match="pole at the origin"):
                synthesize_matched_controller(pole, alpha, "-")
        # G_q = s/(s + 2): alpha = 0 by K_q = s/(s + 2), alpha = 1 by (s - 2)/s
        zero = QuadPlantParams.from_coupling_product(GR(0, -1), 2)
        assert synthesize_matched_controller(zero, 0, "-") == GR(0, -1)
        assert synthesize_matched_controller(zero, 1, "-") == GR(0, 1)
        with pytest.raises(SynthesisError, match="zero at the origin"):
            synthesize_matched_controller(zero, Fraction(1, 2), "-")
        # c = 0: the loop gain is 1 for every controller
        flat = QuadPlantParams.from_coupling_product(GR(0, 2), 0)
        assert synthesize_matched_controller(flat, -1, "+") == GR(0)
        with pytest.raises(SynthesisError, match="identically 1"):
            synthesize_matched_controller(flat, 0, "+")

    def test_unphysical_alpha_still_rejected(self, plant):
        with pytest.raises(ParameterError):
            synthesize_matched_controller(plant, 2, "-")
