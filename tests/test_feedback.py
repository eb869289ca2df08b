import io
import math
from fractions import Fraction

import numpy as np
import pytest

from lqsys import (
    Beamsplitter,
    FeedbackNetwork,
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
    solve_alpha_for_squeezing,
    squeezing_residual,
    synthesize_matched_controller,
    unit_controller,
    unit_controller_alpha_formula,
)
from lqsys.feedback import random_network, write_sweep_csv
from lqsys.rational import GaussianRational as GR, Poly, RationalFn

S = Poly.s()


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
