from fractions import Fraction

import pytest

from lqsys import GaussianRational, Poly, RationalFn
from lqsys.errors import ExactnessError, PoleEvaluationError
from lqsys.rational import GR_ONE, render_poly

S = Poly.s()


class TestGaussianRational:
    def test_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
        b = GaussianRational(2, 1)
        assert a + b == GaussianRational(Fraction(5, 2), Fraction(1, 4))
        assert a * b == GaussianRational(Fraction(7, 4), -1)
        assert (a / a) == GR_ONE
        assert complex(a) == 0.5 - 0.75j

    def test_conjugate_and_abs2(self):
        z = GaussianRational(3, -4)
        assert z.conjugate() == GaussianRational(3, 4)
        assert z * z.conjugate() == 25

    def test_float_conversion_is_exact(self):
        z = GaussianRational.of(0.25 + 0.5j)
        assert z.re == Fraction(1, 4) and z.im == Fraction(1, 2)

    def test_string_parse(self):
        assert GaussianRational("3/4", "-1/2") == GaussianRational(
            Fraction(3, 4), Fraction(-1, 2)
        )

    def test_rejects_garbage(self):
        with pytest.raises(ExactnessError):
            GaussianRational.of(object())

    def test_rendering(self):
        assert str(GaussianRational(Fraction(1, 2), Fraction(1, 2))) == "1/2+1/2i"
        assert str(GaussianRational(0, -1)) == "-i"
        assert str(GaussianRational(3)) == "3"

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GR_ONE / GaussianRational(0)

    def test_immutable_and_hashable(self):
        z = GaussianRational(1, 2)
        with pytest.raises(AttributeError):
            z.re = Fraction(5)
        assert hash(z) == hash(GaussianRational(1, 2))


class TestPoly:
    def test_trims_leading_zeros(self):
        assert Poly([1, 2, 0, 0]).degree == 1
        assert Poly([0, 0]).is_zero()

    def test_gcd_examples(self):
        assert (S * S - 1).gcd(S - 1) == S - 1
        assert S.gcd(S - 1) == Poly([1])
        assert (S * S - 3 * S + 2).gcd(S * S - 1) == S - 1

    def test_gcd_with_zero(self):
        p = 2 * S + 2
        assert p.gcd(Poly()) == (S + 1)

    def test_divmod_property(self):
        import random

        rnd = random.Random(5)
        for _ in range(30):
            a = Poly([Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)) for _ in range(rnd.randint(1, 6))])
            b = Poly([Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)) for _ in range(rnd.randint(1, 4))])
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree

    def test_ext_gcd_bezout(self):
        a = (S - 1) * (S + 2)
        b = (S - 1) * (S - 3)
        g, u, v = a.ext_gcd(b)
        assert g == S - 1
        assert u * a + v * b == g

    def test_monic(self):
        p = Poly([2, 4])
        assert p.monic() == Poly([Fraction(1, 2), 1])

    def test_compose_neg(self):
        p = S * S + 3 * S + 2
        assert p.compose_neg() == S * S - 3 * S + 2

    def test_eval_exact_and_float(self):
        p = S * S + 1
        assert p(GaussianRational(0, 1)) == GaussianRational(0)
        assert abs(p(1j)) < 1e-15

    def test_rendering(self):
        assert render_poly(S * S + 3 * S + 2) == "s^2+3s+2"
        assert render_poly(Poly()) == "0"
        assert render_poly(-S) == "-s"
        assert render_poly(Poly([GaussianRational(0, 1), 1])) == "s+i"


class TestRationalFn:
    def test_reduction_and_monic_denominator(self):
        f = RationalFn(2 * S + 2, 2 * S * S - 2)  # (2s+2)/(2s^2-2) = 1/(s-1)
        assert f.num == Poly([1])
        assert f.den == S - 1

    def test_zero(self):
        f = RationalFn(Poly(), S - 1)
        assert f.is_zero() and f.den == Poly([1])

    def test_arithmetic_field_axioms(self):
        f = RationalFn(S, S - 1)
        g = RationalFn(Poly([1]), S + 2)
        assert (f + g) - g == f
        assert (f * g) / g == f
        assert f * g == g * f

    def test_compose_neg_duality_shape(self):
        f = RationalFn(S + 2, S + 4)
        g = RationalFn(S - 4, S - 2)
        assert (f * g.compose_neg()).is_one()

    def test_rendering(self):
        assert str(RationalFn(S * S + 3 * S + 2, S - 1)) == "(s^2+3s+2)/(s-1)"
        assert str(RationalFn(Poly([1]), S - 1)) == "1/(s-1)"
        assert str(RationalFn(S)) == "s"

    def test_denominator_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFn(S, Poly())

    def test_evaluation_at_exact_pole_raises_pole_error(self):
        f = RationalFn(S + 1, S * S + 1)  # poles at +-i
        assert f(GaussianRational(0, 2)) == GaussianRational(Fraction(-1, 3), Fraction(-2, 3))
        for s in (GaussianRational(0, 1), GaussianRational(0, -1), 1j, -1j):
            with pytest.raises(PoleEvaluationError) as exc:
                f(s)
            assert exc.value.s == s
