"""Poly and exact-matrix arithmetic against independent oracles.

Poly operations are compared with a coefficient-wise reference written
here on lists of GaussianRational (one normalized value per coefficient,
schoolbook algorithms).  Determinants, characteristic polynomials and
pencil determinants are compared with sympy's DomainMatrix over QQ_I,
which is a test-only dependency.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqsys import exactlinalg as xl
from lqsys import rational
from lqsys.rational import GR_ONE, GR_ZERO, GaussianRational, Poly

SETTINGS = settings(max_examples=80, deadline=None)

# -- coefficient-wise reference ----------------------------------------------


def trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    a = a + [GR_ZERO] * (n - len(a))
    b = b + [GR_ZERO] * (n - len(b))
    return trim(x + y for x, y in zip(a, b))


def ref_neg(a):
    return [-x for x in a]


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [GR_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trim(out)


def ref_divmod(a, b):
    rem = list(a)
    if len(a) < len(b):
        return [], trim(a)
    q = [GR_ZERO] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = rem[len(b) - 1 + k] / b[-1]
        q[k] = c
        for j, y in enumerate(b):
            rem[j + k] = rem[j + k] - c * y
    return trim(q), trim(rem[: len(b) - 1])


def ref_monic(a):
    return [x / a[-1] for x in a] if a else []


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_ext_gcd(a, b):
    r0, r1 = a, b
    u0, u1, v0, v1 = [GR_ONE], [], [], [GR_ONE]
    while r1:
        q, r = ref_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, ref_add(u0, ref_neg(ref_mul(q, u1)))
        v0, v1 = v1, ref_add(v0, ref_neg(ref_mul(q, v1)))
    if not r0:
        return [], [], []
    inv = GR_ONE / r0[-1]
    return ref_monic(r0), [x * inv for x in u0], [x * inv for x in v0]


def ref_horner(a, x):
    acc = GR_ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


# -- strategies ----------------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))
gaussians = st.builds(
    GaussianRational, fractions, st.one_of(st.just(Fraction(0)), fractions)
)
coeff_lists = st.lists(gaussians, max_size=7)
polys = coeff_lists.map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def L(p):
    return list(p.coeffs)


# -- Poly ----------------------------------------------------------------------


class TestPolyAgainstReference:
    @SETTINGS
    @given(polys, polys)
    def test_add_sub_mul(self, a, b):
        assert L(a + b) == ref_add(L(a), L(b))
        assert L(a - b) == ref_add(L(a), ref_neg(L(b)))
        assert L(-a) == ref_neg(L(a))
        assert L(a * b) == ref_mul(L(a), L(b))

    @SETTINGS
    @given(polys, gaussians)
    def test_scalar_mul(self, a, c):
        assert L(a * c) == ref_mul(L(a), trim([c]))
        assert L(3 * a) == L(a * 3) == ref_mul(L(a), [GaussianRational(3)])

    @SETTINGS
    @given(polys, nonzero_polys)
    def test_divmod(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        assert (L(q), L(r)) == ref_divmod(L(a), L(b))
        assert a // b == q and a % b == r

    @SETTINGS
    @given(polys, polys, polys)
    def test_gcd_ext_gcd_lcm(self, a, b, c):
        a, b = a * c, b * c  # a common factor makes the gcd nontrivial
        g = a.gcd(b)
        assert L(g) == ref_gcd(L(a), L(b))
        g2, u, v = a.ext_gcd(b)
        assert (L(g2), L(u), L(v)) == ref_ext_gcd(L(a), L(b))
        assert u * a + v * b == g2 == g
        if not a.is_zero() and not b.is_zero():
            lcm = ref_monic(ref_divmod(ref_mul(L(a), L(b)), ref_gcd(L(a), L(b)))[0])
            assert L(a.lcm(b)) == lcm
            assert g.divides(a) and g.divides(b)

    def test_gcd_when_the_modular_images_share_a_factor(self):
        # the coprimality shortcut works modulo the prime P; polynomials
        # that are coprime over Q(i) but not modulo P, or whose leading
        # coefficient vanishes modulo P, must still get the exact gcd
        p = rational._P
        s = Poly.s()
        assert s.gcd(s - p) == Poly([1])
        assert (s * s + 1).gcd(s - rational._I_MOD) == Poly([1])
        assert (p * s + 1).gcd(s + 1) == Poly([1])
        assert ((s - p) * (s + 2)).gcd(s * (s + 2)) == s + 2

    @SETTINGS
    @given(polys)
    def test_monic_compose_neg_derivative(self, a):
        assert L(a.monic()) == ref_monic(L(a))
        assert L(a.compose_neg()) == [c if i % 2 == 0 else -c for i, c in enumerate(L(a))]
        assert L(a.derivative()) == trim(c * i for i, c in enumerate(L(a)) if i)

    @SETTINGS
    @given(polys, gaussians)
    def test_exact_and_float_evaluation(self, a, x):
        assert a(x) == ref_horner(L(a), x)
        z = complex(x)
        acc = 0j
        for c in reversed(L(a)):
            acc = acc * z + complex(c)
        assert a(z) == acc  # bit for bit, also when served from the cache
        assert a(z) == acc


class TestPolyCanonicalForm:
    @SETTINGS
    @given(polys, polys)
    def test_equal_values_have_equal_fields_and_hashes(self, a, b):
        for p in (a, b, a * b, a + b, a - a):
            assert p == Poly(p.coeffs)
            assert hash(p) == hash(p.coeffs)
            assert p.degree == len(p.coeffs) - 1
            assert all(type(c) is GaussianRational for c in p.coeffs)
        assert (a * b == b * a) and hash(a * b) == hash(b * a)

    @SETTINGS
    @given(coeff_lists)
    def test_stored_fields_are_canonical(self, cs):
        for p in (Poly(cs), Poly(cs) * Poly(cs), Poly(cs).monic()):
            xs, ys, q = p._xs, p._ys, p._q
            assert q > 0 and len(xs) == len(ys)
            if xs:
                assert xs[-1] or ys[-1]
                assert gcd(q, *xs, *ys) == 1
            else:
                assert q == 1

    def test_immutable(self):
        p = Poly([1, 2, 3])
        for name in ("coeffs", "degree", "anything"):
            with pytest.raises(AttributeError):
                setattr(p, name, ())
        assert p.coeffs == Poly([1, 2, 3]).coeffs
        assert isinstance(p.coeffs, tuple)

    def test_zero_and_one(self):
        assert Poly() == Poly([0, 0]) and Poly().degree == -1
        assert Poly([1]).is_one() and not Poly([1, 0, 1]).is_one()
        assert Poly([GaussianRational(2, 4)]).coeffs == (GaussianRational(2, 4),)


# -- exact matrices ---------------------------------------------------------------


class TestMatMul:
    @SETTINGS
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
    def test_mat_mul(self, r, k, c, data):
        def mat(rows, cols):
            return data.draw(
                st.lists(st.lists(gaussians, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows)
            )

        a, b = mat(r, k), mat(k, c)
        ref = [[GR_ZERO] * c for _ in range(r)]
        for i in range(r):
            for j in range(c):
                for t in range(k):
                    ref[i][j] = ref[i][j] + a[i][t] * b[t][j]
        assert xl.mat_mul(a, b) == ref


def square_matrices(max_n=6):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.lists(gaussians, min_size=n, max_size=n), min_size=n, max_size=n)
    )


def _qq_i(c):
    from sympy.polys.domains import QQ, QQ_I

    return QQ_I(QQ(c.re.numerator, c.re.denominator), QQ(c.im.numerator, c.im.denominator))


def _from_qq_i(z):
    return GaussianRational(
        Fraction(int(z.x.numerator), int(z.x.denominator)),
        Fraction(int(z.y.numerator), int(z.y.denominator)),
    )


class TestExactLinalgAgainstSympy:
    @pytest.fixture(autouse=True)
    def _sympy(self):
        pytest.importorskip("sympy")

    @SETTINGS
    @given(square_matrices())
    def test_det(self, a):
        from sympy.polys.domains import QQ_I
        from sympy.polys.matrices import DomainMatrix

        n = len(a)
        ref = DomainMatrix([[_qq_i(x) for x in row] for row in a], (n, n), QQ_I).det()
        assert xl.det_exact(a) == _from_qq_i(ref)

    @SETTINGS
    @given(square_matrices().filter(lambda a: len(a) > 0))
    def test_charpoly(self, a):
        from sympy.polys.domains import QQ_I
        from sympy.polys.matrices import DomainMatrix

        n = len(a)
        ref = DomainMatrix([[_qq_i(x) for x in row] for row in a], (n, n), QQ_I).charpoly()
        p, _ = xl.charpoly(a)
        assert p == Poly([_from_qq_i(z) for z in reversed(ref)])

    @SETTINGS
    @given(square_matrices(), st.data())
    def test_pencil_det(self, p0, data):
        from sympy import Symbol
        from sympy.polys.domains import QQ_I
        from sympy.polys.matrices import DomainMatrix

        n = len(p0)
        # zero rows of e lower the degree bound pencil_det samples for
        row = st.one_of(st.just([GR_ZERO] * n), st.lists(gaussians, min_size=n, max_size=n))
        e = data.draw(st.lists(row, min_size=n, max_size=n))
        ring = QQ_I[Symbol("s")]
        s = ring.ring.gens[0]
        rows = [
            [ring.ring(_qq_i(x)) - s * ring.ring(_qq_i(y)) for x, y in zip(r0, r1)]
            for r0, r1 in zip(p0, e)
        ]
        ref = DomainMatrix(rows, (n, n), ring).det() if n else ring.ring(1)
        coeffs = [GR_ZERO] * (max((k for (k,) in dict(ref)), default=0) + 1)
        for (k,), z in dict(ref).items():
            coeffs[k] = _from_qq_i(z)
        assert xl.pencil_det(p0, e) == Poly(coeffs)
