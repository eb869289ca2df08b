"""Property tests for GaussianRational against a (Fraction, Fraction)
oracle, plus its canonical-form invariant and its hash and text forms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqsys import GaussianRational

fractions = st.fractions(max_denominator=10**4).filter(lambda f: abs(f.numerator) < 10**9)
pairs = st.tuples(fractions, fractions)
# arithmetic on big ints has no useful deadline
prop = settings(deadline=None)


def gr(pair):
    return GaussianRational(*pair)


def as_pair(z):
    return (z.re, z.im)


def canonical(z):
    x, y, q = z._x, z._y, z._q
    return q > 0 and math.gcd(x, y, q) == 1


# -- the oracle: Q(i) as pairs of Fractions ----------------------------------


def o_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def o_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def o_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def o_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


@prop
@given(pairs, pairs)
def test_field_operations_match_oracle(a, b):
    za, zb = gr(a), gr(b)
    results = [(za + zb, o_add(a, b)), (za - zb, o_sub(a, b)), (za * zb, o_mul(a, b))]
    if b != (0, 0):
        results.append((za / zb, o_div(a, b)))
    else:
        with pytest.raises(ZeroDivisionError):
            za / zb
    for got, want in results:
        assert as_pair(got) == want
        assert canonical(got)


@prop
@given(pairs, st.integers(-50, 50))
def test_mixed_operands_match_oracle(a, k):
    za, kk = gr(a), (Fraction(k), Fraction(0))
    assert as_pair(za + k) == as_pair(k + za) == o_add(a, kk)
    assert as_pair(za - k) == o_sub(a, kk) and as_pair(k - za) == o_sub(kk, a)
    assert as_pair(za * k) == as_pair(k * za) == o_mul(a, kk)
    f = Fraction(k, 7)
    assert as_pair(za * f) == o_mul(a, (f, Fraction(0)))
    if a != (0, 0):
        assert as_pair(k / za) == o_div(kk, a)


@prop
@given(pairs, st.integers(0, 6))
def test_conjugate_abs2_pow_match_oracle(a, n):
    z = gr(a)
    assert as_pair(z.conjugate()) == (a[0], -a[1])
    assert z * z.conjugate() == a[0] * a[0] + a[1] * a[1]
    want = (Fraction(1), Fraction(0))
    for _ in range(n):
        want = o_mul(want, a)
    assert as_pair(z**n) == want
    assert canonical(z**n)


@prop
@given(pairs, fractions.filter(bool))
def test_equal_values_have_equal_fields_and_hashes(a, k):
    z = gr(a)
    # the same value reached three ways
    other = (z * k) / k
    text = GaussianRational(str(a[0]), str(a[1]))
    for w in (other, text):
        assert w == z
        assert (w._x, w._y, w._q) == (z._x, z._y, z._q)
        assert hash(w) == hash(z)
    assert canonical(z)
    assert complex(z) == complex(float(a[0]), float(a[1]))


@prop
@given(st.integers(-(10**20), 10**20), fractions)
def test_real_values_hash_like_their_numbers(k, f):
    assert hash(GaussianRational(k)) == hash(k) == hash(Fraction(k))
    assert hash(GaussianRational(f)) == hash(f)
    assert GaussianRational(f) == f and GaussianRational(k) == k


@prop
@given(pairs)
def test_complex_hash_is_the_pair_hash(a):
    z = gr(a)
    if a[1]:
        assert hash(z) == hash(a)


def _same_value_operands(a):
    """The value of pair ``a`` written as each operand type it may meet."""
    re, im = a
    out = [re, float(re), complex(float(re), float(im)), str(re), str(gr(a))]
    if re.denominator == 1:
        out.append(int(re))
    return out


@prop
@given(
    pairs,
    st.one_of(
        st.integers(), fractions, st.floats(), st.complex_numbers(), st.text(max_size=6)
    ),
)
def test_equal_operands_hash_alike(a, other):
    z = gr(a)
    for b in [other, *_same_value_operands(a)]:
        assert (z == b) == (b == z)
        if z == b:
            assert hash(z) == hash(b)
    if not a[1]:
        assert z == a[0]  # so the implication above is not vacuous


def test_strings_and_non_real_complex_never_compare_equal():
    half = GaussianRational("1/2")
    assert half != "1/2" and "1/2" != half
    assert len({half, "1/2"}) == 2
    assert GaussianRational(1, 2) != 1 + 2j
    assert len({GaussianRational(1, 2), 1 + 2j}) == 2
    assert half == 0.5 == half and half == 0.5 + 0j
    assert len({half, 0.5, 0.5 + 0j, Fraction(1, 2)}) == 1


def test_zero_is_canonical():
    z = GaussianRational(Fraction(3, 4)) - Fraction(3, 4)
    assert (z._x, z._y, z._q) == (0, 0, 1)
    assert not z and z.is_zero() and z == 0


def test_constructor_accepts_exact_and_float_inputs():
    assert GaussianRational(0.25, "-1/2") == GaussianRational(Fraction(1, 4), Fraction(-1, 2))
    assert GaussianRational.of(0.5 - 2j) == GaussianRational(Fraction(1, 2), -2)
    assert GaussianRational.of(Fraction(6, 4)) == GaussianRational("3/2")


TEXT = [
    (GaussianRational(0), "0", "GaussianRational(Fraction(0, 1), Fraction(0, 1))"),
    (GaussianRational(3), "3", "GaussianRational(Fraction(3, 1), Fraction(0, 1))"),
    (GaussianRational(-7), "-7", "GaussianRational(Fraction(-7, 1), Fraction(0, 1))"),
    (GaussianRational(Fraction(1, 2)), "1/2", "GaussianRational(Fraction(1, 2), Fraction(0, 1))"),
    (GaussianRational(Fraction(-5, 3)), "-5/3", "GaussianRational(Fraction(-5, 3), Fraction(0, 1))"),
    (GaussianRational(0, 1), "i", "GaussianRational(Fraction(0, 1), Fraction(1, 1))"),
    (GaussianRational(0, -1), "-i", "GaussianRational(Fraction(0, 1), Fraction(-1, 1))"),
    (GaussianRational(0, Fraction(2, 3)), "2/3i", "GaussianRational(Fraction(0, 1), Fraction(2, 3))"),
    (GaussianRational(0, Fraction(-3, 2)), "-3/2i", "GaussianRational(Fraction(0, 1), Fraction(-3, 2))"),
    (GaussianRational(1, 1), "1+i", "GaussianRational(Fraction(1, 1), Fraction(1, 1))"),
    (GaussianRational(Fraction(1, 2), Fraction(1, 2)), "1/2+1/2i",
     "GaussianRational(Fraction(1, 2), Fraction(1, 2))"),
    (GaussianRational(-2, -1), "-2-i", "GaussianRational(Fraction(-2, 1), Fraction(-1, 1))"),
    (GaussianRational(Fraction(-3, 4), Fraction(5, 6)), "-3/4+5/6i",
     "GaussianRational(Fraction(-3, 4), Fraction(5, 6))"),
    (GaussianRational(Fraction(7, 4), -1), "7/4-i", "GaussianRational(Fraction(7, 4), Fraction(-1, 1))"),
    (GaussianRational(2, Fraction(-1, 3)), "2-1/3i", "GaussianRational(Fraction(2, 1), Fraction(-1, 3))"),
    (GaussianRational(0.25, -0.5), "1/4-1/2i", "GaussianRational(Fraction(1, 4), Fraction(-1, 2))"),
    (GaussianRational("3/4", "-1/2"), "3/4-1/2i", "GaussianRational(Fraction(3, 4), Fraction(-1, 2))"),
]


def test_str_and_repr_table():
    for z, text, rep in TEXT:
        assert str(z) == text
        assert repr(z) == rep
