"""Exact arithmetic over the Gaussian rationals Q(i), polynomials in s over
that field, and reduced rational functions.

A Gaussian rational is stored as three Python ints (x, y, q) meaning
(x + y*i)/q, kept canonical: q > 0 and gcd(x, y, q) = 1, so zero is
(0, 0, 1).  Equal values therefore have equal fields, and each operation
costs one integer gcd instead of a handful of Fraction objects.

Polynomials are coefficient lists, lowest degree first; the zero polynomial
is the empty list.  Rational functions keep gcd(num, den) = 1 with a monic
denominator.  These types back every canonical-form computation (Smith and
Smith-McMillan reductions are ill-posed in floating point), so all
operations here are exact; conversion to complex floats happens only on the
way out.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ExactnessError, ParameterError

__all__ = ["GaussianRational", "Poly", "RationalFn", "GR_ZERO", "GR_ONE", "GR_I"]


def _to_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        # floats are binary rationals, so this conversion is exact
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ExactnessError(f"cannot interpret {x!r} as an exact rational")


_new = object.__new__


def _gr(x, y, q):
    """The GaussianRational (x + y*i)/q from ints with q > 0."""
    g = gcd(x, y, q)
    if g != 1:
        x //= g
        y //= g
        q //= g
    z = _new(GaussianRational)
    z._x = x
    z._y = y
    z._q = q
    return z


class GaussianRational:
    """An exact complex number (x + y*i)/q over three Python ints.

    Invariant: q > 0 and gcd(x, y, q) = 1, so equal values have equal
    fields and ``==`` compares fields.  ``re`` and ``im`` are read-only
    Fraction views.  Values are immutable: the fields are private and no
    method writes them after construction.
    """

    __slots__ = ("_x", "_y", "_q")

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            return _gr(re, im, 1)
        re, im = _to_fraction(re), _to_fraction(im)
        return _gr(
            re.numerator * im.denominator,
            im.numerator * re.denominator,
            re.denominator * im.denominator,
        )

    @classmethod
    def of(cls, x):
        """Coerce ints, Fractions, exact strings, floats and complex."""
        if type(x) is cls:
            return x
        if isinstance(x, complex):
            return cls(Fraction(x.real), Fraction(x.imag))
        return cls(x)

    @property
    def re(self):
        return Fraction(self._x, self._q)

    @property
    def im(self):
        return Fraction(self._y, self._q)

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self._x and not self._y

    def is_real(self):
        return not self._y

    def is_imaginary(self):
        return not self._x

    # -- arithmetic ------------------------------------------------------

    def __add__(self, o):
        if type(o) is not GaussianRational:
            o = GaussianRational.of(o)
        q1, q2 = self._q, o._q
        if q1 == q2:
            return _gr(self._x + o._x, self._y + o._y, q1)
        return _gr(self._x * q2 + o._x * q1, self._y * q2 + o._y * q1, q1 * q2)

    __radd__ = __add__

    def __neg__(self):
        return _gr(-self._x, -self._y, self._q)

    def __sub__(self, o):
        if type(o) is not GaussianRational:
            o = GaussianRational.of(o)
        q1, q2 = self._q, o._q
        if q1 == q2:
            return _gr(self._x - o._x, self._y - o._y, q1)
        return _gr(self._x * q2 - o._x * q1, self._y * q2 - o._y * q1, q1 * q2)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __mul__(self, o):
        if type(o) is not GaussianRational:
            o = GaussianRational.of(o)
        x1, y1, x2, y2 = self._x, self._y, o._x, o._y
        return _gr(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, self._q * o._q)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is not GaussianRational:
            o = GaussianRational.of(o)
        x1, y1, x2, y2 = self._x, self._y, o._x, o._y
        n = x2 * x2 + y2 * y2
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (x1 + y1 i)/q1 / ((x2 + y2 i)/q2) = (x1 + y1 i)(x2 - y2 i) q2 / (q1 n)
        q2 = o._q
        return _gr((x1 * x2 + y1 * y2) * q2, (y1 * x2 - x1 * y2) * q2, self._q * n)

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ParameterError("only nonnegative integer powers")
        out = GR_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self):
        return _gr(self._x, -self._y, self._q)

    def abs2(self):
        """|z|^2 as an exact Fraction."""
        return Fraction(self._x * self._x + self._y * self._y, self._q * self._q)

    # -- conversions / protocol -------------------------------------------

    def __complex__(self):
        # int / int rounds correctly, as float(Fraction) does
        return complex(self._x / self._q, self._y / self._q)

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            # Equal values must hash alike.  Real ints, Fractions, floats
            # and complex numbers hash like the Fraction that ``__hash__``
            # uses; a str or a non-real complex does not, so neither is
            # coerced and neither compares equal.
            if isinstance(other, complex) and not other.imag:
                other = other.real
            if not isinstance(other, (int, Fraction, float)):
                return NotImplemented
            try:
                other = GaussianRational(other)
            except (ValueError, OverflowError):  # nan and infinities
                return NotImplemented
        return self._x == other._x and self._y == other._y and self._q == other._q

    def __hash__(self):
        # real values must hash like the numbers they equal (Fraction's
        # hash already agrees with int/float)
        if not self._y:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self._x or self._y)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        imtxt = f"{abs(im)}i" if abs(im) != 1 else "i"
        sign = "+" if im > 0 else "-"
        if not re:
            return f"{'-' if sign == '-' else ''}{imtxt}"
        return f"{re}{sign}{imtxt}"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def content(polys):
    """Positive rational c with every coefficient of ``polys`` divided by c
    having integral, coprime real and imaginary parts; None when all are
    zero.  Dividing a row or column by its content keeps coefficient sizes
    bounded during the Smith reduction.  Each (x + y*i)/q contributes
    gcd(x, y)/q, already reduced; zero is (0, 0, 1) and contributes nothing."""
    num_gcd = 0
    den_lcm = 1
    for p in polys:
        for c in p.coeffs:
            num_gcd = gcd(num_gcd, c._x, c._y)
            den_lcm = lcm(den_lcm, c._q)
    if num_gcd == 0:
        return None
    return Fraction(num_gcd, den_lcm)


class Poly:
    """Polynomial in s over Q(i); coefficients lowest degree first.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [GaussianRational.of(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @classmethod
    def constant(cls, c):
        return cls([GaussianRational.of(c)])

    @classmethod
    def s(cls):
        return cls([0, 1])

    @classmethod
    def from_roots(cls, roots):
        """Monic polynomial with the given exact roots."""
        p = POLY_ONE
        for r in roots:
            p = p * cls([-GaussianRational.of(r), 1])
        return p

    # -- structure --------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def is_one(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == GR_ONE

    def leading(self):
        if not self.coeffs:
            return GR_ZERO
        return self.coeffs[-1]

    def monic(self):
        if self.is_zero():
            return self
        lc = self.leading()
        if lc == GR_ONE:
            return self
        return Poly([c / lc for c in self.coeffs])

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = other if isinstance(other, Poly) else Poly.constant(other)
        n = max(len(self.coeffs), len(o.coeffs))
        a = list(self.coeffs) + [GR_ZERO] * (n - len(self.coeffs))
        b = list(o.coeffs) + [GR_ZERO] * (n - len(o.coeffs))
        return Poly([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        o = other if isinstance(other, Poly) else Poly.constant(other)
        return self + (-o)

    def __rsub__(self, other):
        return Poly.constant(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        if self.is_zero() or other.is_zero():
            return POLY_ZERO
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return POLY_ZERO, self
        rem = list(self.coeffs)
        dlc = other.leading()
        dd = other.degree
        q = [GR_ZERO] * (self.degree - dd + 1)
        for k in range(len(q) - 1, -1, -1):
            c = rem[dd + k] / dlc
            q[k] = c
            if not c.is_zero():
                for j, b in enumerate(other.coeffs):
                    rem[j + k] = rem[j + k] - c * b
        return Poly(q), Poly(rem[:dd])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other):
        """True when self divides other exactly (zero divides only zero)."""
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ParameterError("only nonnegative integer powers")
        out = POLY_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def gcd(self, other):
        """Monic greatest common divisor (Euclid); gcd(a, 0) = monic(a)."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def ext_gcd(self, other):
        """(g, u, v) with u*self + v*other = g, g the monic gcd."""
        r0, r1 = self, other
        u0, u1 = POLY_ONE, POLY_ZERO
        v0, v1 = POLY_ZERO, POLY_ONE
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            u0, u1 = u1, u0 - q * u1
            v0, v1 = v1, v0 - q * v1
        if r0.is_zero():
            return POLY_ZERO, POLY_ZERO, POLY_ZERO
        lc = r0.leading()
        inv = GR_ONE / lc
        return r0.monic(), Poly([c * inv for c in u0.coeffs]), Poly(
            [c * inv for c in v0.coeffs]
        )

    def lcm(self, other):
        if self.is_zero() or other.is_zero():
            return POLY_ZERO
        return ((self * other) // self.gcd(other)).monic()

    def compose_neg(self):
        """p(-s): flip signs of odd-degree coefficients."""
        return Poly(
            [c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)]
        )

    def derivative(self):
        return Poly([c * i for i, c in enumerate(self.coeffs) if i > 0])

    def __call__(self, x):
        """Evaluate by Horner; exact for GaussianRational x, float otherwise."""
        if isinstance(x, GaussianRational):
            acc = GR_ZERO
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        z = complex(x)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"

    def __str__(self):
        return render_poly(self)


POLY_ZERO = Poly()
POLY_ONE = Poly([1])


def render_poly(p: Poly, var="s"):
    """Canonical text form, highest degree first: 's^2+3s+2', '0' for zero."""
    if p.is_zero():
        return "0"
    terms = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c.is_zero():
            continue
        if i == 0:
            body = str(c) if c.is_real() or c.is_imaginary() else f"({c})"
        else:
            powtxt = var if i == 1 else f"{var}^{i}"
            if c == GR_ONE:
                body = powtxt
            elif c == -GR_ONE:
                body = f"-{powtxt}"
            elif c.is_real() or (c.is_imaginary() and c.im > 0):
                body = f"{c}{powtxt}"
            else:
                body = f"({c}){powtxt}"
        terms.append(body)
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


class RationalFn:
    """Reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=POLY_ONE):
        num = num if isinstance(num, Poly) else Poly.constant(num)
        den = den if isinstance(den, Poly) else Poly.constant(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            object.__setattr__(self, "num", POLY_ZERO)
            object.__setattr__(self, "den", POLY_ONE)
            return
        g = num.gcd(den)
        if not g.is_one():
            num, den = num // g, den // g
        lc = den.leading()
        if lc != GR_ONE:
            num = Poly([c / lc for c in num.coeffs])
            den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("RationalFn is immutable")

    @classmethod
    def of(cls, x):
        if isinstance(x, RationalFn):
            return x
        if isinstance(x, Poly):
            return cls(x)
        return cls(Poly.constant(x))

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def __add__(self, other):
        o = RationalFn.of(other)
        return RationalFn(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RationalFn.of(other))

    def __rsub__(self, other):
        return RationalFn.of(other) + (-self)

    def __mul__(self, other):
        o = RationalFn.of(other)
        return RationalFn(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RationalFn.of(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return RationalFn.of(other) / self

    def reciprocal(self):
        return RationalFn(self.den, self.num)

    def compose_neg(self):
        """f(-s)."""
        return RationalFn(self.num.compose_neg(), self.den.compose_neg())

    def __call__(self, x):
        n = self.num(x)
        d = self.den(x)
        if isinstance(n, GaussianRational):
            return n / d
        return n / d

    def __eq__(self, other):
        if not isinstance(other, (RationalFn, Poly, int, GaussianRational)):
            return NotImplemented
        o = RationalFn.of(other)
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFn({self.num!r}, {self.den!r})"

    def __str__(self):
        ntxt = render_poly(self.num)
        if self.den.is_one():
            return ntxt
        dtxt = render_poly(self.den)
        npart = ntxt if _is_atom(ntxt) else f"({ntxt})"
        dpart = dtxt if _is_atom(dtxt) else f"({dtxt})"
        return f"{npart}/{dpart}"


def _is_atom(txt):
    core = txt[1:] if txt.startswith("-") else txt
    return all(ch not in core for ch in "+-")


RF_ZERO = RationalFn(POLY_ZERO)
RF_ONE = RationalFn(POLY_ONE)
