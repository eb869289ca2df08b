"""Exact arithmetic over the Gaussian rationals Q(i), polynomials in s over
that field, and reduced rational functions.

A Gaussian rational is stored as three Python ints (x, y, q) meaning
(x + y*i)/q, kept canonical: q > 0 and gcd(x, y, q) = 1, so zero is
(0, 0, 1).  Equal values therefore have equal fields, and each operation
costs one integer gcd instead of a handful of Fraction objects.

A polynomial extends the same form: Gaussian-integer coefficient lists xs,
ys (lowest degree first) over one positive denominator q, trailing zero
coefficients trimmed and gcd(q, *xs, *ys) = 1, so the zero polynomial is
([], [], 1).  Products, sums and long division run on Python ints and are
normalized once per result.  Rational functions keep gcd(num, den) = 1 with
a monic denominator.  These types back every canonical-form computation
(Smith and Smith-McMillan reductions are ill-posed in floating point), so
all operations here are exact; conversion to complex floats happens only on
the way out.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ExactnessError, ParameterError, PoleEvaluationError

__all__ = ["GaussianRational", "Poly", "RationalFn", "GR_ZERO", "GR_ONE"]


def _to_fraction(x):
    # floats are binary rationals, so their conversion is exact too
    if isinstance(x, (Fraction, int, float, str)):
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
            if not isinstance(o, _NUMBERS):
                return NotImplemented
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
            if not isinstance(o, _NUMBERS):
                return NotImplemented
            o = GaussianRational.of(o)
        q1, q2 = self._q, o._q
        if q1 == q2:
            return _gr(self._x - o._x, self._y - o._y, q1)
        return _gr(self._x * q2 - o._x * q1, self._y * q2 - o._y * q1, q1 * q2)

    def __rsub__(self, other):
        if not isinstance(other, _NUMBERS):
            return NotImplemented
        return GaussianRational.of(other) - self

    def __mul__(self, o):
        if type(o) is not GaussianRational:
            if not isinstance(o, _NUMBERS):
                return NotImplemented
            o = GaussianRational.of(o)
        x1, y1, x2, y2 = self._x, self._y, o._x, o._y
        return _gr(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, self._q * o._q)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is not GaussianRational:
            if not isinstance(o, _NUMBERS):
                return NotImplemented
            o = GaussianRational.of(o)
        x1, y1, x2, y2 = self._x, self._y, o._x, o._y
        n = x2 * x2 + y2 * y2
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (x1 + y1 i)/q1 / ((x2 + y2 i)/q2) = (x1 + y1 i)(x2 - y2 i) q2 / (q1 n)
        q2 = o._q
        return _gr((x1 * x2 + y1 * y2) * q2, (y1 * x2 - x1 * y2) * q2, self._q * n)

    def __rtruediv__(self, other):
        if not isinstance(other, _NUMBERS):
            return NotImplemented
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

# What each exact type's operators read, its own type first: _NUMBERS,
# _POLY_OPERANDS, _RATIONAL_OPERANDS.  Any other operand gets NotImplemented,
# so its own reflected method (a RationalFn's, an ndarray's) runs.
_NUMBERS = (GaussianRational, int, Fraction, float, complex, str)


def content(polys):
    """Positive rational c with every coefficient of ``polys`` divided by c
    having integral, coprime real and imaginary parts; None when all are
    zero.  Dividing a row or column by its content keeps coefficient sizes
    bounded during the Smith reduction.  A polynomial (xs + ys*i)/q
    contributes gcd(*xs, *ys)/q, already reduced; zero contributes nothing."""
    num_gcd = 0
    den_lcm = 1
    for p in polys:
        if p._xs:
            num_gcd = gcd(num_gcd, *p._xs, *p._ys)
            den_lcm = lcm(den_lcm, p._q)
    if num_gcd == 0:
        return None
    return Fraction(num_gcd, den_lcm)


def _raw(xs, ys, q):
    """The Poly with fields (xs, ys, q), already canonical."""
    p = _new(Poly)
    p._xs = xs
    p._ys = ys
    p._q = q
    return p


def _poly(xs, ys, q):
    """The Poly (xs + ys*i)/q from int lists of equal length and q > 0:
    trailing zeros are trimmed and gcd(q, *xs, *ys) divided out."""
    n = len(xs)
    while n and not xs[n - 1] and not ys[n - 1]:
        n -= 1
    if not n:
        return POLY_ZERO
    if n < len(xs):
        xs, ys = xs[:n], ys[:n]
    if q != 1:
        g = gcd(q, *xs, *ys)
        if g != 1:
            xs = [x // g for x in xs]
            ys = [y // g for y in ys]
            q //= g
    return _raw(xs, ys, q)


def _convolve(xs, ys, ax, ay, bx, by):
    """Add the product of the Gaussian-integer coefficient lists
    (ax + ay*i) and (bx + by*i) into the int lists xs, ys."""
    b = list(enumerate(zip(bx, by)))
    for i, (x1, y1) in enumerate(zip(ax, ay)):
        if y1:
            for j, (x2, y2) in b:
                xs[i + j] += x1 * x2 - y1 * y2
                ys[i + j] += x1 * y2 + y1 * x2
        elif x1:
            for j, (x2, y2) in b:
                xs[i + j] += x1 * x2
                ys[i + j] += x1 * y2


def _from_parts(xs, ys, qs):
    """The Poly whose k-th coefficient is (xs[k] + ys[k]*i)/qs[k]."""
    q = lcm(*qs)
    return _poly(
        [x * (q // d) for x, d in zip(xs, qs)],
        [y * (q // d) for y, d in zip(ys, qs)],
        q,
    )


# A ring map from the Gaussian integers onto GF(_P), i -> _I_MOD: _P is a
# prime = 1 (mod 4) and _I_MOD^2 = -1 (mod _P).
_P = 1000000009
_I_MOD = 569522298


def _coprime_mod_p(a, b):
    """True when the nonzero Polys a and b are certainly coprime: their
    images in GF(_P)[s] keep their degrees and have a constant gcd, and
    that degree bounds the degree of the true gcd from above."""
    fa = [(x + _I_MOD * y) % _P for x, y in zip(a._xs, a._ys)]
    fb = [(x + _I_MOD * y) % _P for x, y in zip(b._xs, b._ys)]
    if not fa[-1] or not fb[-1]:
        return False
    while fb:
        inv = pow(fb[-1], -1, _P)
        nb = len(fb) - 1
        while len(fa) > nb:
            c = fa.pop() * inv % _P
            k = len(fa) - nb
            for j in range(nb):
                fa[k + j] = (fa[k + j] - c * fb[j]) % _P
            while fa and not fa[-1]:
                fa.pop()
        fa, fb = fb, fa
    return len(fa) == 1


def _primitive(p):
    """(xs, ys, k) with p = (k/q)*(xs + ys*i) for a nonzero Poly p of
    denominator q: k is the integer content of its numerators."""
    k = gcd(*p._xs, *p._ys)
    if k == 1:
        return p._xs, p._ys, 1
    return [x // k for x in p._xs], [y // k for y in p._ys], k


def _times(xs, ys, cx, cy):
    """The lists (xs + ys*i)*(cx + cy*i), new ones."""
    if cy:
        return [x * cx - y * cy for x, y in zip(xs, ys)], [x * cy + y * cx for x, y in zip(xs, ys)]
    return [x * cx for x in xs], [y * cx for y in ys]


def _exact_quo(x, y, cx, cy):
    """(x + y*i)/(cx + cy*i) for Gaussian integers, the second dividing
    the first."""
    if cy:
        m = cx * cx + cy * cy
        return (x * cx + y * cy) // m, (y * cx - x * cy) // m
    return x // cx, y // cx


def _exact_div(xs, ys, cx, cy):
    """The lists (xs + ys*i)/(cx + cy*i), for a Gaussian integer that
    divides every coefficient."""
    quos = [_exact_quo(x, y, cx, cy) for x, y in zip(xs, ys)]
    return [x for x, _ in quos], [y for _, y in quos]


def _trim(xs, ys):
    """Drop the trailing zero coefficients of the lists, in place."""
    n = len(xs)
    while n and not xs[n - 1] and not ys[n - 1]:
        n -= 1
    del xs[n:], ys[n:]


def _exact_quotient(xs, ys, bx, by):
    """The lists of (xs + ys*i)/(bx + by*i) for Gaussian-integer
    polynomials whose quotient is one too: each quotient digit is the
    working top coefficient divided exactly by lc(b).  xs and ys are
    consumed."""
    m = len(bx) - 1
    lx, ly = bx[-1], by[-1]
    steps = len(xs) - m
    qx, qy = [0] * steps, [0] * steps
    for j in range(steps - 1, -1, -1):
        tx, ty = xs[m + j], ys[m + j]
        if not tx and not ty:
            continue
        tx, ty = _exact_quo(tx, ty, lx, ly)
        qx[j], qy[j] = tx, ty
        for i, (x2, y2) in enumerate(zip(bx, by), j):
            xs[i] -= tx * x2 - ty * y2
            ys[i] -= tx * y2 + ty * x2
    _trim(qx, qy)
    return qx, qy


def _subresultant(ax, ay, bx, by):
    """(rx, ry, sx, sy): the last nonzero element R of the subresultant
    remainder sequence of the Gaussian-integer polynomials A = ax + ay*i
    and B = bx + by*i, deg A >= deg B >= 1, and the cofactor S of A in
    S*A + T*B = R.

    Each step pseudo-divides, lc(B)^(e+1) A = Q B + P with e = deg A -
    deg B, and takes A, B <- B, P/beta, where beta = c*h^e with c the
    leading coefficient of the previous B and h the scalar updated as
    h <- c^e / h^(e-1) (both 1 at the start; Cohen, "A Course in
    Computational Algebraic Number Theory", Alg. 3.3.1).  The elements
    are the subresultants of A and B up to sign, and their cofactors,
    S <- (lc(B)^(e+1) S_prev - Q S)/beta, are those of the subresultants:
    Gaussian-integer polynomials, so each division by beta, and by
    h^(e-1), is exact.  The sequence stops at a zero remainder (R = B)
    or at a constant element."""
    s0x, s0y, s1x, s1y = [1], [0], [], []
    cx, cy, hx, hy = 1, 0, 1, 0
    while True:
        m = len(bx) - 1
        e = len(ax) - 1 - m
        lx, ly = bx[-1], by[-1]
        pows = [(1, 0)]  # lc(B)^k for k = 0 .. e+1
        for _ in range(e + 1):
            px, py = pows[-1]
            pows.append((px * lx - py * ly, px * ly + py * lx))
        # pseudo-division: each step takes off the top coefficient t of
        # the remainder and leaves lc(B)*rest - t*B*s^j; the quotient digit
        # is t times the lc(B)^j that the later steps multiply it by
        rx, ry = list(ax), list(ay)
        qx, qy = [0] * (e + 1), [0] * (e + 1)
        low = list(zip(bx[:-1], by[:-1]))
        for j in range(e, -1, -1):
            tx, ty = rx.pop(), ry.pop()
            rx, ry = _times(rx, ry, lx, ly)
            if tx or ty:
                px, py = pows[j]
                qx[j], qy[j] = tx * px - ty * py, tx * py + ty * px
                for i, (x2, y2) in enumerate(low, j):
                    rx[i] -= tx * x2 - ty * y2
                    ry[i] -= tx * y2 + ty * x2
        _trim(rx, ry)
        if not rx:
            return bx, by, s1x, s1y
        sx, sy = _times(s0x, s0y, *pows[e + 1])
        if s1x:
            n = len(qx) + len(s1x) - 1
            sx += [0] * (n - len(sx))
            sy += [0] * (n - len(sy))
            _convolve(sx, sy, [-x for x in qx], [-y for y in qy], s1x, s1y)
            _trim(sx, sy)
        hpx, hpy = 1, 0
        for _ in range(e):
            hpx, hpy = hpx * hx - hpy * hy, hpx * hy + hpy * hx
        betax, betay = cx * hpx - cy * hpy, cx * hpy + cy * hpx
        rx, ry = _exact_div(rx, ry, betax, betay)
        sx, sy = _exact_div(sx, sy, betax, betay)
        ax, ay, bx, by = bx, by, rx, ry
        s0x, s0y, s1x, s1y = s1x, s1y, sx, sy
        cx, cy = lx, ly
        if e:
            # h <- c^e / h^(e-1); hp is h^e, so h^(e-1) = hp/h
            hx, hy = _exact_quo(*pows[e], *_exact_quo(hpx, hpy, hx, hy))
        if len(bx) == 1:
            return bx, by, s1x, s1y


def _over_scalar(xs, ys, num, den, cx, cy):
    """The Poly (xs + ys*i)*num / (den*(cx + cy*i)) for ints num, den > 0
    and a nonzero Gaussian integer cx + cy*i, normalized once."""
    if cy:
        m = cx * cx + cy * cy
        return _poly([(x * cx + y * cy) * num for x, y in zip(xs, ys)],
                     [(y * cx - x * cy) * num for x, y in zip(xs, ys)], den * m)
    if cx < 0:
        num, cx = -num, -cx
    return _poly([x * num for x in xs], [y * num for y in ys], den * cx)


class Poly:
    """Polynomial in s over Q(i); coefficients lowest degree first.

    Stored as Gaussian-integer coefficient lists over one denominator:
    int lists xs, ys and an int q > 0 mean the coefficients
    (xs[k] + ys[k]*i)/q.  The form is canonical: trailing zero
    coefficients are trimmed and gcd(q, *xs, *ys) = 1, so the zero
    polynomial is ([], [], 1) with degree -1, equal polynomials have equal
    fields, and each arithmetic result is normalized by one gcd instead of
    one per coefficient.  ``coeffs`` is the tuple of GaussianRational
    coefficients, built on first use and kept; the complex coefficients
    used by float evaluation are kept the same way.  Values are immutable:
    the fields are private and no method writes them after construction.
    """

    __slots__ = ("_xs", "_ys", "_q", "_cs", "_cz")

    def __init__(self, coeffs=()):
        cs = [GaussianRational.of(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        q = lcm(*[c._q for c in cs])
        # canonical already: a prime dividing q divides the denominator of
        # some reduced coefficient exactly as often, and not its numerator
        self._xs = [c._x * (q // c._q) for c in cs]
        self._ys = [c._y * (q // c._q) for c in cs]
        self._q = q
        self._cs = tuple(cs)

    @classmethod
    def constant(cls, c):
        c = GaussianRational.of(c)
        if not c:
            return POLY_ZERO
        return _raw([c._x], [c._y], c._q)

    @classmethod
    def s(cls):
        return cls([0, 1])

    @classmethod
    def monic_linear(cls, r):
        """s + r for a GaussianRational r = (x + y*i)/q, read off its
        fields: (q*s + x + y*i)/q is canonical as it stands, because
        gcd(x, y, q) = 1."""
        return _raw([r._x, r._q], [r._y, 0], r._q)

    # -- structure --------------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients as a tuple of GaussianRational."""
        try:
            return self._cs
        except AttributeError:
            q = self._q
            self._cs = tuple([_gr(x, y, q) for x, y in zip(self._xs, self._ys)])
            return self._cs

    @property
    def degree(self):
        return len(self._xs) - 1

    def is_zero(self):
        return not self._xs

    def is_constant(self):
        return len(self._xs) <= 1

    def is_one(self):
        return self._xs == [1] and self._ys == [0] and self._q == 1

    def size(self):
        """Bit length of the largest integer coefficient times the number
        of terms: a measure of the cost of arithmetic with self."""
        if not self._xs:
            return 0
        big = max(max(self._xs, key=abs).bit_length(), max(self._ys, key=abs).bit_length())
        return len(self._xs) * big

    def leading(self):
        if not self._xs:
            return GR_ZERO
        return _gr(self._xs[-1], self._ys[-1], self._q)

    def monic(self):
        xs, ys = self._xs, self._ys
        if not xs:
            return self
        lx, ly = xs[-1], ys[-1]
        if lx == self._q and not ly:
            return self
        # p / ((lx + ly*i)/q) = (xs + ys*i) / (lx + ly*i)
        return _over_scalar(xs, ys, 1, 1, lx, ly)

    # -- arithmetic -------------------------------------------------------

    def _combine(self, o, sign):
        """self + sign*o over the least common denominator."""
        ax, ay, bx, by = self._xs, self._ys, o._xs, o._ys
        q1, q2 = self._q, o._q
        m1, m2 = 1, sign
        if q1 != q2:
            g = gcd(q1, q2)
            m1, m2 = q2 // g, sign * (q1 // g)
            q1 *= m1
        n = max(len(ax), len(bx))
        xs, ys = [0] * n, [0] * n
        for k, (x, y) in enumerate(zip(ax, ay)):
            xs[k] = x * m1
            ys[k] = y * m1
        for k, (x, y) in enumerate(zip(bx, by)):
            xs[k] += x * m2
            ys[k] += y * m2
        return _poly(xs, ys, q1)

    def __add__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, _NUMBERS):
                return NotImplemented
            other = Poly.constant(other)
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _raw([-x for x in self._xs], [-y for y in self._ys], self._q)

    def __sub__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, _NUMBERS):
                return NotImplemented
            other = Poly.constant(other)
        return self._combine(other, -1)

    def __rsub__(self, other):
        if not isinstance(other, _NUMBERS):
            return NotImplemented
        return Poly.constant(other)._combine(self, -1)

    def _scaled(self, c):
        """self * c for a GaussianRational c."""
        cx, cy = c._x, c._y
        if not cx and not cy:
            return POLY_ZERO
        return _poly(*_times(self._xs, self._ys, cx, cy), self._q * c._q)

    def __mul__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, _NUMBERS):
                return NotImplemented
            return self._scaled(GaussianRational.of(other))
        ax, bx = self._xs, other._xs
        if not ax or not bx:
            return POLY_ZERO
        n = len(ax) + len(bx) - 1
        xs, ys = [0] * n, [0] * n
        _convolve(xs, ys, ax, self._ys, bx, other._ys)
        return _poly(xs, ys, self._q * other._q)

    __rmul__ = __mul__

    @staticmethod
    def lincomb(a, x, b, y):
        """a*x + b*y for Polys a, x, b, y.  Both products are convolved
        into one integer vector over their common denominator, so the
        result is normalized once, not once per product and once more for
        the sum; the row operations of the Smith reduction are made of
        these, and a zero term, which they meet often, is skipped."""
        if not (b._xs and y._xs):
            return x if a.is_one() else a * x
        if not (a._xs and x._xs):
            return b * y
        q1, q2 = a._q * x._q, b._q * y._q
        g = gcd(q1, q2)
        m1, m2 = q2 // g, q1 // g
        xs = [0] * (max(len(a._xs) + len(x._xs), len(b._xs) + len(y._xs)) - 1)
        ys = list(xs)
        for u, v, m in ((a, x, m1), (b, y, m2)):
            if len(u._xs) > len(v._xs):
                u, v = v, u
            ux, uy = u._xs, u._ys
            if m != 1:  # scale the shorter factor up to the common denominator
                ux, uy = [c * m for c in ux], [c * m for c in uy]
            _convolve(xs, ys, ux, uy, v._xs, v._ys)
        return _poly(xs, ys, q1 * m1)

    def _divide(self, b, want_quotient=True):
        """Long division by ``b``, a nonzero Poly or scalar: (quotient,
        remainder), the quotient None when not wanted.

        A nonzero constant divisor is a unit: the quotient is one scaling
        and the remainder zero, with no long division.  Otherwise b is
        written (k/qb)*B with B its primitive Gaussian-integer part, and the
        division runs on B: the remainder is the same and the quotient is
        scaled by qb/k, while the per-step multiplier below is free of k^2.
        With l the leading coefficient of B, each step multiplies the
        remainder by the positive integer m = l*cl, where cl = conj(l), or
        sign(l) when l is real, and subtracts t*cl*B*s^j, t the remainder's
        top coefficient; the top cancels.  The working remainder stays an
        integer vector over one denominator whose content is divided out
        after every step, so its coefficients do not grow; ``_poly``
        canonicalizes the final remainder and ``_from_parts`` the
        quotient."""
        if not isinstance(b, Poly):
            b = Poly.constant(b)
        bx, by, qb = b._xs, b._ys, b._q
        dd = len(bx) - 1
        if dd < 0:
            raise ZeroDivisionError("polynomial division by zero")
        if dd == 0:
            if not want_quotient:
                return None, POLY_ZERO
            lx, ly = bx[0], by[0]
            if lx == qb and not ly:
                return self, POLY_ZERO
            # self/b = (xs + ys*i)*qb / (q*(lx + ly*i))
            return _over_scalar(self._xs, self._ys, qb, self._q, lx, ly), POLY_ZERO
        steps = len(self._xs) - dd
        if steps <= 0:
            return POLY_ZERO, self
        # divide by the primitive part B of b = (k/qb)*B: the remainder is
        # the same, the quotient is scaled by qb/k, and m is smaller
        bx, by, k = _primitive(b)
        lx, ly = bx[-1], by[-1]
        if ly:
            cx, cy, m = lx, -ly, lx * lx + ly * ly
        else:
            cx, cy, m = (1 if lx > 0 else -1), 0, abs(lx)
        rx, ry, rq = list(self._xs), list(self._ys), self._q
        qx, qy, qd = [0] * steps, [0] * steps, [1] * steps
        for j in range(steps - 1, -1, -1):
            top = dd + j
            tx, ty = rx[top], ry[top]
            del rx[top], ry[top]
            if not tx and not ty:
                continue
            tx, ty = tx * cx - ty * cy, tx * cy + ty * cx
            # quotient coefficient t/(k*l/qb) = t*cl*qb/(rq*m*k)
            qx[j], qy[j], qd[j] = tx * qb, ty * qb, rq * m * k
            if m != 1:
                rx = [x * m for x in rx]
                ry = [y * m for y in ry]
                rq *= m
            for i in range(dd):
                x2, y2 = bx[i], by[i]
                rx[j + i] -= tx * x2 - ty * y2
                ry[j + i] -= tx * y2 + ty * x2
            if m != 1:
                g = gcd(rq, *rx, *ry)
                if g != 1:
                    rx = [x // g for x in rx]
                    ry = [y // g for y in ry]
                    rq //= g
        quot = _from_parts(qx, qy, qd) if want_quotient else None
        return quot, _poly(rx, ry, rq)

    def __divmod__(self, other):
        if not isinstance(other, _POLY_OPERANDS):
            return NotImplemented
        return self._divide(other)

    def __floordiv__(self, other):
        if not isinstance(other, _POLY_OPERANDS):
            return NotImplemented
        return self._divide(other)[0]

    def __mod__(self, other):
        if not isinstance(other, _POLY_OPERANDS):
            return NotImplemented
        return self._divide(other, want_quotient=False)[1]

    def divides(self, other):
        """True when self divides other exactly (zero divides only zero,
        a nonzero constant everything)."""
        if self.is_zero():
            return other.is_zero()
        return len(self._xs) == 1 or (other % self).is_zero()

    def gcd(self, other):
        """Monic greatest common divisor (Euclid); gcd(a, 0) = monic(a).
        Coprime pairs, the common case, are mostly settled by the cheap
        test modulo a prime, ``_coprime_mod_p``."""
        if self._xs and other._xs and _coprime_mod_p(self, other):
            return POLY_ONE
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def ext_gcd(self, other):
        """(g, u, v) with u*self + v*other = g, g the monic gcd.

        The cofactors are the unique ones of least degree.  For nonzero
        operands deg u < deg other - deg g, so u = 0 when other divides
        self, and deg v < deg self - deg g unless self is a constant
        multiple of other (then v = 1/lc(other)).  A zero operand gets
        cofactor 0 and the other one 1/lc; ext_gcd(0, 0) is (0, 0, 0).

        Let a be the operand of larger degree (self on a tie) and b the
        other.  A constant b settles it at once: g = 1, or monic(a) when
        b = 0.  Otherwise the subresultant remainder sequence (Collins
        1967; Brown and Traub 1971) runs on the primitive Gaussian-integer
        parts A and B (see ``_subresultant``) and tracks one cofactor, S
        with S*A + T*B = R for its last nonzero element R: every division
        in it is exact and by a known scalar, so no content gcd runs on the
        large cofactors, and the coefficients grow only linearly along the
        sequence.  T = (R - S*A)/B is one exact division over Z[i] (its
        quotient digits divide by lc(B) exactly), and both cofactors are
        scaled back to a and b over lc(R) with one normalization each."""
        swap = len(self._xs) < len(other._xs)
        a, b = (other, self) if swap else (self, other)
        if not a._xs:
            return POLY_ZERO, POLY_ZERO, POLY_ZERO
        if len(b._xs) > 1:
            ax, ay, ka = _primitive(a)
            bx, by, kb = _primitive(b)
            rx, ry, sx, sy = _subresultant(ax, ay, bx, by)
            lx, ly = rx[-1], ry[-1]
            g = _raw(rx, ry, 1).monic()
            wa = _over_scalar(sx, sy, a._q, ka, lx, ly)
            # T*B = R - S*A, so T is the exact quotient
            n = max(len(rx), len(sx) + len(ax) - 1)
            tx, ty = rx + [0] * (n - len(rx)), ry + [0] * (n - len(ry))
            _convolve(tx, ty, [-x for x in sx], [-y for y in sy], ax, ay)
            wb = _over_scalar(*_exact_quotient(tx, ty, bx, by), b._q, kb, lx, ly)
        elif b._xs:
            g, wa, wb = POLY_ONE, POLY_ZERO, _over_scalar([1], [0], b._q, 1, b._xs[0], b._ys[0])
        else:
            g, wa, wb = a.monic(), _over_scalar([1], [0], a._q, 1, a._xs[-1], a._ys[-1]), POLY_ZERO
        return (g, wb, wa) if swap else (g, wa, wb)

    def lcm(self, other):
        if self.is_zero() or other.is_zero():
            return POLY_ZERO
        return ((self // self.gcd(other)) * other).monic()

    def conjugate(self):
        """The polynomial with conjugated coefficients."""
        return _raw(self._xs, [-y for y in self._ys], self._q)

    def compose_neg(self):
        """p(-s): flip signs of odd-degree coefficients."""
        return _raw(
            [-x if i % 2 else x for i, x in enumerate(self._xs)],
            [-y if i % 2 else y for i, y in enumerate(self._ys)],
            self._q,
        )

    def __call__(self, x):
        """Evaluate by Horner; exact for GaussianRational x, float otherwise."""
        xs, ys = self._xs, self._ys
        if isinstance(x, GaussianRational):
            if not xs:
                return GR_ZERO
            # with x = (u + v*i)/w: q*w^n*p(x) = sum (xs+ys*i)[k] (u+v*i)^k w^(n-k)
            u, v, w = x._x, x._y, x._q
            ax, ay = xs[-1], ys[-1]
            wk = 1
            for k in range(len(xs) - 2, -1, -1):
                wk *= w
                ax, ay = ax * u - ay * v + xs[k] * wk, ax * v + ay * u + ys[k] * wk
            return _gr(ax, ay, self._q * wk)
        z = complex(x)
        acc = 0j
        for c in self.horner_coeffs():
            acc = acc * z + c
        return acc

    def horner_coeffs(self):
        """The coefficients as complex floats, highest degree first, in the
        order Horner's rule reads them; built on first use and kept."""
        try:
            return self._cz
        except AttributeError:
            # x/q rounds correctly, so these equal complex(c) for each c
            q = self._q
            cz = [complex(a / q, b / q) for a, b in zip(self._xs, self._ys)]
            self._cz = cz[::-1]
            return self._cz

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self._q == other._q and self._xs == other._xs and self._ys == other._ys
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"

    def __str__(self):
        return render_poly(self)


POLY_ZERO = _raw([], [], 1)
POLY_ONE = _raw([1], [0], 1)
_POLY_OPERANDS = (Poly, *_NUMBERS)


def render_poly(p: Poly):
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
            powtxt = "s" if i == 1 else f"s^{i}"
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
        monic = den.monic()
        if monic is not den:
            num = num._scaled(GR_ONE / den.leading())
            den = monic
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("RationalFn is immutable")

    @classmethod
    def of(cls, x):
        return x if isinstance(x, RationalFn) else cls(x)

    @classmethod
    def _reduced(cls, num, den):
        """num/den for a pair already coprime with a monic den: no gcd."""
        fn = object.__new__(cls)
        object.__setattr__(fn, "num", num)
        object.__setattr__(fn, "den", den)
        return fn

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def __add__(self, other):
        if not isinstance(other, _RATIONAL_OPERANDS):
            return NotImplemented
        o = RationalFn.of(other)
        return RationalFn(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn._reduced(-self.num, self.den)

    def __sub__(self, other):
        if not isinstance(other, _RATIONAL_OPERANDS):
            return NotImplemented
        o = RationalFn.of(other)
        return RationalFn(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        if not isinstance(other, _RATIONAL_OPERANDS):
            return NotImplemented
        return RationalFn.of(other) - self

    def __mul__(self, other):
        if not isinstance(other, _RATIONAL_OPERANDS):
            return NotImplemented
        o = RationalFn.of(other)
        return RationalFn(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, _RATIONAL_OPERANDS):
            return NotImplemented
        o = RationalFn.of(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        if not isinstance(other, _RATIONAL_OPERANDS):
            return NotImplemented
        return RationalFn.of(other) / self

    def compose_neg(self):
        """f(-s)."""
        return RationalFn(self.num.compose_neg(), self.den.compose_neg())

    def __call__(self, x):
        """Value at x, exact for GaussianRational x and complex otherwise;
        raises PoleEvaluationError where the denominator is exactly zero."""
        d = self.den(x)
        if not d:
            raise PoleEvaluationError(x, x)
        return self.num(x) / d

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


_RATIONAL_OPERANDS = (RationalFn, *_POLY_OPERANDS)


def _is_atom(txt):
    core = txt[1:] if txt.startswith("-") else txt
    return all(ch not in core for ch in "+-")
