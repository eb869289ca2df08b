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
    def from_roots(cls, roots):
        """Monic polynomial with the given exact roots."""
        p = POLY_ONE
        for r in roots:
            p = p * cls([-GaussianRational.of(r), 1])
        return p

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
        # p / ((lx + ly*i)/q) = (xs + ys*i)(lx - ly*i) / (lx^2 + ly^2)
        return _poly(
            [x * lx + y * ly for x, y in zip(xs, ys)],
            [y * lx - x * ly for x, y in zip(xs, ys)],
            lx * lx + ly * ly,
        )

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
        o = other if isinstance(other, Poly) else Poly.constant(other)
        return self._combine(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _raw([-x for x in self._xs], [-y for y in self._ys], self._q)

    def __sub__(self, other):
        o = other if isinstance(other, Poly) else Poly.constant(other)
        return self._combine(o, -1)

    def __rsub__(self, other):
        return Poly.constant(other)._combine(self, -1)

    def _scaled(self, c):
        """self * c for a GaussianRational c."""
        cx, cy = c._x, c._y
        if not cx and not cy:
            return POLY_ZERO
        xs, ys = self._xs, self._ys
        if cy:
            return _poly(
                [x * cx - y * cy for x, y in zip(xs, ys)],
                [x * cy + y * cx for x, y in zip(xs, ys)],
                self._q * c._q,
            )
        return _poly([x * cx for x in xs], [y * cx for y in ys], self._q * c._q)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self._scaled(GaussianRational.of(other))
        ax, ay, bx, by = self._xs, self._ys, other._xs, other._ys
        if not ax or not bx:
            return POLY_ZERO
        n = len(ax) + len(bx) - 1
        xs, ys = [0] * n, [0] * n
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
        return _poly(xs, ys, self._q * other._q)

    __rmul__ = __mul__

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
            # 1/b = qb*(lx - ly*i)/(lx^2 + ly^2)
            return self._scaled(_gr(lx * qb, -ly * qb, lx * lx + ly * ly)), POLY_ZERO
        steps = len(self._xs) - dd
        if steps <= 0:
            return POLY_ZERO, self
        # divide by the primitive part B of b = (k/qb)*B: the remainder is
        # the same, the quotient is scaled by qb/k, and m is smaller
        k = gcd(*bx, *by)
        if k != 1:
            bx = [x // k for x in bx]
            by = [y // k for y in by]
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
        return self._divide(other)

    def __floordiv__(self, other):
        return self._divide(other)[0]

    def __mod__(self, other):
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

        Euclid's sequence carries one cofactor only, that of the operand of
        larger degree (its own degree is the smaller one); the other follows
        from u*self + v*other = g by one exact division.  Each remainder is
        replaced by its primitive Gaussian-integer part, and its cofactor
        scaled by the same rational, so the divisions run on integer vectors
        without the large common factors that the rational remainders of
        Euclid carry; the pair is normalized once, by the last remainder's
        leading coefficient.  The cofactors are the unique ones of least
        degree, so the scaling changes no result."""
        track_u = self.degree > other.degree
        r0, r1 = self, other
        w0, w1 = (POLY_ONE, POLY_ZERO) if track_u else (POLY_ZERO, POLY_ONE)
        while r1._xs:
            q, r = r0._divide(r1)
            r0, r1 = r1, r
            w0, w1 = w1, w0 - q * w1
            if r._xs:
                # r = (c/q) * primitive part: scale r and its cofactor by q/c
                c = gcd(*r._xs, *r._ys)
                r1 = _raw([x // c for x in r._xs], [y // c for y in r._ys], 1)
                w1 = w1._scaled(_gr(r._q, 0, c))
        if not r0._xs:
            return POLY_ZERO, POLY_ZERO, POLY_ZERO
        g = r0.monic()
        w = w0._scaled(GR_ONE / r0.leading())
        if track_u:
            return g, w, (g - w * self) // other if other._xs else POLY_ZERO
        return g, (g - w * other) // self if self._xs else POLY_ZERO, w

    def lcm(self, other):
        if self.is_zero() or other.is_zero():
            return POLY_ZERO
        return ((self // self.gcd(other)) * other).monic()

    def compose_neg(self):
        """p(-s): flip signs of odd-degree coefficients."""
        return _raw(
            [-x if i % 2 else x for i, x in enumerate(self._xs)],
            [-y if i % 2 else y for i, y in enumerate(self._ys)],
            self._q,
        )

    def derivative(self):
        return _poly(
            [x * i for i, x in enumerate(self._xs)][1:],
            [y * i for i, y in enumerate(self._ys)][1:],
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


def _is_atom(txt):
    core = txt[1:] if txt.startswith("-") else txt
    return all(ch not in core for ch in "+-")
