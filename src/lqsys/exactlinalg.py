"""Dense exact matrices over Q(i) as 2-D numpy object arrays of
GaussianRational.

This is the one form of an exact matrix, from ingestion to storage
(``QSystemParams.exact``, ``StateSpace.exact``) and the builders'
formulas, and every exact matrix returned here is one; an array keeps a
0 x k shape, and products of exact matrices are numpy's ``@``.  What
remains: ingestion (``exact_matrix``, and ``to_numpy`` for the rounded
float copy, which refuses an entry beyond the float range); and the
integer kernels ``charpoly``, ``pencil_det``, ``transfer_numerators``
(the exact transfer matrix over charpoly(A)) and ``schur_complement``
(A - B D^-1 C, for the exact det identity).  They read each matrix once
into the scaled triple of ``to_scaled``, Gaussian-integer lists over one
common denominator, run on Python ints and normalize each result once
(Bareiss elimination; Faddeev-LeVerrier over one running denominator;
Newton interpolation through integer falling factorials; sizes are a
handful of modes).  The triples stay in this module, products of them
are ``scaled_mul``'s, and only ``charpoly``'s adjugate terms are returned
scaled (``from_scaled`` builds one as an exact matrix).  ``pencil_det``
has no library caller: the tests use it as an independent reference,
and it, ``mat_block`` and ``mat_zeros`` serve the benchmark's traced
probe.  An empty matrix needs no special case: its characteristic
polynomial, and the determinant of an empty pencil, come out as 1.
"""

from __future__ import annotations

from itertools import chain
from math import factorial, gcd, lcm

import numpy as np

from .errors import DimensionError, NumericalError
from .rational import GR_ZERO, GaussianRational, _from_parts, _gr, _poly

__all__ = [
    "exact_matrix",
    "to_numpy",
    "to_scaled",
    "from_scaled",
    "scaled_mul",
    "mat_zeros",
    "mat_block",
    "charpoly",
    "pencil_det",
    "transfer_numerators",
    "schur_complement",
]


def _array(rows):
    """Equal rows as a 2-D object array (``fromiter`` is faster than np.array)."""
    r, c = len(rows), (len(rows[0]) if rows else 0)
    return np.fromiter(chain.from_iterable(rows), dtype=object, count=r * c).reshape(r, c)


def exact_matrix(rows):
    """Coerce nested iterables to a 2-D object array of GaussianRational; a
    2-D array keeps its shape, one with no rows included."""
    if isinstance(rows, np.ndarray):
        return np.frompyfunc(GaussianRational.of, 1, 1)(rows)  # an object array
    out = [[GaussianRational.of(x) for x in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionError("ragged rows in exact matrix")
    return _array(out)


def to_numpy(m):
    """The complex copy of a matrix, rounded for an exact one; an entry
    beyond the float range raises NumericalError."""
    try:
        return m.astype(complex)
    except OverflowError as e:
        raise NumericalError(f"exact entry too large for a float copy: {e}") from e


def mat_zeros(r, c):
    return np.full((r, c), GR_ZERO, dtype=object)


def to_scaled(a):
    """(xs, ys, q): int lists of rows with xs + ys*i = q*a, q the least
    common denominator of the entries of a.  ``from_scaled`` inverts it."""
    a = a.tolist()
    q = lcm(*[x._q for row in a for x in row])
    xs = [[x._x * (q // x._q) for x in row] for row in a]
    ys = [[x._y * (q // x._q) for x in row] for row in a]
    return xs, ys, q


def from_scaled(xs, ys, q):
    """The exact matrix (xs + ys*i)/q, one gcd per entry."""
    return _array([[_gr(x, y, q) for x, y in zip(rx, ry)] for rx, ry in zip(xs, ys)])


def scaled_mul(a, b):
    """Product of two scaled matrices (xs, ys, q), as one: an integer
    triple loop over the Gaussian-integer parts, the denominators
    multiplied, nothing normalized.  Lists of rows cannot carry the
    column count of a matrix without rows, so each caller keeps its
    shapes: ``charpoly`` multiplies n x n terms for n >= 2 only,
    ``transfer_numerators`` reads its products at the indices of D, and
    ``schur_complement`` returns A for an empty D; for an A without rows
    the product has none, which ``from_scaled`` reads as 0 x 0, the
    shape of A."""
    ax, ay, qa = a
    bx, by, qb = b
    cols = [list(zip(cx, cy)) for cx, cy in zip(zip(*bx), zip(*by))]
    outx, outy = [], []
    for rx, ry in zip(ax, ay):
        terms = [(k, x1, y1) for k, (x1, y1) in enumerate(zip(rx, ry)) if x1 or y1]
        rowx, rowy = [], []
        for col in cols:
            sx = sy = 0
            for k, x1, y1 in terms:
                x2, y2 = col[k]
                sx += x1 * x2 - y1 * y2
                sy += x1 * y2 + y1 * x2
            rowx.append(sx)
            rowy.append(sy)
        outx.append(rowx)
        outy.append(rowy)
    return outx, outy, qa * qb


def mat_block(blocks):
    """Assemble from a 2-D grid of exact matrices."""
    return np.block(blocks)


def _bareiss(mx, my):
    """Determinant (x, y) of the Gaussian-integer matrix mx + my*i by Bareiss
    elimination, overwriting both.  Each step divides exactly by the
    previous pivot (Sylvester's identity), so every intermediate entry is a
    minor of the input; rows are swapped when a pivot vanishes."""
    r = len(mx)
    sign = 1
    px, py = 1, 0  # previous pivot
    for k in range(r):
        piv = next((i for i in range(k, r) if mx[i][k] or my[i][k]), None)
        if piv is None:
            return 0, 0
        if piv != k:
            mx[k], mx[piv] = mx[piv], mx[k]
            my[k], my[piv] = my[piv], my[k]
            sign = -sign
        kx, ky, krx, kry = mx[k][k], my[k][k], mx[k], my[k]
        norm = px * px + py * py
        for i in range(k + 1, r):
            rx, ry = mx[i], my[i]
            ix, iy = rx[k], ry[k]
            for j in range(k + 1, r):
                # (m[i][j]*m[k][k] - m[i][k]*m[k][j]) / previous pivot
                xj, yj, x2, y2 = rx[j], ry[j], krx[j], kry[j]
                tx = xj * kx - yj * ky - ix * x2 + iy * y2
                ty = xj * ky + yj * kx - ix * y2 - iy * x2
                if py:
                    rx[j] = (tx * px + ty * py) // norm
                    ry[j] = (ty * px - tx * py) // norm
                else:
                    rx[j] = tx // px
                    ry[j] = ty // px
        px, py = kx, ky
    return sign * px, sign * py


def charpoly(a):
    """Characteristic polynomial det(sI - A) via Faddeev-LeVerrier on
    Gaussian integers, with the adjugate expansion coefficients M_1..M_n,
    adj(sI - A) = sum_k M_{k+1} s^(n-1-k), used by the exact resolvent.

    A is scaled once to the Gaussian-integer matrix qA.  Each M_k is kept
    as an integer matrix N over one running denominator d; with
    t = tr(qA N), the coefficient is c_(n-k) = -t/(kqd) and
    M_(k+1) = (k qA N - t I)/(kqd), whose content is stripped once.  The
    terms are returned in that scaled form, (xs, ys, d) with
    M_k = (xs + ys*i)/d, for ``scaled_mul``; ``from_scaled`` builds one as
    an exact matrix.  The polynomial is normalized once.
    """
    n, c = a.shape
    if n != c:
        raise DimensionError("characteristic polynomial needs a square matrix")
    qa = to_scaled(a)
    q = qa[2]
    xs, ys, qs = [0] * (n + 1), [0] * (n + 1), [1] * (n + 1)
    xs[n] = 1
    m = ([[int(i == j) for j in range(n)] for i in range(n)], [[0] * n for _ in range(n)], 1)
    terms = []
    for k in range(1, n + 1):
        terms.append(m)
        px, py, _ = scaled_mul(qa, m) if k > 1 else qa
        tx = sum(px[i][i] for i in range(n))
        ty = sum(py[i][i] for i in range(n))
        den = k * q * m[2]
        xs[n - k], ys[n - k], qs[n - k] = -tx, -ty, den
        if k < n:
            mx = [[k * x for x in row] for row in px]
            my = [[k * y for y in row] for row in py]
            for i in range(n):
                mx[i][i] -= tx
                my[i][i] -= ty
            g = gcd(den, *[x for row in mx for x in row], *[y for row in my for y in row])
            if g != 1:
                mx = [[x // g for x in row] for row in mx]
                my = [[y // g for y in row] for row in my]
            m = (mx, my, den // g)
    return _from_parts(xs, ys, qs), terms


def pencil_det(p0, e):
    """det(p0 - s*e) as an exact Poly, by evaluation at the integer nodes
    0..deg and Newton interpolation.  The degree cannot exceed deg, the
    number of nonzero rows of e.  Each sample is a Bareiss determinant of
    the Gaussian-integer matrix p0*qe - k*e*qp, that is den = (qp*qe)^n
    times det(p0 - k*e), with qp and qe the common denominators.  With
    D^j the j-th forward difference of the samples at 0,

        deg! * den * det(p0 - s*e) = sum_j (deg!/j!) D^j s(s-1)...(s-j+1),

    whose falling factorials have integer coefficients, so the polynomial
    is an integer vector over deg! * den, normalized once."""
    n, c = p0.shape
    if e.shape != (n, c) or n != c:
        raise DimensionError("pencil blocks must be square and same shape")
    deg = sum(1 for row in e if any(not x.is_zero() for x in row))
    px, py, qp = to_scaled(p0)
    ex, ey, qe = to_scaled(e)
    vx, vy = [], []
    for k in range(deg + 1):
        kq = k * qp
        mx = [[x * qe - kq * y for x, y in zip(r0, r1)] for r0, r1 in zip(px, ex)]
        my = [[x * qe - kq * y for x, y in zip(r0, r1)] for r0, r1 in zip(py, ey)]
        x, y = _bareiss(mx, my)
        vx.append(x)
        vy.append(y)
    xs, ys = [0] * (deg + 1), [0] * (deg + 1)
    fall = [1]  # s(s-1)...(s-j+1), lowest degree first
    w = fact = factorial(deg)  # w = deg!/j!
    for j in range(deg + 1):
        dx, dy = vx[0] * w, vy[0] * w
        if dx or dy:
            for i, f in enumerate(fall):
                xs[i] += dx * f
                ys[i] += dy * f
        fall = [lo - j * hi for lo, hi in zip([0] + fall, fall + [0])]
        w //= j + 1
        vx = [v1 - v0 for v0, v1 in zip(vx, vx[1:])]
        vy = [v1 - v0 for v0, v1 in zip(vy, vy[1:])]
    return _poly(xs, ys, fact * (qp * qe) ** n)


def transfer_numerators(a, b, c, d):
    """(p, N) with D + C (sI - A)^-1 B = N/p: p = charpoly(A) and N the
    object array of Poly numerators D p + C adj(sI - A) B, shaped as D.

    With adj(sI - A) = sum_k M_k s^(n-k) from ``charpoly``, the products
    C M_k B are formed on the scaled terms, and each numerator is summed
    coefficient by coefficient as integer pairs over their denominators
    and normalized once."""
    p, m_terms = charpoly(a)
    sb, sc = to_scaled(b), to_scaled(c)
    # M_k multiplies s^(n-k), so cmb[deg] is the coefficient of s^deg
    cmb = [scaled_mul(scaled_mul(sc, mk), sb) for mk in reversed(m_terms)]
    pxs, pys, pq = p._xs, p._ys, p._q
    out = np.empty(d.shape, dtype=object)
    for (i, j), dij in np.ndenumerate(d):
        xs = [t[0][i][j] for t in cmb] + [0]
        ys = [t[1][i][j] for t in cmb] + [0]
        qs = [t[2] for t in cmb] + [1]
        dx, dy, dq = dij._x, dij._y, dij._q
        if dx or dy:
            # add D_ij p(s): (dx + dy*i)(pxs + pys*i)/(dq*pq)
            q2 = dq * pq
            for k, (x2, y2) in enumerate(zip(pxs, pys)):
                q1 = qs[k]
                xs[k] = xs[k] * q2 + (dx * x2 - dy * y2) * q1
                ys[k] = ys[k] * q2 + (dx * y2 + dy * x2) * q1
                qs[k] = q1 * q2
        out[i, j] = _from_parts(xs, ys, qs)
    return p, out


def schur_complement(a, b, c, d):
    """(charpoly(D), A - B D^-1 C), the second None when D is singular and
    A itself when D is empty.  With p = charpoly(D) and its last adjugate
    term M, (-D) M = p(0) I, so D^-1 = -M/p(0) and A - B D^-1 C =
    A + B M C/p(0): one scaled product B M C, not one per adjugate term."""
    p, terms = charpoly(d)
    p0 = p.coeffs[0]
    if not p0:
        return p, None
    if not terms:
        return p, a
    bmc = scaled_mul(scaled_mul(to_scaled(b), terms[-1]), to_scaled(c))
    return p, a + from_scaled(*bmc) / p0
