"""Dense exact matrices over Q(i) as lists of lists of GaussianRational.

What the exact paths need and no more: ingestion (``exact_matrix``, and
``to_numpy`` for the rounded float copy); the integer kernels
``mat_mul``, ``det_exact``, ``charpoly`` and ``pencil_det``, which scale
each matrix to Gaussian integers over one common denominator, run on
Python ints and normalize each result entry once (Bareiss elimination,
Faddeev-LeVerrier, Lagrange interpolation; sizes are a handful of
modes); and the shape helpers of the exact model build and det identity,
of which the benchmark imports ``mat_block`` and ``mat_zeros`` with
``charpoly`` and ``pencil_det``.  The flat and sharp adjoints have no
exact twin (see ``model.build_state_space`` and
``zeros.verify_det_identity``).
"""

from __future__ import annotations

from math import lcm

import numpy as np

from .errors import DimensionError, NumericalError
from .rational import GR_ONE, GR_ZERO, GaussianRational, Poly, _gr

__all__ = [
    "exact_matrix",
    "to_numpy",
    "shape",
    "mat_mul",
    "mat_eye",
    "mat_zeros",
    "mat_block",
    "hermitian_t",
    "transpose",
    "doubled_up_exact",
    "det_exact",
    "charpoly",
    "pencil_det",
]


def exact_matrix(rows):
    """Coerce nested iterables to a list-of-lists of GaussianRational."""
    out = [[GaussianRational.of(x) for x in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionError("ragged rows in exact matrix")
    return out


def to_numpy(m):
    """The rounded float copy of an exact matrix; an entry beyond the
    float range raises NumericalError."""
    r, c = shape(m)
    out = np.zeros((r, c), dtype=complex)
    try:
        for i in range(r):
            for j in range(c):
                out[i, j] = complex(m[i][j])
    except OverflowError as e:
        raise NumericalError(f"exact entry too large for a float copy: {e}") from e
    return out


def shape(m):
    return len(m), (len(m[0]) if m else 0)


def mat_zeros(r, c):
    return [[GR_ZERO for _ in range(c)] for _ in range(r)]


def mat_eye(n):
    return [[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)]


def _scaled_ints(a):
    """(xs, ys, q): int matrices with xs + ys*i = q*a, q the least common
    denominator of the entries of a."""
    q = lcm(*[x._q for row in a for x in row])
    xs = [[x._x * (q // x._q) for x in row] for row in a]
    ys = [[x._y * (q // x._q) for x in row] for row in a]
    return xs, ys, q


def mat_mul(a, b):
    """Product over one common denominator per factor: an integer triple
    loop, and one gcd per entry of the result."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise DimensionError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    ax, ay, qa = _scaled_ints(a)
    bx, by, qb = _scaled_ints(b)
    q = qa * qb
    cols = [list(zip(cx, cy)) for cx, cy in zip(zip(*bx), zip(*by))]
    out = []
    for rx, ry in zip(ax, ay):
        terms = [(k, x1, y1) for k, (x1, y1) in enumerate(zip(rx, ry)) if x1 or y1]
        row = []
        for col in cols:
            sx = sy = 0
            for k, x1, y1 in terms:
                x2, y2 = col[k]
                sx += x1 * x2 - y1 * y2
                sy += x1 * y2 + y1 * x2
            row.append(_gr(sx, sy, q))
        out.append(row)
    return out


def mat_block(blocks):
    """Assemble from a 2-D grid of exact matrices."""
    rows = []
    for brow in blocks:
        height = shape(brow[0])[0]
        for i in range(height):
            rows.append([x for blk in brow for x in blk[i]])
    return rows


def transpose(a):
    r, c = shape(a)
    return [[a[i][j] for i in range(r)] for j in range(c)]


def hermitian_t(a):
    r, c = shape(a)
    return [[a[i][j].conjugate() for i in range(r)] for j in range(c)]


def doubled_up_exact(u, v):
    """[[U, V], [conj(V), conj(U)]], the exact twin of linalg.doubled_up."""
    ubar = [[x.conjugate() for x in row] for row in u]
    vbar = [[x.conjugate() for x in row] for row in v]
    return mat_block([[u, v], [vbar, ubar]])


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


def det_exact(a):
    """Determinant by Bareiss elimination over the Gaussian integers: the
    matrix is scaled to Gaussian integers over one common denominator q,
    and det/q^n is normalized once."""
    r, c = shape(a)
    if r != c:
        raise DimensionError("determinant needs a square matrix")
    if r == 0:
        return GR_ONE
    mx, my, q = _scaled_ints(a)
    dx, dy = _bareiss(mx, my)
    return _gr(dx, dy, q**r)


def charpoly(a):
    """Characteristic polynomial det(sI - A) via Faddeev-LeVerrier.

    Also returns the adjugate expansion coefficients M_1..M_n with
    adj(sI - A) = sum_k M_{k+1} s^(n-1-k), used by the exact resolvent.
    """
    n, c = shape(a)
    if n != c:
        raise DimensionError("characteristic polynomial needs a square matrix")
    coeffs = [GR_ZERO] * (n + 1)
    coeffs[n] = GR_ONE
    m_terms = []
    m = mat_eye(n)
    for k in range(1, n + 1):
        m_terms.append(m)
        am = mat_mul(a, m)
        ck = -(sum((am[i][i] for i in range(n)), GR_ZERO) / k)
        coeffs[n - k] = ck
        if k < n:
            m = am
            for i in range(n):
                m[i][i] = m[i][i] + ck
    return Poly(coeffs), m_terms


def pencil_det(p0, e):
    """det(p0 - s*e) as an exact Poly, by evaluation at integer points and
    Lagrange interpolation.  The degree cannot exceed the number of
    nonzero rows of e, which bounds the number of sample points needed.
    Each sample is a Bareiss determinant of the Gaussian-integer matrix
    (p0*qe - k*e*qp)/(qp*qe), with qp and qe the common denominators."""
    n, c = shape(p0)
    if shape(e) != (n, c) or n != c:
        raise DimensionError("pencil blocks must be square and same shape")
    if n == 0:
        return Poly([1])
    deg = sum(1 for row in e if any(not x.is_zero() for x in row))
    px, py, qp = _scaled_ints(p0)
    ex, ey, qe = _scaled_ints(e)
    den = (qp * qe) ** n
    vals = []
    for k in range(deg + 1):
        kq = k * qp
        mx = [[x * qe - kq * y for x, y in zip(r0, r1)] for r0, r1 in zip(px, ex)]
        my = [[x * qe - kq * y for x, y in zip(r0, r1)] for r0, r1 in zip(py, ey)]
        vals.append(_gr(*_bareiss(mx, my), den))
    return _lagrange([GaussianRational(k) for k in range(deg + 1)], vals)


def _lagrange(xs, ys):
    acc = Poly()
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi.is_zero():
            continue
        li = Poly([1])
        denom = GR_ONE
        for j, xj in enumerate(xs):
            if j == i:
                continue
            li = li * Poly([-xj, 1])
            denom = denom * (xi - xj)
        acc = acc + li * (yi / denom)
    return acc
