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
(Bareiss elimination; Berkowitz's division-free recurrence, the one
characteristic-polynomial algorithm; the Markov parameters C A^i B;
Newton interpolation through integer falling factorials).  The triples
stay in this module, products of them are ``scaled_mul``'s, and only
``charpoly``'s adjugate terms are returned scaled (``from_scaled``
builds one as an exact matrix).  ``pencil_det`` has no library caller:
the tests use it as an independent reference, and it, ``mat_block`` and
``mat_zeros`` serve the benchmark's traced probe.  An empty matrix needs
no special case: its characteristic polynomial, and the determinant of
an empty pencil, come out as 1.
"""

from __future__ import annotations

from itertools import chain
from math import factorial, lcm

import numpy as np

from .errors import DimensionError, NumericalError
from .rational import GR_ZERO, GaussianRational, _convolve, _gr, _poly

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


def _berkowitz(mx, my):
    """(xs, ys), lowest degree first: the Gaussian-integer coefficients of
    det(sI - M), M = mx + my*i, by Berkowitz's division-free recurrence
    (Inf. Process. Lett. 18(3), 1984) over the leading blocks.  With
    M_(k+1) = [[M_k, c], [r, a]], the coefficients of det(sI - M_(k+1)),
    highest degree first, are those of det(sI - M_k) convolved with
    (1, -a, -r c, -r M_k c, ..., -r M_k^(k-1) c) and cut to k + 2 terms.
    A pass multiplies v by the rows of M up to r, which stop at len(v)."""
    px, py = [1], [0]  # det(sI - M_0) = 1, highest degree first
    for k in range(len(mx)):
        vx, vy = [row[k] for row in mx[:k]], [row[k] for row in my[:k]]  # c
        tx, ty = [1, -mx[k][k]], [0, -my[k][k]]
        for j in range(k):
            lo = k if j == k - 1 else 0  # the last pass needs r v alone
            v = [(i, x, y) for i, (x, y) in enumerate(zip(vx, vy)) if x or y]
            vx, vy = [], []  # M_k v, then r v
            for ux, uy in zip(mx[lo:k + 1], my[lo:k + 1]):
                sx = sy = 0
                for i, x2, y2 in v:
                    x1, y1 = ux[i], uy[i]
                    sx += x1 * x2 - y1 * y2
                    sy += x1 * y2 + y1 * x2
                vx.append(sx)
                vy.append(sy)
            tx.append(-vx.pop())
            ty.append(-vy.pop())
        qx, qy = [0] * (2 * k + 2), [0] * (2 * k + 2)
        _convolve(qx, qy, tx, ty, px, py)
        px, py = qx[:k + 2], qy[:k + 2]
    return px[::-1], py[::-1]


def _charpoly(sa):
    """(p, (xs, ys)) for the scaled triple sa of A: p = det(sI - A), the
    integer vector q^k (xs + ys*i)_k over q^n normalized once, where xs +
    ys*i are the coefficients of det(sI - qA), lowest degree first."""
    px, py = _berkowitz(sa[0], sa[1])
    qk = [sa[2] ** k for k in range(len(px))]
    return _poly([x * f for x, f in zip(px, qk)], [y * f for y, f in zip(py, qk)], qk[-1]), (px, py)


def charpoly(a, terms=True):
    """(p, terms): p = det(sI - A) by Berkowitz's recurrence on the
    Gaussian-integer matrix qA of ``to_scaled``, and the adjugate terms
    M_1..M_n, adj(sI - A) = sum_k M_k s^(n-k), or None for
    ``terms=False``.  With c_j the coefficients of p, M_1 = I and
    M_(k+1) = A M_k + c_(n-k) I; on the integers M_k = N_k/q^(k-1), with
    N_(k+1) = qA N_k + P_(n-k) I for P those of det(sI - qA).  The terms
    are returned in that scaled form (xs, ys, q^(k-1)) for ``scaled_mul``;
    ``from_scaled`` builds one as an exact matrix."""
    n, c = a.shape
    if n != c:
        raise DimensionError("characteristic polynomial needs a square matrix")
    sa = to_scaled(a)
    p, (px, py) = _charpoly(sa)
    if not terms:
        return p, None
    out = [([[int(i == j) for j in range(n)] for i in range(n)], [[0] * n for _ in range(n)], 1)]
    m = ([row[:] for row in sa[0]], [row[:] for row in sa[1]], sa[2])  # qA N_1, over q
    for k in range(1, n):
        if k > 1:
            m = scaled_mul(sa, m)
        for i in range(n):
            m[0][i][i] += px[n - k]
            m[1][i][i] += py[n - k]
        out.append(m)
    return p, out[:n]  # no term for n = 0


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
    object array of Poly numerators, shaped as D.

    (sI - A)^-1 = sum_i A^i s^-(i+1), so N = D p + sum_(i<n) (C A^i B)
    floor(p/s^(i+1)), from the Markov parameters C A^i B.  With P the
    integer coefficients of det(sI - qA) and W_i = (qC)(qA)^i(qB), an
    entry d/qD of D gives coefficient t of N over Q = qD qC qB q^n as
    q^t (d qC qB P_t + qD q sum_i W_i P_(t+i+1)), normalized once."""
    sa = to_scaled(a)
    p, (px, py) = _charpoly(sa)
    n, q = len(px) - 1, sa[2]
    qt = [q**t for t in range(n + 1)]
    cx, cy, qc = to_scaled(c)
    bx, by, qb = to_scaled(b)
    # K = [qB, qA qB, ..., (qA)^(n-1) qB]: W_k(i, j) is (qC K)(i, k m + j)
    kx, ky = [[] for _ in range(n)], [[] for _ in range(n)]
    vx, vy = bx, by
    for k in range(n):
        if k:
            vx, vy, _ = scaled_mul(sa, (vx, vy, 1))
        for row, r in chain(zip(kx, vx), zip(ky, vy)):
            row.extend(r)
    wx, wy, _ = scaled_mul((cx, cy, 1), (kx, ky, 1))
    m = d.shape[1]
    tails = [(px[t + 1:], py[t + 1:]) for t in range(n + 1)]
    f = qc * qb
    out = np.empty(d.shape, dtype=object)
    for (i, j), dij in np.ndenumerate(d):
        w = list(zip(wx[i][j::m], wy[i][j::m]))
        dx, dy, g = dij._x, dij._y, dij._q * q
        xs, ys = [], []
        for x, y, (tx, ty), qk in zip(px, py, tails, qt):
            sx = sy = 0  # S_t = sum_i W_i P_(t+i+1)
            for (x1, y1), x2, y2 in zip(w, tx, ty):
                sx += x1 * x2 - y1 * y2
                sy += x1 * y2 + y1 * x2
            xs.append(((dx * x - dy * y) * f + g * sx) * qk)
            ys.append(((dx * y + dy * x) * f + g * sy) * qk)
        out[i, j] = _poly(xs, ys, dij._q * f * qt[-1])
    return p, out


def schur_complement(a, b, c, d):
    """(charpoly(D), A - B D^-1 C), the second None when D is singular and
    A itself when D is empty.  With p = charpoly(D) and its last adjugate
    term M = D^(n-1) + c_(n-1) D^(n-2) + ... + c_1 I from ``charpoly``'s
    recurrence, (-D) M = p(0) I, so D^-1 = -M/p(0) and A - B D^-1 C =
    A + B M C/p(0): one scaled product B M C, not one per adjugate term."""
    p, terms = charpoly(d)
    p0 = p.coeffs[0]
    if not p0:
        return p, None
    if not terms:
        return p, a
    bmc = scaled_mul(scaled_mul(to_scaled(b), terms[-1]), to_scaled(c))
    return p, a + from_scaled(*bmc) / p0
