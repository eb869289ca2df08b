"""Dense exact matrices over Q(i): plain list-of-list helpers.

Sizes here are tiny (a handful of modes), so simple algorithms are used
throughout: Gaussian elimination for determinants, Faddeev-LeVerrier for
characteristic polynomials, Lagrange interpolation for pencil determinants.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ExactnessError
from .rational import GR_ONE, GR_ZERO, GaussianRational, Poly

__all__ = [
    "exact_matrix",
    "from_numpy_exact",
    "to_numpy",
    "shape",
    "mat_add",
    "mat_sub",
    "mat_neg",
    "mat_scale",
    "mat_mul",
    "mat_eye",
    "mat_zeros",
    "mat_block",
    "hermitian_t",
    "transpose",
    "diag_exact",
    "doubled_up_exact",
    "signature_j_exact",
    "flat_adjoint_exact",
    "sharp_adjoint_exact",
    "mat_trace",
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


def from_numpy_exact(a):
    """Exact view of a float/complex array; float entries convert exactly
    (binary rationals), so this never loses information."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    return [[GaussianRational.of(complex(x)) for x in row] for row in a]


def to_numpy(m):
    r, c = shape(m)
    out = np.zeros((r, c), dtype=complex)
    for i in range(r):
        for j in range(c):
            out[i, j] = complex(m[i][j])
    return out


def shape(m):
    return len(m), (len(m[0]) if m else 0)


def mat_zeros(r, c):
    return [[GR_ZERO for _ in range(c)] for _ in range(r)]


def mat_eye(n):
    return [[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)]


def mat_add(a, b):
    if shape(a) != shape(b):
        raise DimensionError(f"shape mismatch {shape(a)} vs {shape(b)}")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return mat_add(a, mat_neg(b))


def mat_neg(a):
    return [[-x for x in row] for row in a]


def mat_scale(c, a):
    c = GaussianRational.of(c)
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise DimensionError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    out = mat_zeros(ra, cb)
    for i in range(ra):
        for k in range(ca):
            x = a[i][k]
            if x.is_zero():
                continue
            for j in range(cb):
                out[i][j] = out[i][j] + x * b[k][j]
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


def diag_exact(vals):
    """Square exact matrix with ``vals`` on its diagonal."""
    k = len(vals)
    out = mat_zeros(k, k)
    for i, v in enumerate(vals):
        out[i][i] = GaussianRational.of(v)
    return out


def doubled_up_exact(u, v):
    """[[U, V], [conj(V), conj(U)]], the exact twin of linalg.doubled_up."""
    ubar = [[x.conjugate() for x in row] for row in u]
    vbar = [[x.conjugate() for x in row] for row in v]
    return mat_block([[u, v], [vbar, ubar]])


def signature_j_exact(k):
    """diag(I_k, -I_k) as an exact matrix."""
    n = 2 * k
    out = mat_zeros(n, n)
    for i in range(k):
        out[i][i] = GR_ONE
        out[k + i][k + i] = -GR_ONE
    return out


def _symp_j(k):
    """[[0, I_k], [-I_k, 0]] as an exact matrix."""
    n = 2 * k
    out = mat_zeros(n, n)
    for i in range(k):
        out[i][k + i] = GR_ONE
        out[k + i][i] = -GR_ONE
    return out


def flat_adjoint_exact(a):
    r, c = shape(a)
    if r % 2 or c % 2:
        raise DimensionError("flat adjoint needs even dimensions")
    return mat_mul(
        mat_mul(signature_j_exact(c // 2), hermitian_t(a)), signature_j_exact(r // 2)
    )


def sharp_adjoint_exact(a):
    r, c = shape(a)
    if r % 2 or c % 2:
        raise DimensionError("sharp adjoint needs even dimensions")
    if any(not x.is_real() for row in a for x in row):
        raise ExactnessError("sharp adjoint is defined for real matrices")
    return mat_mul(
        mat_mul(_symp_j(c // 2), transpose(a)), transpose(_symp_j(r // 2))
    )


def mat_trace(a):
    r, c = shape(a)
    if r != c:
        raise DimensionError("trace needs a square matrix")
    t = GR_ZERO
    for i in range(r):
        t = t + a[i][i]
    return t


def det_exact(a):
    """Determinant by fraction-free-ish Gaussian elimination with pivoting."""
    r, c = shape(a)
    if r != c:
        raise DimensionError("determinant needs a square matrix")
    if r == 0:
        return GR_ONE
    m = [row[:] for row in a]
    det = GR_ONE
    for col in range(r):
        pivot = next((i for i in range(col, r) if not m[i][col].is_zero()), None)
        if pivot is None:
            return GR_ZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        p = m[col][col]
        det = det * p
        for i in range(col + 1, r):
            f = m[i][col] / p
            if f.is_zero():
                continue
            for j in range(col, r):
                m[i][j] = m[i][j] - f * m[col][j]
    return det


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
        ck = -(mat_trace(am) / GaussianRational.of(k))
        coeffs[n - k] = ck
        if k < n:
            m = mat_add(am, mat_scale(ck, mat_eye(n)))
    return Poly(coeffs), m_terms


def pencil_det(p0, e):
    """det(p0 - s*e) as an exact Poly, by evaluation at integer points and
    Lagrange interpolation.  The degree cannot exceed the number of
    nonzero rows of e, which bounds the number of sample points needed."""
    n, c = shape(p0)
    if shape(e) != (n, c) or n != c:
        raise DimensionError("pencil blocks must be square and same shape")
    if n == 0:
        return Poly([1])
    deg = sum(1 for row in e if any(not x.is_zero() for x in row))
    pts = [GaussianRational.of(k) for k in range(deg + 1)]
    vals = [det_exact(mat_sub(p0, mat_scale(s, e))) for s in pts]
    return _lagrange(pts, vals)


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
