"""Correctness references computed by the benchmark itself.

None of these call the lqsys function whose output they judge: exact
values use this module's own arithmetic over Q(i) (pairs of Fractions),
numeric ones use numpy directly.  lqsys objects are only read as data.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# exact arithmetic over Q(i): a number is a pair (re, im) of Fractions

Q0 = (Fraction(0), Fraction(0))
Q1 = (Fraction(1), Fraction(0))


def q(gr):
    """A lqsys GaussianRational (or int / Fraction) as a pair."""
    if isinstance(gr, (int, Fraction)):
        return (Fraction(gr), Fraction(0))
    return (gr.re, gr.im)


def qadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def qsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def qmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def qdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def qmat(rows):
    return [[q(x) for x in row] for row in rows]


def qdet(m):
    """Determinant by Gaussian elimination over Q(i)."""
    m = [row[:] for row in m]
    n = len(m)
    det = Q1
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != Q0), None)
        if piv is None:
            return Q0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = (-det[0], -det[1])
        p = m[col][col]
        det = qmul(det, p)
        for i in range(col + 1, n):
            if m[i][col] == Q0:
                continue
            f = qdiv(m[i][col], p)
            for j in range(col, n):
                m[i][j] = qsub(m[i][j], qmul(f, m[col][j]))
    return det


def qsolve(a, b):
    """X with a X = b, by Gauss-Jordan elimination; None if a is singular."""
    n = len(a)
    m = [a[i][:] + b[i][:] for i in range(n)]
    width = len(m[0]) if n else 0
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != Q0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [qdiv(x, p) for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != Q0:
                f = m[i][col]
                m[i] = [qsub(x, qmul(f, y)) for x, y in zip(m[i], m[col])]
    return [row[n:width] for row in m]


def transfer_at(exact, s0):
    """G(s0) = D + C (s0 I - A)^-1 B exactly, or None at a pole."""
    a, b, c, d = (qmat(exact[k]) for k in ("A", "B", "C", "D"))
    n = len(a)
    shifted = [
        [qsub(s0 if i == j else Q0, a[i][j]) for j in range(n)] for i in range(n)
    ]
    x = qsolve(shifted, b)
    if x is None:
        return None
    out = []
    for i, row in enumerate(c):
        out_row = []
        for j in range(len(b[0])):
            acc = d[i][j]
            for k, cik in enumerate(row):
                acc = qadd(acc, qmul(cik, x[k][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def poly_at(poly, s0):
    """Horner evaluation of a lqsys Poly (coefficients lowest first)."""
    acc = Q0
    for c in reversed(poly.coeffs):
        acc = qadd(qmul(acc, s0), q(c))
    return acc


def max_bits(polys):
    """Largest bit length of any numerator or denominator among the
    coefficients of ``polys``."""
    best = 0
    for p in polys:
        for c in p.coeffs:
            for part in (c.re, c.im):
                best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


def to_complex(pair):
    return complex(float(pair[0]), float(pair[1]))


# ---------------------------------------------------------------------------
# numeric references


def multiset_match(a, b, rel_tol):
    """True when the complex multisets a and b pair up one to one with
    |x - y| <= rel_tol * max(1, |y|), matching each x to its nearest free y."""
    a = sorted((complex(x) for x in a), key=lambda z: (z.real, z.imag))
    free = [complex(y) for y in b]
    if len(a) != len(free):
        return False
    for x in a:
        j = min(range(len(free)), key=lambda k: abs(free[k] - x))
        if abs(free[j] - x) > rel_tol * max(1.0, abs(free[j])):
            return False
        free.pop(j)
    return True


def freq_response(a, b, c, d, s):
    """D + C (sI - A)^-1 B by a plain numpy solve."""
    n = a.shape[0]
    x = np.linalg.solve(s * np.eye(n) - a, b.astype(complex))
    return d + c @ x


def rel_close(x, ref, rel_tol):
    x, ref = np.asarray(x), np.asarray(ref)
    return bool(np.max(np.abs(x - ref)) <= rel_tol * max(1.0, float(np.max(np.abs(ref)))))


def _rank(m, scale):
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > 1e-8 * scale))


class PBH:
    """Popov-Belevitch-Hautus classification of every eigenvalue of A:
    uncontrollable when rank [A - lI, B] drops, unobservable when
    rank [A - lI; C] drops.  Eigenvalues of the generated systems are
    simple apart from the doubled lossless pairs, so the rank drop at each
    distinct eigenvalue counts its hidden states."""

    def __init__(self, a, b, c):
        ns = a.shape[0]
        scale = max(1.0, float(np.linalg.norm(np.hstack([a, b]), 2)),
                    float(np.linalg.norm(np.vstack([a, c]), 2)))
        lam = np.linalg.eigvals(a)
        groups = []  # (eigenvalue, multiplicity)
        for z in sorted(lam, key=lambda v: (v.real, v.imag)):
            if groups and abs(groups[-1][0] - z) <= 1e-6 * scale:
                groups[-1][1] += 1
            else:
                groups.append([z, 1])
        self.modes = []  # (eigenvalue, multiplicity, uncontrollable, unobservable)
        eye = np.eye(ns)
        for z, mult in groups:
            shifted = a - z * eye
            dc = ns - _rank(np.hstack([shifted, b]), scale)
            do = ns - _rank(np.vstack([shifted, c]), scale)
            self.modes.append((complex(z), mult, dc, do))

    @property
    def block_dims(self):
        """(c_obar, co, cbar_obar, cbar_o), the order kalman_decompose uses."""
        both = sum(min(dc, do) for _, _, dc, do in self.modes)
        unobs = sum(do for _, _, _, do in self.modes) - both
        uncon = sum(dc for _, _, dc, _ in self.modes) - both
        total = sum(mult for _, mult, _, _ in self.modes)
        return (unobs, total - unobs - uncon - both, both, uncon)

    def values(self, hidden):
        """Eigenvalues (with multiplicity) that are hidden, or the ones
        that are controllable and observable."""
        out = []
        for z, mult, dc, do in self.modes:
            if bool(dc or do) == hidden:
                out.extend([z] * mult)
        return out

    def observable_values(self):
        out = []
        for z, mult, _, do in self.modes:
            out.extend([z] * (mult - do))
        return out

    def hidden_modes_imaginary(self, real_tol):
        return all(abs(z.real) <= real_tol for z in self.values(hidden=True))


def left_invertibility_verdict(observable, tol):
    """The half-plane test on the observable eigenvalues."""
    margins = [z.real for z in observable]
    if any(abs(mg) <= tol for mg in margins):
        return "indeterminate-at-tolerance"
    if all(mg > tol for mg in margins):
        return "as-left-invertible"
    return "not-as-left-invertible"
