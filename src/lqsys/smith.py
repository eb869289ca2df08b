"""Exact transfer matrices, Smith forms and the Smith-McMillan form.

A rational matrix G(s) is reduced by elementary row/column operations to

    M(s) = diag(alpha_1/beta_1, ..., alpha_r/beta_r, 0, ...)

with monic coprime pairs satisfying alpha_i | alpha_{i+1} and
beta_{i+1} | beta_i.  Transmission zeros are the roots of the alpha_i and
poles the roots of the beta_i, counted with multiplicity.  All of this is
done over Q(i): canonical forms need exact gcds, so there is deliberately
no floating-point variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactlinalg as xl
from .errors import DimensionError, ExactnessError
from .rational import (
    GR_ONE,
    GaussianRational,
    Poly,
    POLY_ONE,
    RationalFn,
    _from_parts,
    _gr,
    content,
)
from .spectra import SpectrumReport

__all__ = [
    "RationalMatrix",
    "SmithMcMillanForm",
    "transfer_matrix_exact",
    "smith_mcmillan",
    "zeros_poles_from_smf",
    "polynomial_roots_exact_first",
]


class RationalMatrix:
    """Dense matrix of RationalFn entries.  Immutable; its numerator form
    (see ``_numerator``) is computed on first use and kept."""

    __slots__ = ("entries", "_numer")

    def __init__(self, entries):
        rows = [[RationalFn.of(e) for e in row] for row in entries]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionError("ragged rows in rational matrix")
        object.__setattr__(self, "entries", tuple([tuple(r) for r in rows]))

    def __setattr__(self, *_):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, k):
        return cls(
            [[RationalFn.of(1 if i == j else 0) for j in range(k)] for i in range(k)]
        )

    @classmethod
    def diagonal(cls, diag, shape=None):
        diag = [RationalFn.of(d) for d in diag]
        p = q = len(diag)
        if shape is not None:
            p, q = shape
        return cls(
            [
                [diag[i] if i == j and i < len(diag) else RationalFn.of(0)
                 for j in range(q)]
                for i in range(p)
            ]
        )

    @property
    def shape(self):
        r = len(self.entries)
        return (r, len(self.entries[0]) if r else 0)

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __matmul__(self, other):
        p, q = self.shape
        q2, r = other.shape
        if q != q2:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        out = []
        for i in range(p):
            row = []
            for j in range(r):
                acc = RationalFn.of(0)
                for k in range(q):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return RationalMatrix(out)

    def evaluate(self, s):
        """Numeric (or exact, for GaussianRational s) value of G(s)."""
        if isinstance(s, GaussianRational):
            return [[e(s) for e in row] for row in self.entries]
        p, q = self.shape
        out = np.zeros((p, q), dtype=complex)
        for i in range(p):
            for j in range(q):
                out[i, j] = complex(self.entries[i][j](s))
        return out

    def determinant(self):
        """Exact determinant over the rational-function field."""
        p, q = self.shape
        if p != q:
            raise DimensionError("determinant needs a square matrix")
        m = [list(row) for row in self.entries]
        det = RationalFn.of(1)
        for col in range(p):
            piv = next((i for i in range(col, p) if not m[i][col].is_zero()), None)
            if piv is None:
                return RationalFn.of(0)
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                det = -det
            pv = m[col][col]
            det = det * pv
            for i in range(col + 1, p):
                if m[i][col].is_zero():
                    continue
                f = m[i][col] / pv
                for j in range(col, p):
                    m[i][j] = m[i][j] - f * m[col][j]
        return det

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.entries
        )


def transfer_matrix_exact(ss) -> RationalMatrix:
    """Exact transfer matrix D + C (sI - A)^-1 B of an exact system.

    Uses the Faddeev-LeVerrier expansion of the resolvent: with
    p(s) = det(sI - A) and adj(sI - A) = sum_k M_k s^(n-1-k), each entry is
    (D_ij p(s) + [C adj B]_ij) / p(s), reduced.  The products C M_k B are
    formed on the Gaussian-integer matrices of ``charpoly``'s scaled terms
    (``exactlinalg.scaled_mul``), and each numerator is summed coefficient
    by coefficient as integer pairs over their denominators and normalized
    once.
    """
    if not ss.is_exact:
        raise ExactnessError(
            "transfer_matrix_exact needs exact entries; "
            "use frequency_response for floating systems"
        )
    a = ss.exact["A"]
    b = xl.to_scaled(ss.exact["B"])
    c = xl.to_scaled(ss.exact["C"])
    d = ss.exact["D"]
    p, m_terms = xl.charpoly(a)
    # M_k multiplies s^(n-k), so cmb[deg] is the coefficient of s^deg
    cmb = [xl.scaled_mul(xl.scaled_mul(c, mk), b) for mk in reversed(m_terms)]
    pxs, pys, pq = p._xs, p._ys, p._q
    out = []
    for i, drow in enumerate(d):
        row = []
        for j, dij in enumerate(drow):
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
            row.append(RationalFn(_from_parts(xs, ys, qs), p))
        out.append(row)
    return RationalMatrix(out)


# ---------------------------------------------------------------------------
# Smith / Smith-McMillan reduction


class _PolyMat:
    """Mutable polynomial matrix used only inside the reduction and its
    replay.  Operations are the tuples recorded in SmithMcMillanForm:
    ("swap", i, j), ("addmul", dst, src, poly), ("scale", i, c) and
    ("mix", i, j, a, b, c, d); each is written once, as a row operation."""

    def __init__(self, rows):
        self.m = [list(r) for r in rows]

    def row_op(self, op):
        getattr(self, "_" + op[0])(*op[1:])

    def col_op(self, op):
        """A column operation is the row operation on the transpose."""
        self.m = [list(c) for c in zip(*self.m)]
        self.row_op(op)
        self.m = [list(r) for r in zip(*self.m)]

    def _swap(self, i, j):
        self.m[i], self.m[j] = self.m[j], self.m[i]

    def _addmul(self, dst, src, poly):
        self.m[dst] = [x + poly * y for x, y in zip(self.m[dst], self.m[src])]

    def _scale(self, i, c):
        self.m[i] = [x * c for x in self.m[i]]

    def _mix(self, i, j, a, b, c, d):
        """(row_i, row_j) <- (a*row_i + b*row_j, c*row_i + d*row_j)."""
        ri, rj = self.m[i], self.m[j]
        self.m[i] = [a * x + b * y for x, y in zip(ri, rj)]
        self.m[j] = [c * x + d * y for x, y in zip(ri, rj)]


def _numerator(g: RationalMatrix):
    """(N, d) with G = N/d: d the monic lcm of the entry denominators and
    N a fresh ``_PolyMat`` of d*G.  The lcm and the products are computed
    once per matrix and kept on it, so the reduction and every replay of
    the same G share them."""
    try:
        rows, d = g._numer
    except AttributeError:
        d = POLY_ONE
        for row in g.entries:
            for e in row:
                if e.den != d:
                    d = d.lcm(e.den)
        rows = tuple(tuple(e.num if e.den == d else e.num * (d // e.den) for e in row)
                     for row in g.entries)
        object.__setattr__(g, "_numer", (rows, d))
    return _PolyMat(rows), d


@dataclass(frozen=True)
class SmithMcMillanForm:
    """Diagonal canonical form of a rational matrix under unimodular
    row/column operations, together with the operations themselves.

    ``left_ops`` / ``right_ops`` are the recorded elementary row/column
    operations; ``apply_operations(G, left_ops, right_ops)`` reproduces
    ``diagonal()`` exactly.  The unimodular factors can be materialized
    with ``left_matrix()`` / ``right_matrix()`` when needed.
    """

    alphas: tuple  # of Poly, monic
    betas: tuple  # of Poly, monic
    rank: int
    shape: tuple
    left_ops: tuple
    right_ops: tuple

    def diagonal(self) -> RationalMatrix:
        return RationalMatrix.diagonal(
            [RationalFn(a, b) for a, b in zip(self.alphas, self.betas)],
            shape=self.shape,
        )

    def left_matrix(self) -> RationalMatrix:
        return apply_operations(
            RationalMatrix.identity(self.shape[0]), self.left_ops, ()
        )

    def right_matrix(self) -> RationalMatrix:
        return apply_operations(
            RationalMatrix.identity(self.shape[1]), (), self.right_ops
        )

    def to_dict(self):
        return {
            "rank": self.rank,
            "diagonal": [
                str(RationalFn(a, b)) for a, b in zip(self.alphas, self.betas)
            ],
            "alphas": [str(a) for a in self.alphas],
            "betas": [str(b) for b in self.betas],
        }


def apply_operations(g: RationalMatrix, left_ops, right_ops) -> RationalMatrix:
    """Apply recorded elementary operations: left ops act on rows, right
    ops on columns, each in recorded order.  They are replayed on the
    numerator N = d*G, kept on G since the reduction of the same matrix
    computed it, and divided by d once at the end."""
    n, d = _numerator(g)
    for op in left_ops:
        n.row_op(op)
    # column operations are row operations on the transpose
    n = _PolyMat(zip(*n.m))
    for op in right_ops:
        n.row_op(op)
    return RationalMatrix([[RationalFn(x, d) for x in col] for col in zip(*n.m)])


def _smallest_pivot(m, t, p, q):
    """Position of the trailing block's nonzero entry of least degree, ties
    broken by least ``Poly.size``, then by (row, col)."""
    keys = [
        (e.degree, e.size(), i, j)
        for i in range(t, p)
        for j, e in enumerate(m.m[i][t:q], t)
        if not e.is_zero()
    ]
    return min(keys)[2:] if keys else None


def smith_mcmillan(g: RationalMatrix) -> SmithMcMillanForm:
    """Smith-McMillan form via Smith reduction of the numerator matrix.

    Writes G = N(s)/d(s) with d the monic lcm of entry denominators (the
    numerator form shared with ``apply_operations``) and reduces N by
    recorded unimodular operations, then cancels d into each diagonal
    entry.  The pivot is the trailing block's entry of least degree, ties
    broken by least coefficient size, then by smallest (row, col), so the
    recorded operation sequence is deterministic.  The pivot's column and
    row are then cleared one entry at a time, the smallest first: an entry
    the pivot divides by a plain row or column operation, any other by a
    Bezout 2x2 mix that turns the pivot into the gcd and zeroes the entry.
    Small entries first keep the Bezout cofactors, which every later
    clearing operation spreads over the trailing block, as small as the
    matrix allows.  Every touched row/column is stripped to its rational
    content; a constant pivot divides everything without long division.
    """
    p, q = g.shape
    n, d = _numerator(g)
    left_ops, right_ops = [], []

    def row_op(*op):
        n.row_op(op)
        left_ops.append(op)

    def col_op(*op):
        n.col_op(op)
        right_ops.append(op)

    def row_normalize(i):
        c = content(n.m[i])
        if c is not None and c != 1:
            row_op("scale", i, GaussianRational(1 / c))

    def col_normalize(j):
        c = content(row[j] for row in n.m)
        if c is not None and c != 1:
            col_op("scale", j, GaussianRational(1 / c))

    def bezout(pivot, e, quot, rem):
        """The 2x2 mix (a, b, c, d) with a*pivot + b*e = gcd(pivot, e) and
        c*pivot + d*e = 0.  The sweep already divided e by the pivot, so
        the gcd runs on (pivot, rem) and the pivot's cofactor is corrected
        by the quotient: a*pivot + b*rem = g gives (a - b*quot)*pivot +
        b*e = g, the same least-degree cofactors as a gcd on (pivot, e)."""
        g, a, b = pivot.ext_gcd(rem)
        return a - b * quot, b, -(e // g), pivot // g

    for i in range(p):
        row_normalize(i)

    t = 0
    while t < min(p, q):
        pos = _smallest_pivot(n, t, p, q)
        if pos is None:
            break
        if pos[0] != t:
            row_op("swap", t, pos[0])
        if pos[1] != t:
            col_op("swap", t, pos[1])
        while True:
            # the nonzero entries left in the pivot's column (side 0) and
            # row (side 1); the smallest is cleared or mixed in next
            line = [(n.m[i][t].size(), 0, i) for i in range(t + 1, p)
                    if not n.m[i][t].is_zero()]
            line += [(n.m[t][j].size(), 1, j) for j in range(t + 1, q)
                     if not n.m[t][j].is_zero()]
            if line:
                _, side, k = min(line)
                op, normalize = (col_op, col_normalize) if side else (row_op, row_normalize)
                pivot = n.m[t][t]
                e = n.m[t][k] if side else n.m[k][t]
                quot, rem = divmod(e, pivot)
                if rem.is_zero():
                    op("addmul", k, t, -quot)
                else:
                    op("mix", t, k, *bezout(pivot, e, quot, rem))
                    normalize(t)
                normalize(k)
                continue
            # pivot must divide the whole remaining submatrix; if not, pull
            # the offending row up and keep reducing (the next pass then
            # gcd-mixes the offending entry into the pivot)
            offender = None
            for i in range(t + 1, p):
                for j in range(t + 1, q):
                    if not n.m[t][t].divides(n.m[i][j]):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op("addmul", t, offender, POLY_ONE)
        t += 1

    alphas, betas = [], []
    for i in range(t):
        fn = RationalFn(n.m[i][i], d)
        lc = fn.num.leading()
        if lc != GR_ONE:
            row_op("scale", i, GR_ONE / lc)
        alphas.append(fn.num.monic())
        betas.append(fn.den)
    return SmithMcMillanForm(
        alphas=tuple(alphas),
        betas=tuple(betas),
        rank=t,
        shape=(p, q),
        left_ops=tuple(left_ops),
        right_ops=tuple(right_ops),
    )


# ---------------------------------------------------------------------------
# root extraction


_MAX_DEN = 10**6  # largest denominator tried for a rational root


def _limit_denominator(r):
    """(p, q), the ints of Fraction(r).limit_denominator(_MAX_DEN) for a
    float r: the same continued fraction, run on r.as_integer_ratio()."""
    n, d = r.as_integer_ratio()
    if d <= _MAX_DEN:
        return n, d
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > _MAX_DEN:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (_MAX_DEN - q0) // q1
    # p1/q1 is the nearer candidate when 2d(q0 + k q1) <= den, ties included
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _rationalize(z):
    xr, qr = _limit_denominator(z.real)
    xi, qi = _limit_denominator(z.imag)
    return _gr(xr * qi, xi * qr, qr * qi)


def polynomial_roots_exact_first(poly: Poly):
    """Roots of an exact polynomial: exact linear factors are split off by
    rationalizing numeric root estimates and verifying p(root) = 0 exactly;
    whatever remains is handed to a companion-matrix solve and flagged.
    One ``np.roots`` call per polynomial met, fed from ``horner_coeffs``:
    when no estimate is an exact root, the estimates of the last call are
    the numeric roots.

    Returns (exact_roots, numeric_roots) where exact_roots is a list of
    GaussianRational (with repetition) and numeric_roots a list of complex.
    """
    if poly.is_zero():
        raise ZeroDivisionError("zero polynomial has no well-defined roots")
    work = poly.monic()
    exact_roots = []
    estimates = ()
    while work.degree >= 1:
        estimates = np.roots(work.horner_coeffs())
        for z in estimates:
            cand = _rationalize(complex(z))
            if work(cand).is_zero():
                factor = Poly([-cand, 1])
                while factor.divides(work):
                    work = (work // factor).monic()
                    exact_roots.append(cand)
                break
        else:
            break
    numeric_roots = [complex(z) for z in estimates] if work.degree >= 1 else []
    return exact_roots, numeric_roots


def zeros_poles_from_smf(smf: SmithMcMillanForm, tol=1e-10):
    """(transmission zeros, poles) of the Smith-McMillan form, with
    multiplicity, as SpectrumReports tagged 'smf'."""
    zero_vals, zero_numeric = _roots_of_all(smf.alphas)
    pole_vals, pole_numeric = _roots_of_all(smf.betas)
    znotes = ("numeric-residual-roots",) if zero_numeric else ()
    pnotes = ("numeric-residual-roots",) if pole_numeric else ()
    zeros = SpectrumReport.from_values(zero_vals, tol=tol, method="smf", notes=znotes)
    poles = SpectrumReport.from_values(pole_vals, tol=tol, method="smf", notes=pnotes)
    return zeros, poles


def _roots_of_all(polys):
    vals = []
    any_numeric = False
    for p in polys:
        if p.is_constant():
            continue
        exact, numeric = polynomial_roots_exact_first(p)
        vals.extend(complex(r) for r in exact)
        vals.extend(numeric)
        any_numeric = any_numeric or bool(numeric)
    return vals, any_numeric
