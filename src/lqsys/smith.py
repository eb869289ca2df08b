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
    """Dense matrix of RationalFn entries, held as ``entries``, a read-only
    2-D numpy object array made from a 2-D array (which keeps a 0 x k
    shape) or from rows of RationalFn.of values.  Immutable; its numerator
    form (see ``_numerator``) is computed on first use and kept."""

    __slots__ = ("entries", "_numer")

    def __init__(self, entries):
        arr = np.array(entries, dtype=object)
        if arr.shape == (0,):  # no rows
            arr = arr.reshape(0, 0)
        if arr.ndim != 2:  # ragged rows make a 1-D array of lists
            raise DimensionError("a rational matrix needs equal rows")
        arr = np.frompyfunc(RationalFn.of, 1, 1)(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __setattr__(self, *_):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, k):
        return cls.diagonal([1] * k)

    @classmethod
    def diagonal(cls, diag, shape=None):
        """diag on the diagonal of a p x q zero matrix, square by default;
        entries beyond min(p, q) are dropped."""
        p, q = shape if shape is not None else (len(diag),) * 2
        out = np.full((p, q), RationalFn.of(0), dtype=object)
        for i, e in enumerate(list(diag)[: min(p, q)]):
            out[i, i] = e
        return cls(out)

    @property
    def shape(self):
        return self.entries.shape

    def __getitem__(self, idx):
        return self.entries[idx]

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.shape == other.shape and self.entries.tolist() == other.entries.tolist()

    def __hash__(self):
        return hash((self.shape, *self.entries.flat))

    def __matmul__(self, other):
        if self.shape[1] != other.shape[0]:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        # an empty sum comes out as the int 0, which the constructor reads
        return RationalMatrix(self.entries @ other.entries)

    def evaluate(self, s):
        """Numeric (or exact, for GaussianRational s) value of G(s), as an
        array of GaussianRational or of complex."""
        vals = np.frompyfunc(lambda e: e(s), 1, 1)(self.entries)
        return vals if isinstance(s, GaussianRational) else vals.astype(complex)

    def determinant(self):
        """Exact determinant over the rational-function field."""
        p, q = self.shape
        if p != q:
            raise DimensionError("determinant needs a square matrix")
        m = self.entries.tolist()
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
    """Exact transfer matrix D + C (sI - A)^-1 B of an exact system: each
    entry is the numerator from ``exactlinalg.transfer_numerators``
    (Faddeev-LeVerrier on Gaussian integers) over p(s) = det(sI - A),
    reduced."""
    if not ss.is_exact:
        raise ExactnessError(
            "transfer_matrix_exact needs exact entries; "
            "use frequency_response for floating systems"
        )
    p, n = xl.transfer_numerators(*(ss.exact[k] for k in ("A", "B", "C", "D")))
    return RationalMatrix(_over(n, p))


def _over(n, d):
    """The object array of RationalFn n_ij/d, for an object array n of Poly."""
    return np.frompyfunc(lambda x: RationalFn(x, d), 1, 1)(n)


# ---------------------------------------------------------------------------
# Smith / Smith-McMillan reduction


def _apply(n, op):
    """Apply the recorded operation op to the rows of n, an object array of
    Poly, in place; a column operation is the same call on the view n.T.
    The operations, as recorded in SmithMcMillanForm:

    - ("swap", i, j): exchange rows i and j;
    - ("addmul", dst, src, poly): row dst += poly * row src;
    - ("scale", i, c): row i *= c, a GaussianRational;
    - ("mix", i, j, a, b, c, d): (row i, row j) <- (a row i + b row j,
      c row i + d row j), a, b, c, d Poly with a d - b c a nonzero
      constant.
    """
    kind = op[0]
    if kind == "swap":
        _, i, j = op
        n[i], n[j] = n[j].tolist(), n[i].tolist()
    elif kind == "addmul":
        _, dst, src, poly = op
        n[dst] = [x + poly * y for x, y in zip(n[dst].tolist(), n[src].tolist())]
    elif kind == "scale":
        _, i, c = op
        n[i] = [x * c for x in n[i].tolist()]
    else:
        _, i, j, a, b, c, d = op
        ri, rj = n[i].tolist(), n[j].tolist()
        n[i] = [a * x + b * y for x, y in zip(ri, rj)]
        n[j] = [c * x + d * y for x, y in zip(ri, rj)]


def _numerator(g: RationalMatrix):
    """(N, d) with G = N/d: d the monic lcm of the entry denominators and
    N a fresh object array of the Poly d*G.  The lcm and the products are
    computed once per matrix and kept on it, so the reduction and every
    replay of the same G share them."""
    try:
        n, d = g._numer
    except AttributeError:
        d = POLY_ONE
        for e in g.entries.flat:
            if e.den != d:
                d = d.lcm(e.den)
        num = np.frompyfunc(lambda e: e.num if e.den == d else e.num * (d // e.den), 1, 1)
        n = num(g.entries)
        object.__setattr__(g, "_numer", (n, d))
    return n.copy(), d


@dataclass(frozen=True)
class SmithMcMillanForm:
    """Diagonal canonical form of a rational matrix under unimodular
    row/column operations, together with the operations themselves.

    ``left_ops`` / ``right_ops`` are the recorded elementary row/column
    operations, tuples described at ``_apply``, which applies both kinds;
    ``apply_operations(G, left_ops, right_ops)`` reproduces
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
    for view, ops in ((n, left_ops), (n.T, right_ops)):
        for op in ops:
            _apply(view, op)
    return RationalMatrix(_over(n, d))


def _smallest_pivot(n, t):
    """Position of the trailing block's nonzero entry of least degree, ties
    broken by least ``Poly.size``, then by (row, col)."""
    keys = [
        (e.degree, e.size(), i, j)
        for i, row in enumerate(n[t:].tolist(), t)
        for j, e in enumerate(row[t:], t)
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
    # side 0 works on rows (the view n), side 1 on columns (the view n.T);
    # ops[side] records its operations
    views, ops = (n, n.T), ([], [])

    def op(side, *o):
        _apply(views[side], o)
        ops[side].append(o)

    def normalize(side, k):
        c = content(views[side][k])
        if c is not None and c != 1:
            op(side, "scale", k, GaussianRational(1 / c))

    def bezout(pivot, e, quot, rem):
        """The 2x2 mix (a, b, c, d) with a*pivot + b*e = gcd(pivot, e) and
        c*pivot + d*e = 0.  The sweep already divided e by the pivot, so
        the gcd runs on (pivot, rem) and the pivot's cofactor is corrected
        by the quotient: a*pivot + b*rem = g gives (a - b*quot)*pivot +
        b*e = g, the same least-degree cofactors as a gcd on (pivot, e)."""
        g, a, b = pivot.ext_gcd(rem)
        return a - b * quot, b, -(e // g), pivot // g

    for i in range(p):
        normalize(0, i)

    t = 0
    while t < min(p, q):
        pos = _smallest_pivot(n, t)
        if pos is None:
            break
        for side in (0, 1):
            if pos[side] != t:
                op(side, "swap", t, pos[side])
        while True:
            # the nonzero entries left in the pivot's column (side 0) and
            # row (side 1); the smallest is cleared or mixed in next
            line = [(e.size(), side, k) for side in (0, 1)
                    for k, e in enumerate(views[side][t + 1:, t], t + 1) if not e.is_zero()]
            if line:
                _, side, k = min(line)
                pivot, e = n[t, t], views[side][k, t]
                quot, rem = divmod(e, pivot)
                if rem.is_zero():
                    op(side, "addmul", k, t, -quot)
                else:
                    op(side, "mix", t, k, *bezout(pivot, e, quot, rem))
                    normalize(side, t)
                normalize(side, k)
                continue
            # pivot must divide the whole remaining submatrix; if not, pull
            # the offending row up and keep reducing (the next pass then
            # gcd-mixes the offending entry into the pivot)
            pivot = n[t, t]
            offender = next((i for i, row in enumerate(n[t + 1:, t + 1:].tolist(), t + 1)
                             if not all(pivot.divides(e) for e in row)), None)
            if offender is None:
                break
            op(0, "addmul", t, offender, POLY_ONE)
        t += 1

    alphas, betas = [], []
    for i in range(t):
        fn = RationalFn(n[i, i], d)
        lc = fn.num.leading()
        if lc != GR_ONE:
            op(0, "scale", i, GR_ONE / lc)
        alphas.append(fn.num.monic())
        betas.append(fn.den)
    return SmithMcMillanForm(
        alphas=tuple(alphas),
        betas=tuple(betas),
        rank=t,
        shape=(p, q),
        left_ops=tuple(ops[0]),
        right_ops=tuple(ops[1]),
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
    return _roots_report(smf.alphas, tol), _roots_report(smf.betas, tol)


def _roots_report(polys, tol):
    """The roots of the polys, with multiplicity, as a SpectrumReport
    tagged 'smf' that notes numeric residual roots."""
    found = [polynomial_roots_exact_first(p) for p in polys if not p.is_constant()]
    vals = [complex(r) for exact, numeric in found for r in (*exact, *numeric)]
    notes = ("numeric-residual-roots",) if any(numeric for _, numeric in found) else ()
    return SpectrumReport.from_values(vals, tol=tol, method="smf", notes=notes)
