"""Multisets of complex numbers with multiplicities and method provenance.

Every pole/zero/eigenvalue computation in the package returns a
SpectrumReport so that results from different methods can be compared as
multisets under a single clustering rule: two computed values are "equal"
when |a - b| <= tol * max(1, |a|).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

__all__ = ["SpectrumReport", "cluster_values", "multiset_match"]


def _abs(z):
    """|z| elementwise, bit for bit equal to Python's abs(complex): both are
    the C library's hypot, which np.abs on complex arrays is not.  A modulus
    beyond the float range is inf, where abs(complex) raises."""
    with np.errstate(over="ignore"):
        return np.hypot(z.real, z.imag)


def _distances(a, b):
    """|a_i - b_j| for every pair, inf where it is beyond the float range."""
    with np.errstate(over="ignore"):
        return _abs(np.subtract.outer(a, b))


def cluster_values(values, tol):
    """Group values into clusters under the relative-tolerance rule.

    Returns a list of (representative, multiplicity) sorted by
    (real, imag) of the representative; the representative is the mean of
    the cluster members.

    Values are visited in (real, imag) order and each joins the first
    cluster, in creation order, whose current mean rep satisfies
    |v - rep| <= tol * max(1, |rep|, |v|), or starts a new one.  When no
    two finite values satisfy the rule with each other, every value is its
    own cluster, which one comparison of all pairs settles; only spectra
    with a close pair run the greedy loop.
    """
    vals = sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))
    arr = np.array(vals, dtype=complex)
    if np.isfinite(arr).all() and not _has_close_pair(arr, tol):
        clusters = [[v] for v in vals]
    else:
        clusters = []
        for v in vals:
            for members in clusters:
                rep = sum(members) / len(members)
                limit = tol * max(1.0, abs(rep), abs(v))
                if abs(v - rep) <= limit:
                    members.append(v)
                    break
            else:
                clusters.append([v])
    out = [(sum(c) / len(c), len(c)) for c in clusters]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def _has_close_pair(arr, tol):
    """Whether two distinct entries satisfy the clustering rule."""
    size = _abs(arr)
    limit = tol * np.fmax(np.fmax(1.0, size)[:, None], size)
    close = _distances(arr, arr) <= limit
    return bool(np.triu(close, 1).any())


def multiset_match(avals, bvals, tol):
    """Optimal pairing of two complex lists; None if sizes differ or some
    matched pair exceeds tol * max(1, |a|).

    The pairing minimizes the summed distance |a - b|.  When some a has no
    b within its tolerance tol * max(1, |a|), every pairing exceeds it, so
    the answer is None.  When every a has exactly one b within tolerance
    and those b are distinct, that pairing is the unique optimum: any other
    pairing moves at least two rows, each onto a b beyond its tolerance
    and so farther than its forced partner.  Only the remaining, ambiguous
    case runs a minimum-cost assignment (scipy), which pairs clustered
    numeric roots robustly.  Non-finite values raise NumericalError.
    """
    a = [complex(v) for v in avals]
    b = [complex(v) for v in bvals]
    if len(a) != len(b):
        return None
    if not a:
        return []
    av, bv = np.array(a), np.array(b)
    if not (np.isfinite(av).all() and np.isfinite(bv).all()):
        raise NumericalError("cannot match spectra with non-finite values")
    cost = _distances(av, bv)
    row_tol = tol * np.fmax(1.0, _abs(av))
    near = cost <= row_tol[:, None]
    partners = near.sum(axis=1)
    if not partners.all():
        return None
    cols = near.argmax(axis=1)
    if (partners == 1).all() and len(set(cols.tolist())) == len(a):
        return [(a[i], b[j]) for i, j in enumerate(cols.tolist())]
    # imported here so that import lqsys does not load scipy
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    pairs = []
    for i, j in zip(rows, cols):
        if cost[i, j] > row_tol[i]:
            return None
        pairs.append((a[i], b[j]))
    return pairs


@dataclass(frozen=True)
class SpectrumReport:
    """A multiset of complex values (with multiplicities), the clustering
    tolerance used, and a tag naming the method that produced it."""

    values: tuple  # of (complex, int)
    tol: float
    method: str
    notes: tuple = field(default_factory=tuple)

    @classmethod
    def from_values(cls, raw, tol, method, notes=()):
        clustered = tuple(cluster_values(raw, tol))
        return cls(values=clustered, tol=tol, method=method, notes=tuple(notes))

    def expand(self):
        """Flat list with each value repeated by its multiplicity."""
        out = []
        for v, m in self.values:
            out.extend([v] * m)
        return out

    @property
    def total(self):
        return sum(m for _, m in self.values)

    def is_empty(self):
        return not self.values

    def matches(self, other, tol=None):
        """Multiset equality against another report (or raw list) at tol."""
        t = tol if tol is not None else max(self.tol, getattr(other, "tol", 0.0))
        ovals = other.expand() if isinstance(other, SpectrumReport) else list(other)
        return multiset_match(self.expand(), ovals, t) is not None

    def mirrored(self):
        """The multiset {-conj(v)} with the same multiplicities."""
        vals = tuple(
            sorted(
                ((-v.conjugate(), m) for v, m in self.values),
                key=lambda t: (t[0].real, t[0].imag),
            )
        )
        return SpectrumReport(
            values=vals, tol=self.tol, method=self.method + "+mirror", notes=self.notes
        )

    def to_dict(self):
        return {
            "method": self.method,
            "tol": self.tol,
            "values": [
                {"value": format_complex(v, 17), "multiplicity": m}
                for v, m in self.values
            ],
            "notes": list(self.notes),
        }

    def __str__(self):
        if not self.values:
            return "(empty)"
        parts = []
        for v, m in self.values:
            s = format_complex(v)
            parts.append(s if m == 1 else f"{s} (x{m})")
        return ", ".join(parts)


def format_complex(z, digits=12):
    """Render a complex number as 'a+bi' with trailing-zero trimming."""
    z = complex(z)
    re = f"{z.real:.{digits}g}"
    im = f"{abs(z.imag):.{digits}g}"
    if im == "0":
        return re
    sign = "+" if z.imag >= 0 else "-"
    if re == "0" or re == "-0":
        return f"{sign if sign == '-' else ''}{im}i"
    return f"{re}{sign}{im}i"
