"""Multisets of complex numbers with multiplicities and method provenance.

Every pole/zero/eigenvalue computation in the package returns a
SpectrumReport so that results from different methods can be compared as
multisets under a single clustering rule: two computed values are "equal"
when |a - b| <= tol * max(1, |a|).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SpectrumReport", "cluster_values", "multiset_match"]


def cluster_values(values, tol):
    """Group values into clusters under the relative-tolerance rule.

    Returns a list of (representative, multiplicity) sorted by
    (real, imag) of the representative; the representative is the mean of
    the cluster members.
    """
    vals = sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))
    clusters: list[list[complex]] = []
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


def multiset_match(avals, bvals, tol):
    """Optimal pairing of two complex lists; None if sizes differ or some
    matched pair exceeds tol * max(1, |a|).

    Uses a minimum-cost assignment so that clustered numeric roots pair up
    robustly even when several values are close together.
    """
    a = [complex(v) for v in avals]
    b = [complex(v) for v in bvals]
    if len(a) != len(b):
        return None
    if not a:
        return []
    # imported here so that import lqsys does not load scipy
    from scipy.optimize import linear_sum_assignment

    cost = np.array([[abs(x - y) for y in b] for x in a])
    rows, cols = linear_sum_assignment(cost)
    pairs = []
    for i, j in zip(rows, cols):
        if cost[i, j] > tol * max(1.0, abs(a[i])):
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

    def imaginary_members(self, real_tol=1e-8):
        return [v for v, _ in self.values if abs(v.real) <= real_tol]

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
