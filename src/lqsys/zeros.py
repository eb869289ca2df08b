"""Invariant zeros, transmission zeros and poles, by independent methods.

Invariant zeros of a realization (A, B, C, D) are the points where the
Rosenbrock matrix

    P(s) = [[A - sI, B], [C, D]]

loses rank.  For systems with invertible feedthrough they are the
eigenvalues of A - B D^-1 C (the Schur complement of the pencil); for a
physically realizable system they are also the eigenvalues of -A^b (or
-A^# in quadrature), giving a second, independent computation that the
test suite plays against the first.  Transmission zeros and poles are
properties of the transfer matrix and are computed from the minimal
realization numerically, or from the Smith-McMillan form exactly.

The two floating-point spectra, eig(A - B D^-1 C) and eig(-A^b), are
computed once per StateSpace and memoized on it; clustering at ``tol``
and the realizability check run on every call.  The numeric det identity
is built from the same two spectra, because det P(s) = (-1)^ns det D
det(sI - (A - B D^-1 C)).

The exact det identity forms no adjoint.  A^b = J A^H J and A^# =
JJ A^T JJ^T are similarities, because J^2 = I and JJ is orthogonal, so
det(sI + A^b) = det(sI + A^H), which is charpoly(-A) with conjugated
coefficients, and det(sI + A^#) = det(sI + A^T) = charpoly(-A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactlinalg as xl
from .errors import DimensionError, NumericalError, ParameterError
from .kalman import minimal_realization
from .linalg import flat_adjoint, frozen_eigvals, rank_at_tolerance, sharp_adjoint, svd_rank
from .model import StateSpace, frequency_response, require_physical_realizability
from .rational import GR_ONE, Poly
from .smith import RationalMatrix, smith_mcmillan, zeros_poles_from_smf
from .spectra import SpectrumReport, format_complex, multiset_match

__all__ = [
    "RosenbrockPencil",
    "ZeroDirections",
    "invariant_zeros_pencil",
    "invariant_zeros_flat",
    "poles",
    "transmission_zeros",
    "det_zero_test",
    "zero_directions",
    "MirrorReport",
    "verify_pole_zero_mirror",
    "DetIdentityReport",
    "verify_det_identity",
    "normalrank",
]


@dataclass(frozen=True)
class RosenbrockPencil:
    """P(s) = P0 - s E with P0 = [[A, B], [C, D]] and E = [[I, 0], [0, 0]]."""

    p0: np.ndarray
    e: np.ndarray

    @classmethod
    def from_state_space(cls, ss: StateSpace):
        ns, nf = ss.state_dim, ss.field_dim
        p0 = np.block(
            [
                [ss.A.astype(complex), ss.B.astype(complex)],
                [ss.C.astype(complex), ss.D.astype(complex)],
            ]
        )
        e = np.zeros((ns + nf, ns + nf), dtype=complex)
        e[:ns, :ns] = np.eye(ns)
        return cls(p0=p0, e=e)

    def evaluate(self, s):
        return self.p0 - complex(s) * self.e

    @property
    def size(self):
        return self.p0.shape[0]


def normalrank(ss: StateSpace, tol=1e-9):
    """Normal rank of P(s): the maximum rank at two probe points (for open
    quantum systems this is always the full size, D being unitary)."""
    p = RosenbrockPencil.from_state_space(ss)
    return max(rank_at_tolerance(p.evaluate(s), tol) for s in (0.731 + 0.829j, 1.372 - 0.544j))


def _schur_spectrum(ss: StateSpace):
    """eig(A - B D^-1 C) as a read-only array, computed once per system;
    None when D is empty or singular."""

    def compute():
        d = ss.D.astype(complex)
        if not d.size or svd_rank(d, 1e-10, floor=1, vectors=False)[0] < len(d):
            return None
        with np.errstate(over="ignore", invalid="ignore"):  # frozen_eigvals refuses inf, nan
            schur = ss.A.astype(complex) - ss.B.astype(complex) @ np.linalg.solve(
                d, ss.C.astype(complex)
            )
        return frozen_eigvals(schur)

    return ss.memoized("schur_spectrum", compute)


def _adjoint_spectrum(ss: StateSpace):
    """eig(-A^b) (annihilation) or eig(-A^#) (quadrature) as a read-only
    array, computed once per system."""

    def compute():
        if ss.representation == "annihilation":
            neg_adj = -flat_adjoint(ss.A)
        else:
            neg_adj = -sharp_adjoint(ss.A.real)
        return frozen_eigvals(neg_adj)

    return ss.memoized("adjoint_spectrum", compute)


def invariant_zeros_pencil(ss: StateSpace, tol=1e-9) -> SpectrumReport:
    """Invariant zeros as the finite eigenvalues of the Rosenbrock pencil.

    With invertible D the pencil reduces to the ordinary eigenproblem of
    the Schur complement A - B D^-1 C, which is exactly the feedthrough
    absorbing all infinite eigenvalues: the result is always a multiset of
    size equal to the state dimension.  A singular D (not a quantum
    system) degrades to a QZ solve of (P0, E) whose finite eigenvalues are
    confirmed by a rank sweep; the report is flagged accordingly.
    """
    vals = _schur_spectrum(ss)
    if vals is not None:
        return SpectrumReport.from_values(vals, tol=tol, method="pencil")

    # the QZ branch confirms eigenvalues by a rank sweep at tol, so it is
    # not memoized
    pencil = RosenbrockPencil.from_state_space(ss)
    if pencil.size == 0:
        return SpectrumReport.from_values(
            [], tol=tol, method="pencil", notes=("singular-feedthrough",)
        )
    import scipy.linalg  # here so that import lqsys does not load scipy

    raw = scipy.linalg.eig(pencil.p0, pencil.e, right=False)
    finite = [complex(z) for z in raw if np.isfinite(z)]
    nrank = normalrank(ss, tol)
    confirmed = [
        z for z in finite if rank_at_tolerance(pencil.evaluate(z), tol) < nrank
    ]
    return SpectrumReport.from_values(
        confirmed,
        tol=tol,
        method="pencil",
        notes=("singular-feedthrough", "rank-sweep-confirmed"),
    )


def invariant_zeros_flat(ss: StateSpace, tol=1e-9) -> SpectrumReport:
    """Invariant zeros as the eigenvalues of -A^b (annihilation) or -A^#
    (quadrature).

    The identity behind this shortcut needs the physical-realizability
    constraints, so the computation refuses systems whose realizability
    residual exceeds 1e-8.
    """
    require_physical_realizability(ss, "flat-adjoint zero computation")
    return SpectrumReport.from_values(
        _adjoint_spectrum(ss), tol=tol, method="flat_adjoint"
    )


def poles(system, tol=1e-9) -> SpectrumReport:
    """Poles of the transfer matrix.

    For a StateSpace this is the eigenvalue multiset of the minimal
    realization's A (the pole polynomial of a minimal realization is its
    characteristic polynomial), read from the memoized Kalman minimal
    block and its memoized eigenvalues; for a RationalMatrix it is read
    off the Smith-McMillan denominators.
    """
    if isinstance(system, RationalMatrix):
        _, pole_rep = zeros_poles_from_smf(smith_mcmillan(system), tol)
        return pole_rep
    mini = minimal_realization(system, tol)
    return SpectrumReport.from_values(mini.eigenvalues(), tol=tol, method="minimal")


def transmission_zeros(system, tol=1e-9) -> SpectrumReport:
    """Transmission zeros: Smith-McMillan numerator roots (exact path), or
    the invariant zeros of the minimal realization (numeric path), which
    coincide for minimal realizations."""
    if isinstance(system, RationalMatrix):
        zero_rep, _ = zeros_poles_from_smf(smith_mcmillan(system), tol)
        return zero_rep
    mini = minimal_realization(system, tol)
    rep = invariant_zeros_pencil(mini, tol)
    return SpectrumReport(
        values=rep.values, tol=rep.tol, method="minimal", notes=rep.notes
    )


def det_zero_test(ss: StateSpace, s0, tol=1e-9) -> bool:
    """Determinant criterion: at a non-pole s0, s0 is a transmission zero
    iff det G(s0) = 0 (tested as a relative rank drop of G(s0)).

    Raises ParameterError when s0 is (within tolerance of) a pole, since
    the criterion's hypothesis excludes poles.
    """
    s0 = complex(s0)
    pole_rep = poles(ss, tol)
    for p, _ in pole_rep.values:
        if abs(s0 - p) <= max(tol, 1e-7) * max(1.0, abs(p)):
            raise ParameterError(
                f"det criterion needs a non-pole point, but {s0} is within "
                f"tolerance of the pole {p}"
            )
    mini = minimal_realization(ss, tol)
    g = frequency_response(mini, s0)
    return svd_rank(g, tol, floor=1, vectors=False)[0] < len(g)


@dataclass(frozen=True)
class ZeroDirections:
    """Right and left null directions of P(s0) at an invariant zero.

    A vanishing input component u flags s0 as an unobservable mode; a
    vanishing left input component v flags it as an uncontrollable mode.
    """

    s0: complex
    x: np.ndarray
    u: np.ndarray
    y: np.ndarray
    v: np.ndarray
    smallest_singular_value: float
    unobservable_mode: bool
    uncontrollable_mode: bool

    def to_dict(self):
        return {
            "s0": format_complex(self.s0, 17),
            "unobservable_mode": self.unobservable_mode,
            "uncontrollable_mode": self.uncontrollable_mode,
            "smallest_singular_value": self.smallest_singular_value,
        }


def zero_directions(ss: StateSpace, s0, tol=1e-8) -> ZeroDirections:
    """Unit-norm right/left null vectors of P(s0), split into state and
    field components, with hidden-mode flags."""
    s0 = complex(s0)
    pencil = RosenbrockPencil.from_state_space(ss)
    if pencil.size == 0:
        raise DimensionError("zero directions need a nonempty Rosenbrock matrix")
    rank, uu, sv, vh = svd_rank(pencil.evaluate(s0), tol, floor=1, vectors=True)
    smallest = float(sv[-1])
    if rank == len(sv):
        raise NumericalError(
            f"{s0} is not an invariant zero at tol {tol}: smallest singular "
            f"value of P(s0) is {smallest:.3e}"
        )
    right = vh[-1].conj()
    left = uu[:, -1].conj()
    ns = ss.state_dim
    x, u = right[:ns], right[ns:]
    y, v = left[:ns], left[ns:]
    return ZeroDirections(
        s0=s0,
        x=x,
        u=u,
        y=y,
        v=v,
        smallest_singular_value=smallest,
        unobservable_mode=bool(np.linalg.norm(u) <= tol),
        uncontrollable_mode=bool(np.linalg.norm(v) <= tol),
    )


@dataclass(frozen=True)
class MirrorReport:
    """Outcome of checking that the transmission zeros are exactly the
    negated conjugates of the poles (with multiplicity)."""

    passed: bool
    poles: SpectrumReport
    zeros: SpectrumReport
    expected_zeros: SpectrumReport
    pairs: tuple | None

    def to_dict(self):
        return {
            "passed": self.passed,
            "poles": self.poles.to_dict(),
            "zeros": self.zeros.to_dict(),
            "expected_zeros": self.expected_zeros.to_dict(),
        }


def verify_pole_zero_mirror(system, tol=1e-7) -> MirrorReport:
    """Check zeros(G) = {-conj(p) : p pole of G} as multisets.

    Holds unconditionally for physically realizable quantum systems;
    classical systems generally fail it (e.g. an integrator-like plant
    with a pole and no transmission zero).
    """
    pole_rep = poles(system, min(tol, 1e-9))
    zero_rep = transmission_zeros(system, min(tol, 1e-9))
    expected = pole_rep.mirrored()
    pairs = multiset_match(zero_rep.expand(), expected.expand(), tol)
    return MirrorReport(
        passed=pairs is not None,
        poles=pole_rep,
        zeros=zero_rep,
        expected_zeros=expected,
        pairs=tuple(pairs) if pairs is not None else None,
    )


@dataclass(frozen=True)
class DetIdentityReport:
    """Result of comparing det P(s) with det(sI + A^b) as polynomials."""

    ok: bool
    mode: str  # "exact" | "numeric"
    unit: complex
    det_pencil: tuple
    det_adjoint: tuple

    def to_dict(self):
        return {
            "ok": self.ok,
            "mode": self.mode,
            "unit": format_complex(self.unit, 17),
        }


def verify_det_identity(ss: StateSpace, tol=1e-9) -> DetIdentityReport:
    """Verify det P(s) = det(sI + A^b) (or the sharp analog) up to the
    constant det D, coefficientwise.

    Exact systems are checked exactly: the pencil determinant is obtained
    by evaluation/interpolation and the right side is charpoly(-A), with
    conjugated coefficients in the annihilation picture (see the module
    docstring for why no adjoint is formed); both are normalized monic and
    the dropped unit factor is reported.

    Floating systems are checked from the two memoized spectra, with no
    determinant sampled: with invertible D, det P(s) = (-1)^ns det D
    prod(s - mu) over mu in eig(A - B D^-1 C), and the right side is
    prod(s - nu) over nu in eig(-A^b).  The monic sides are compared
    coefficientwise, max |l_k - r_k| <= tol * max(1, max |r_k|), and
    ``unit`` is (-1)^ns det D.  The identity presumes an invertible D, so
    a singular D gives ``ok=False`` with an empty ``det_pencil``.
    Coefficient tuples are lowest degree first.
    """
    if ss.is_exact:
        a, b, c, d = (ss.exact[k] for k in ("A", "B", "C", "D"))
        ns = xl.shape(a)[0]
        nf = xl.shape(d)[0]
        p0 = xl.mat_block([[a, b], [c, d]])
        e = xl.mat_zeros(ns + nf, ns + nf)
        for i in range(ns):
            e[i][i] = GR_ONE
        left = xl.pencil_det(p0, e)
        right, _ = xl.charpoly([[-x for x in row] for row in a])
        if ss.representation == "annihilation":
            right = Poly([cc.conjugate() for cc in right.coeffs])
        unit = complex(left.leading()) if not left.is_zero() else 0.0
        ok = left.monic() == right and not left.is_zero()
        return DetIdentityReport(
            ok=ok,
            mode="exact",
            unit=unit,
            det_pencil=tuple(complex(cc) for cc in left.coeffs),
            det_adjoint=tuple(complex(cc) for cc in right.coeffs),
        )

    # both sides from the memoized spectra: det P(s) = (-1)^ns det D
    # charpoly(A - B D^-1 C) and det(sI + A^b) = charpoly(-A^b); the first
    # presumes an invertible D, so a singular one fails the identity
    right = np.poly(_adjoint_spectrum(ss))
    mu = _schur_spectrum(ss)
    lmon = None if mu is None else np.poly(mu)
    unit = (-1) ** ss.state_dim * complex(np.linalg.det(ss.D))
    scale = max(1.0, float(np.max(np.abs(right))))
    ok = lmon is not None and bool(np.max(np.abs(lmon - right)) <= tol * scale)
    return DetIdentityReport(
        ok=ok,
        mode="numeric",
        unit=unit,
        det_pencil=() if lmon is None else _ascending(unit * lmon),
        det_adjoint=_ascending(right),
    )


def _ascending(coeffs):
    """np.poly coefficients (highest degree first) as a tuple of complex,
    lowest degree first."""
    return tuple(complex(z) for z in np.atleast_1d(coeffs)[::-1])
