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
computed once per StateSpace and memoized on it, as are the realizability
residuals; clustering at ``tol`` and the realizability verdict run on
every call.  The det identity has one rule for exact and floating input,
the Schur determinant formula
det P(s) = (-1)^ns det D det(sI - (A - B D^-1 C)): floating systems read
it off the same two spectra, exact ones take charpoly(A - B D^-1 C) from
``exactlinalg.schur_complement``, which reads D^-1 off the last adjugate
term of charpoly(D).  It forms no adjoint in exact arithmetic:
A^b = J A^H J and A^# = JJ A^T JJ^T are similarities, because J^2 = I
and JJ is orthogonal, so det(sI + A^b) = det(sI + A^H), which is
charpoly(-A) with conjugated coefficients, and
det(sI + A^#) = det(sI + A^T) = charpoly(-A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactlinalg as xl
from .errors import DimensionError, NumericalError, ParameterError
from .kalman import minimal_realization
from .linalg import adjoint, frozen_eigvals, rank_at_tolerance, svd_rank
from .model import StateSpace, frequency_response, require_physical_realizability
from .rational import Poly
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
        p0 = np.block([[ss.A, ss.B], [ss.C, ss.D]]).astype(complex)
        e = np.zeros((ns + nf, ns + nf), dtype=complex)
        e[:ns, :ns] = np.eye(ns)
        return cls(p0=p0, e=e)

    def evaluate(self, s):
        # s goes where E holds 1: numpy's complex product s * E flags a
        # spurious overflow for s near the float range's end
        p = self.p0.copy()
        i = np.flatnonzero(self.e.diagonal())
        p[i, i] -= complex(s)
        return p

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
    None when D is singular.  An empty D (no fields) is invertible, with
    det D = 1, and then A - B D^-1 C = A."""

    def compute():
        d = ss.D.astype(complex)  # so that a quadrature A - B D^-1 C is complex too
        if svd_rank(d, 1e-10, floor=1, vectors=False)[0] < len(d):
            return None
        with np.errstate(over="ignore", invalid="ignore"):  # frozen_eigvals refuses inf, nan
            schur = ss.A - ss.B @ np.linalg.solve(d, ss.C)
        return frozen_eigvals(schur)

    return ss.memoized("schur_spectrum", compute)


def _adjoint_spectrum(ss: StateSpace):
    """eig(-A^b) (annihilation) or eig(-A^#) (quadrature) as a read-only
    array, computed once per system."""

    def compute():
        return frozen_eigvals(-adjoint(ss.A, ss.representation))

    return ss.memoized("adjoint_spectrum", compute)


def invariant_zeros_pencil(ss: StateSpace, tol=1e-9) -> SpectrumReport:
    """Invariant zeros as the finite eigenvalues of the Rosenbrock pencil.

    With invertible D the pencil reduces to the ordinary eigenproblem of
    the Schur complement A - B D^-1 C, which is exactly the feedthrough
    absorbing all infinite eigenvalues: the result is always a multiset of
    size equal to the state dimension.  A singular D (not a quantum
    system) degrades to a QZ solve of (P0, E) whose finite eigenvalues are
    confirmed by a rank sweep; the report is flagged accordingly.  A QZ
    solve that overflows, giving a non-finite eigenvalue pair, raises
    NumericalError.
    """
    vals = _schur_spectrum(ss)
    if vals is not None:
        return SpectrumReport.from_values(vals, tol=tol, method="pencil")

    # the QZ branch confirms eigenvalues by a rank sweep at tol, so it is
    # not memoized
    pencil = RosenbrockPencil.from_state_space(ss)
    import scipy.linalg  # here so that import lqsys does not load scipy

    # homogeneous pairs (alpha, beta): a non-finite one means QZ overflowed,
    # while beta = 0 marks an infinite eigenvalue, or with alpha = 0 the
    # indeterminate pair of a singular pencil; both are dropped, and the
    # rest divided as scipy divides them
    alpha, beta = scipy.linalg.eig(pencil.p0, pencil.e, right=False, homogeneous_eigvals=True)
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise NumericalError(
            "QZ of the Rosenbrock pencil overflowed: a generalized eigenvalue "
            "pair is not finite"
        )
    nonzero = beta != 0
    with np.errstate(over="ignore"):  # a quotient beyond the float range is dropped
        quotients = alpha[nonzero] / beta[nonzero]
    finite = [complex(z) for z in quotients if np.isfinite(z)]
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
    # P(s0) is square, so its economy SVD is the full one: u and vh are both complete
    rank, uu, sv, vh = svd_rank(pencil.evaluate(s0), tol, floor=1, vectors="vh")
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
    inner = min(tol, 1e-9)
    if isinstance(system, RationalMatrix):  # one reduction gives both
        zero_rep, pole_rep = zeros_poles_from_smf(smith_mcmillan(system), inner)
    else:
        pole_rep = poles(system, inner)
        zero_rep = transmission_zeros(system, inner)
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

    One rule serves exact and floating systems: with invertible D,
    det P(s) = unit * charpoly(A - B D^-1 C) with unit = (-1)^ns det D, and
    the monic charpoly(A - B D^-1 C) is compared with charpoly(-A^b).  The
    identity presumes an invertible D, so a singular D gives ``ok=False``
    with an empty ``det_pencil``.

    Exact systems are compared with ``==``.  ``exactlinalg.schur_complement``
    gives p = charpoly(D), so det D = (-1)^nf p(0), and A - B D^-1 C from
    the last adjugate term of p; the right side is (-1)^ns charpoly(A)(-s),
    with conjugated coefficients in the annihilation picture (see the
    module docstring for why no adjoint is formed).  Floating systems read
    both sides off the two memoized spectra and compare coefficientwise,
    max |l_k - r_k| <= tol * max(1, max |r_k|).  Coefficient tuples are
    lowest degree first.
    """
    ns = ss.state_dim
    if ss.is_exact:
        a, d = ss.exact["A"], ss.exact["D"]
        p, schur = xl.schur_complement(a, ss.exact["B"], ss.exact["C"], d)
        unit = p.coeffs[0] * (-1) ** (ns + len(d))
        lmon = None if schur is None else xl.charpoly(schur)[0]
        # charpoly(-A) = det(sI + A) = (-1)^ns charpoly(A)(-s)
        right = xl.charpoly(a)[0].compose_neg() * (-1) ** ns
        if ss.representation == "annihilation":
            right = right.conjugate()
        ok = lmon == right  # False for None
    else:
        right = np.poly(_adjoint_spectrum(ss))
        mu = _schur_spectrum(ss)
        lmon = None if mu is None else np.poly(mu)
        unit = (-1) ** ns * complex(np.linalg.det(ss.D))
        scale = max(1.0, float(np.max(np.abs(right))))
        ok = lmon is not None and bool(np.max(np.abs(lmon - right)) <= tol * scale)
    return DetIdentityReport(
        ok=ok,
        mode="exact" if ss.is_exact else "numeric",
        unit=complex(unit),
        det_pencil=() if lmon is None else _ascending(lmon * unit),
        det_adjoint=_ascending(right),
    )


def _ascending(p):
    """The coefficients of an exact Poly or of an np.poly array (highest
    degree first) as a tuple of complex, lowest degree first."""
    coeffs = p.horner_coeffs() if isinstance(p, Poly) else np.atleast_1d(p)
    return tuple(complex(z) for z in coeffs[::-1])
