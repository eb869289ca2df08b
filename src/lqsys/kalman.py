"""Kalman decomposition: controllable/observable subspace splitting,
four-block eigenvalue classification, the purely-imaginary hidden-mode
condition, the Kalman-based invariant-zero formula, and minimal
realizations.

The state space is split along the controllable subspace Ctrb and the
unobservable subspace Unob into four invariant-compatible parts

    1: Ctrb & Unob   ("c obar")      3: ~Ctrb & Unob  ("cbar obar")
    2: Ctrb & Obs    ("co", minimal) 4: ~Ctrb & Obs   ("cbar o")

With a basis ordered (1, 2, 3, 4) the transformed A is block upper
triangular, so each block's eigenvalues are read off its diagonal block.
The bases are orthonormal per part (the overall transformation is
invertible but need not be unitary, which is fine: every contract here is
about eigenvalue sets, and those are similarity invariants).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    HiddenModeConditionError,
    NumericalError,
    SubspaceToleranceError,
)
from .linalg import frozen_eigvals, null_space_basis, range_basis, svd_rank
from .model import StateSpace, require_physical_realizability
from .spectra import SpectrumReport, format_complex

__all__ = [
    "KalmanReport",
    "HiddenModeReport",
    "kalman_decompose",
    "check_imaginary_hidden_modes",
    "invariant_zeros_via_kalman",
    "minimal_realization",
]


def _krylov(a, b):
    """[b, ab, ..., a^(ns-1) b]; FloatingPointError when a power overflows."""
    blocks = [b]
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        for _ in range(a.shape[0] - 1):
            blocks.append(a @ blocks[-1])
    krylov = np.hstack(blocks)
    if not np.isfinite(krylov).all():
        raise FloatingPointError("the Krylov matrix overflows")
    return krylov


def _intersect(q1, q2, tol):
    """Orthonormal basis of span(q1) & span(q2) via principal angles.

    Raises SubspaceToleranceError when a principal cosine sits in an
    ambiguous band around 1, since then the intersection dimension is not
    a stable function of the tolerance.  The re-based columns are
    orthonormal, so their rank takes floor 1.
    """
    _, u, sv, _ = svd_rank(q1.conj().T @ q2, tol, floor=1, vectors="u")
    near = sv >= 1 - 100 * tol
    ambiguous = (~near) & (sv >= 1 - max(1e-4, 1e4 * tol))
    if np.any(ambiguous):
        gap = float(1 - sv[np.argmax(ambiguous)])
        raise SubspaceToleranceError(
            "subspace intersection is ambiguous at this tolerance "
            f"(principal cosine within {gap:.2e} of 1); adjust tol",
            gap=gap,
        )
    rank, basis, _, _ = svd_rank(q1 @ u[:, near], tol, floor=1, vectors="u")
    return basis[:, :rank]


def _complement_within(q_sub, q_all, tol):
    """Orthonormal basis of span(q_all) orthogonal to span(q_sub), both
    orthonormal.  The projected columns are at most unit vectors, so the
    rank takes floor 1, as in ``_intersect``: a scale-free cut keeps the
    rounding residue of a column projected away when nothing else is left."""
    proj = q_all - q_sub @ (q_sub.conj().T @ q_all)
    rank, basis, _, _ = svd_rank(proj, tol, floor=1, vectors="u")
    return basis[:, :rank]


@dataclass(frozen=True)
class KalmanReport:
    eig_co: SpectrumReport
    eig_c_obar: SpectrumReport
    eig_cbar_o: SpectrumReport
    eig_cbar_obar: SpectrumReport
    transformation: np.ndarray
    block_dims: tuple
    minimal: StateSpace
    tol: float

    @property
    def eig_observable(self):
        return SpectrumReport.from_values(
            self.eig_co.expand() + self.eig_cbar_o.expand(),
            tol=self.tol,
            method="kalman",
        )

    @property
    def eig_unobservable(self):
        return SpectrumReport.from_values(
            self.eig_c_obar.expand() + self.eig_cbar_obar.expand(),
            tol=self.tol,
            method="kalman",
        )

    def to_dict(self):
        return {
            "block_dims": {
                "c_obar": self.block_dims[0],
                "co": self.block_dims[1],
                "cbar_obar": self.block_dims[2],
                "cbar_o": self.block_dims[3],
            },
            "eig_co": self.eig_co.to_dict(),
            "eig_c_obar": self.eig_c_obar.to_dict(),
            "eig_cbar_o": self.eig_cbar_o.to_dict(),
            "eig_cbar_obar": self.eig_cbar_obar.to_dict(),
        }


def kalman_decompose(ss: StateSpace, tol=1e-9) -> KalmanReport:
    """Four-block decomposition of (A, B, C) with orthonormal bases per
    block; works for any realization, quantum or classical.

    Quadrature systems are stored real, so they are processed in real
    arithmetic and the minimal block stays a real (quadrature) realization.

    The report is memoized on ``ss`` per ``tol``, so poles, transmission
    zeros, theorem zeros, the pole-zero mirror and the invertibility
    checks of one system share one decomposition; its arrays are
    read-only.  A SubspaceToleranceError is not memoized and is raised
    again on every call; so is the NumericalError raised when an SVD or
    solve does not converge or the Krylov matrix or the transformed system
    overflows, as on entries near the float range's end.
    """
    return ss.memoized(("kalman", tol), lambda: _decompose_checked(ss, tol))


def _decompose_checked(ss, tol):
    try:
        return _decompose(ss, tol)
    except (np.linalg.LinAlgError, FloatingPointError) as e:
        raise NumericalError(
            f"Kalman decomposition failed (state dim {ss.state_dim}, "
            f"largest |A| entry {np.abs(ss.A).max():.3g}): {e}"
        ) from e


def _decompose(ss, tol):
    a, b, c, ns = ss.A, ss.B, ss.C, ss.state_dim

    ctrb = range_basis(_krylov(a, b), tol)
    unob = null_space_basis(_krylov(a.conj().T, c.conj().T).conj().T, tol)

    x1 = _intersect(ctrb, unob, tol)  # controllable & unobservable
    x2 = _complement_within(x1, ctrb, tol)  # controllable & observable
    x3 = _complement_within(x1, unob, tol)  # uncontrollable & unobservable
    span123 = np.hstack([x1, x2, x3])
    x4 = null_space_basis(span123.conj().T, tol)

    dims = (x1.shape[1], x2.shape[1], x3.shape[1], x4.shape[1])
    if sum(dims) != ns:
        raise SubspaceToleranceError(
            f"block dimensions {dims} do not fill the state space "
            f"(dim {ns}); adjust tol"
        )
    t = np.hstack([x1, x2, x3, x4])
    t.setflags(write=False)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        a_t = np.linalg.solve(t, a @ t)
        b_t = np.linalg.solve(t, b)
        c_t = c @ t
    if not all(np.isfinite(x).all() for x in (a_t, b_t, c_t)):
        raise FloatingPointError("the transformed system overflows")

    edges = np.cumsum((0,) + dims)
    blocks = [
        a_t[edges[k] : edges[k + 1], edges[k] : edges[k + 1]] for k in range(4)
    ]
    s_co = slice(edges[1], edges[2])
    minimal = StateSpace(blocks[1], b_t[s_co, :], c_t[:, s_co], ss.D, ss.representation)
    # the co block's eigenvalues are the poles: taking them through the
    # minimal realization leaves them memoized where poles() reads them
    reps = [
        SpectrumReport.from_values(
            minimal.eigenvalues() if k == 1 else frozen_eigvals(blk),
            tol=tol,
            method="kalman",
        )
        for k, blk in enumerate(blocks)
    ]
    return KalmanReport(
        eig_c_obar=reps[0],
        eig_co=reps[1],
        eig_cbar_obar=reps[2],
        eig_cbar_o=reps[3],
        transformation=t,
        block_dims=dims,
        minimal=minimal,
        tol=tol,
    )


@dataclass(frozen=True)
class HiddenModeReport:
    """Result of checking that every hidden-mode eigenvalue (the
    controllable-unobservable, uncontrollable-observable and
    uncontrollable-unobservable blocks) is purely imaginary."""

    holds: bool
    offending: tuple
    real_part_tol: float

    def to_dict(self):
        return {
            "holds": self.holds,
            "offending": [format_complex(z, 17) for z in self.offending],
            "real_part_tol": self.real_part_tol,
        }


def check_imaginary_hidden_modes(
    ss: StateSpace, tol=1e-9, real_part_tol=1e-8
) -> HiddenModeReport:
    report = kalman_decompose(ss, tol)
    offending = []
    for rep in (report.eig_c_obar, report.eig_cbar_o, report.eig_cbar_obar):
        for v, mult in rep.values:
            if abs(v.real) > real_part_tol:
                offending.extend([v] * mult)
    return HiddenModeReport(
        holds=not offending,
        offending=tuple(offending),
        real_part_tol=real_part_tol,
    )


def invariant_zeros_via_kalman(ss: StateSpace, tol=1e-9):
    """Invariant zeros as {-conj(observable eigenvalues)} united with the
    unobservable eigenvalues.

    The formula rests on the physical-realizability structure and is only
    valid when all hidden modes are purely imaginary; either premise
    failing refuses the computation (a realizable system with a real
    hidden pair at -1 and +1 genuinely breaks the formula, and a classical
    system can satisfy the hidden-mode condition vacuously while its
    invariant zeros have nothing to do with mirrored eigenvalues).
    """
    require_physical_realizability(ss, "the observable/unobservable zero formula")
    kal = kalman_decompose(ss, tol)
    hm = check_imaginary_hidden_modes(ss, tol)
    if not hm.holds:
        raise HiddenModeConditionError(hm.offending)
    vals = [-v.conjugate() for v in kal.eig_observable.expand()]
    vals += kal.eig_unobservable.expand()
    return SpectrumReport.from_values(vals, tol=tol, method="kalman_theorem")


def minimal_realization(ss: StateSpace, tol=1e-9) -> StateSpace:
    """The controllable-and-observable block; same transfer matrix."""
    return kalman_decompose(ss, tol).minimal
