"""Left-invertibility classification for linear quantum systems.

A quantum transfer matrix always has the inverse G(-conj(s))^b, but that
inverse is unstable whenever G is stable.  The sharper question is
asymptotic strong left invertibility: does y = 0 force the input to decay?
For a physically realizable system whose hidden modes are all purely
imaginary, the answer is a pure eigenvalue test: the system is
asymptotically strongly left invertible exactly when every observable
eigenvalue lies in the open right half plane.  The a.s. and a.s.-star
variants coincide for these systems, and the report carries both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HiddenModeConditionError
from .kalman import HiddenModeReport, check_imaginary_hidden_modes, kalman_decompose
from .model import (
    InverseIdentityReport,
    StateSpace,
    require_physical_realizability,
    verify_inverse_identity,
)
from .spectra import SpectrumReport
from .zeros import transmission_zeros

__all__ = [
    "InvertibilityReport",
    "classify_left_invertibility",
    "InversionWitness",
    "inversion_witness",
]


@dataclass(frozen=True)
class InvertibilityReport:
    """Classification outcome.

    ``as_left_invertible`` is None when some observable eigenvalue sits
    within the tolerance margin of the imaginary axis (the criterion is an
    open-half-plane condition, so the boundary is reported honestly
    instead of being forced to a boolean).  The a.s.-star verdict always
    equals the a.s. one.  Plain strong left invertibility has no
    eigenvalue criterion here and is reported as not classified.
    """

    as_left_invertible: bool | None
    verdict: str
    observable_eigenvalues: SpectrumReport
    margins: tuple
    hidden_modes: HiddenModeReport
    tol: float
    s_left_invertible: None = None

    @property
    def as_star_left_invertible(self):
        return self.as_left_invertible

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "as_left_invertible": self.as_left_invertible,
            "as_star_left_invertible": self.as_star_left_invertible,
            "s_left_invertible": "not classified",
            "observable_eigenvalues": self.observable_eigenvalues.to_dict(),
            "margins": list(self.margins),
            "tol": self.tol,
        }


def classify_left_invertibility(ss: StateSpace, tol=1e-8) -> InvertibilityReport:
    """Classify asymptotic strong left invertibility by the observable
    eigenvalue half-plane test.

    Requires physical realizability and the purely-imaginary hidden-mode
    condition (the criterion is provably wrong without it: a realizable
    system with hidden modes at -1 and +1 can pass the eigenvalue test
    yet admit an exponentially growing input with zero output).
    """
    require_physical_realizability(ss, "left-invertibility classification")
    kal = kalman_decompose(ss, min(tol, 1e-9))
    hm = check_imaginary_hidden_modes(ss, min(tol, 1e-9), real_part_tol=tol)
    if not hm.holds:
        raise HiddenModeConditionError(hm.offending)
    observable = kal.eig_observable
    margins = tuple(float(v.real) for v in observable.expand())
    if any(abs(mg) <= tol for mg in margins):
        verdict = "indeterminate-at-tolerance"
        flag = None
    elif all(mg > tol for mg in margins):
        verdict = "as-left-invertible"
        flag = True
    else:
        verdict = "not-as-left-invertible"
        flag = False
    return InvertibilityReport(
        as_left_invertible=flag,
        verdict=verdict,
        observable_eigenvalues=observable,
        margins=margins,
        hidden_modes=hm,
        tol=tol,
    )


@dataclass(frozen=True)
class InversionWitness(InverseIdentityReport):
    """Pointwise witness that G(-conj(s))^b composes with G(s) to the
    identity, plus the inverse's pole locations (the mirrored zeros)."""

    inverse_poles: SpectrumReport

    def to_dict(self):
        return {**super().to_dict(), "inverse_poles": self.inverse_poles.to_dict()}


def inversion_witness(ss: StateSpace, s_samples, tol=1e-9) -> InversionWitness:
    """Evaluate the inverse system response pointwise and confirm the
    composition is the identity; samples at poles of either factor are
    skipped with a note."""
    rep = verify_inverse_identity(ss, s_samples, tol)
    zeros_rep = transmission_zeros(ss, min(tol, 1e-9))
    return InversionWitness(**vars(rep), inverse_poles=zeros_rep.mirrored())
