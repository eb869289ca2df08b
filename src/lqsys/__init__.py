"""lqsys: zeros, poles, invertibility and coherent feedback for linear
quantum systems.

The package computes state-space models from physical parameters, checks
physical realizability, finds invariant zeros by independent methods
(Rosenbrock pencil vs. the flat-adjoint shortcut vs. the Kalman
observable/unobservable split), computes poles and transmission zeros
exactly through the Smith-McMillan form over the Gaussian rationals,
classifies asymptotic strong left invertibility, and analyzes SISO
coherent feedback networks for squeezing and its sensitivity cost.
"""

import importlib as _importlib

from .errors import (
    DegenerateNetworkError,
    DimensionError,
    ExactnessError,
    HiddenModeConditionError,
    LqsysError,
    NumericalError,
    ParameterError,
    PoleEvaluationError,
    RealizabilityError,
    SpecFileError,
    SubspaceToleranceError,
    SynthesisError,
    UnsolvableError,
)


# Every layer but errors loads on first use of one of its names (PEP 562),
# so that a caller pays, in import time and memory, only for the layers it
# uses: ``import lqsys`` loads neither numpy nor a single layer.
_LAZY = {
    "feedback": (
        "AlphaSolution",
        "Beamsplitter",
        "FeedbackNetwork",
        "QuadPlantParams",
        "check_quadrature_duality",
        "closed_loop",
        "frequency_sweep",
        "matched_controller",
        "quadrature_transfer",
        "sensitivity",
        "sensitivity_functions",
        "solve_alpha_for_squeezing",
        "squeezing_residual",
        "synthesize_matched_controller",
        "unit_controller",
        "unit_controller_alpha_formula",
    ),
    "invertibility": (
        "InvertibilityReport",
        "classify_left_invertibility",
        "inversion_witness",
    ),
    "kalman": (
        "HiddenModeReport",
        "KalmanReport",
        "check_imaginary_hidden_modes",
        "invariant_zeros_via_kalman",
        "kalman_decompose",
        "minimal_realization",
    ),
    "linalg": (
        "doubled_up",
        "eigenvalues",
        "flat_adjoint",
        "is_doubled_up",
        "rank_at_tolerance",
        "sharp_adjoint",
        "signature_j",
        "split_doubled_up",
        "symplectic_j",
    ),
    "model": (
        "QSystemParams",
        "StateSpace",
        "build_state_space",
        "check_physical_realizability",
        "degenerate_parametric_amplifier",
        "frequency_response",
        "gain_system",
        "passive_cavity",
        "random_params",
        "random_system",
        "to_quadrature",
        "verify_inverse_identity",
        "with_lossless_modes",
    ),
    "rational": (
        "GaussianRational",
        "Poly",
        "RationalFn",
    ),
    "smith": (
        "RationalMatrix",
        "SmithMcMillanForm",
        "apply_operations",
        "smith_mcmillan",
        "transfer_matrix_exact",
        "zeros_poles_from_smf",
    ),
    "spectra": (
        "SpectrumReport",
    ),
    "zeros": (
        "MirrorReport",
        "RosenbrockPencil",
        "ZeroDirections",
        "det_zero_test",
        "invariant_zeros_flat",
        "invariant_zeros_pencil",
        "normalrank",
        "poles",
        "transmission_zeros",
        "verify_det_identity",
        "verify_pole_zero_mirror",
        "zero_directions",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
__all__ = [name for name in globals() if not name.startswith("_")] + [*_LAZY, *_HOME]


def __getattr__(name):
    """The public name ``name`` of a layer, or the layer itself,
    imported on first use and kept in this namespace."""
    if name in _LAZY:
        return _importlib.import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_HOME})


__version__ = "0.1.0"
