"""Dense complex linear algebra with the doubled-up block structure.

All quantum system matrices in this package are built from blocks U, V as

    [[U, V], [conj(V), conj(U)]]

("doubled up"), and the two adjoints that respect this pairing:

* the flat adjoint  X^b = J_r X^H J_k  with  J_k = diag(I_k, -I_k)
  for complex matrices in the annihilation-creation representation, and
* the sharp adjoint X^# = JJ_r X^T JJ_k^T  with  JJ_k = [[0, I_k], [-I_k, 0]]
  for real matrices in the quadrature representation.

Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError

__all__ = [
    "as_matrix",
    "doubled_up",
    "split_doubled_up",
    "is_doubled_up",
    "signature_j",
    "symplectic_j",
    "flat_adjoint",
    "sharp_adjoint",
    "frozen_eigvals",
    "eigenvalues",
    "rank_at_tolerance",
    "null_space_basis",
    "frobenius",
]


def as_matrix(x, *, allow_empty=True):
    """Coerce to a finite 2-D complex ndarray, rejecting NaN/Inf entries."""
    m = np.atleast_2d(np.asarray(x, dtype=complex))
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ParameterError("matrix entries must be finite (no NaN/Inf)")
    if not allow_empty and m.size == 0:
        raise DimensionError("empty matrix not allowed here")
    return m


def _require_even(m, what="matrix"):
    r, c = m.shape
    if r % 2 or c % 2:
        raise DimensionError(f"{what} must have even dimensions, got {r}x{c}")
    return r // 2, c // 2


def doubled_up(u, v):
    """Assemble [[U, V], [conj(V), conj(U)]] from k x r blocks U and V."""
    u = as_matrix(u)
    v = as_matrix(v)
    if u.shape != v.shape:
        raise DimensionError(f"blocks differ in shape: {u.shape} vs {v.shape}")
    return np.block([[u, v], [v.conj(), u.conj()]])


def split_doubled_up(x):
    """Return the (U, V) blocks of a 2k x 2r matrix (no structure check)."""
    x = as_matrix(x)
    k, r = _require_even(x)
    return x[:k, :r].copy(), x[:k, r:].copy()


def is_doubled_up(x, tol=1e-12):
    """True when the lower block row equals the conjugate of the upper one:
    within tol relative to the Frobenius norm, or exactly, with tol unread,
    for a numpy object array of exact scalars."""
    exact = isinstance(x, np.ndarray) and x.dtype == object
    if not exact:
        x = as_matrix(x)
    k, r = _require_even(x)
    u, v = x[:k, :r], x[:k, r:]
    lower = np.block([v.conj(), u.conj()])
    if exact:
        return bool((x[k:, :] == lower).all())
    scale = max(1.0, frobenius(x))
    return frobenius(x[k:, :] - lower) <= tol * scale


def signature_j(k):
    """J_k = diag(I_k, -I_k)."""
    if k < 0:
        raise DimensionError("block size must be nonnegative")
    return np.diag(np.concatenate([np.ones(k), -np.ones(k)])).astype(complex)


def symplectic_j(k):
    """JJ_k = [[0, I_k], [-I_k, 0]] (real antisymmetric, squares to -I)."""
    if k < 0:
        raise DimensionError("block size must be nonnegative")
    z = np.zeros((k, k))
    i = np.eye(k)
    return np.block([[z, i], [-i, z]])


def flat_adjoint(x):
    """J_r X^H J_k for X of shape 2k x 2r.

    Involutive, and (XY)^b = Y^b X^b on conformable even-sized matrices.
    """
    x = as_matrix(x)
    k, r = _require_even(x)
    return signature_j(r) @ x.conj().T @ signature_j(k)


def sharp_adjoint(x):
    """JJ_r X^T JJ_k^T for a real X of shape 2k x 2r.

    The quadrature-representation counterpart of the flat adjoint: if
    Xq = V X V^H with the quadrature-change unitary V, then
    Xq^# = V X^b V^H.
    """
    x = np.atleast_2d(np.asarray(x))
    if np.iscomplexobj(x) and np.max(np.abs(x.imag)) > 0:
        raise ParameterError("sharp adjoint is defined for real matrices")
    x = as_matrix(x).real
    k, r = _require_even(x)
    return symplectic_j(r) @ x.T @ symplectic_j(k).T


def frobenius(x):
    """Frobenius norm, 0.0 for empty matrices."""
    x = np.asarray(x)
    return float(np.linalg.norm(x)) if x.size else 0.0


def frozen_eigvals(mat):
    """Eigenvalues of a square array as a read-only array, the form in
    which spectra are memoized on a StateSpace.  This is the package's one
    dense eigenvalue call: a matrix with non-finite entries (an overflow
    upstream) or an iteration that fails to converge raises
    NumericalError."""
    try:
        vals = np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"eigenvalue computation failed: {e}") from e
    vals.setflags(write=False)
    return vals


def eigenvalues(m, tol=1e-9, method="dense"):
    """Eigenvalues of a square matrix as a clustered SpectrumReport.

    Multiplicities come from clustering at ``tol`` (two values are merged
    when their distance is within tol * max(1, |value|)).
    """
    from .spectra import SpectrumReport

    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"eigenvalues need a square matrix, got {m.shape}")
    if m.shape[0] == 0:
        return SpectrumReport.from_values([], tol=tol, method=method)
    return SpectrumReport.from_values(frozen_eigvals(m), tol=tol, method=method)


def rank_at_tolerance(m, tol=1e-9):
    """Number of singular values above tol * (largest singular value)."""
    if tol <= 0:
        raise ParameterError("tolerance must be positive")
    m = as_matrix(m)
    if m.size == 0:
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > tol * sv[0]))


def null_space_basis(m, tol=1e-9):
    """Orthonormal basis (columns) of the numerical null space of m."""
    m = as_matrix(m)
    if m.size == 0:
        return np.eye(m.shape[1], dtype=complex)
    u, sv, vh = np.linalg.svd(m)
    cutoff = tol * (sv[0] if sv.size else 0.0)
    rank = int(np.count_nonzero(sv > cutoff))
    return vh[rank:].conj().T
