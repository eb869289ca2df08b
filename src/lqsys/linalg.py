"""Dense complex linear algebra with the doubled-up block structure.

All quantum system matrices in this package are built from blocks U, V as

    [[U, V], [conj(V), conj(U)]]

("doubled up"), and the two adjoints that respect this pairing:

* the flat adjoint  X^b = J_r X^H J_k  with  J_k = diag(I_k, -I_k)
  for complex matrices in the annihilation-creation representation, and
* the sharp adjoint X^# = JJ_r X^T JJ_k^T  with  JJ_k = [[0, I_k], [-I_k, 0]]
  for real matrices in the quadrature representation.

The package's one rank rule is ``svd_rank``: a singular value counts
when it exceeds tol * max(floor, s1), s1 the largest.  Floor 0 is
scale-free, for range and null-space bases, where only the ratio to s1
matters.  Floor 1 decides whether D, G(s0) or P(s0) is singular: their
entries have a unit scale (D is unitary for a quantum system), so
singular values that are all below tol count as zero.

``svd_rank`` completes only the factor its caller reads: ``range_basis``
reads the economy u, whose min(r, c) columns span the column space, and
``null_space_basis`` a complete c x c vh, economy unless m is wide.

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
    "adjoint",
    "flat_adjoint",
    "sharp_adjoint",
    "frozen_eigvals",
    "eigenvalues",
    "svd_rank",
    "rank_at_tolerance",
    "range_basis",
    "null_space_basis",
    "frobenius",
]


def as_matrix(x):
    """Coerce to a finite 2-D complex ndarray, rejecting NaN/Inf entries."""
    m = np.atleast_2d(np.asarray(x, dtype=complex))
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ParameterError("matrix entries must be finite (no NaN/Inf)")
    return m


def _require_even(m):
    r, c = m.shape
    if r % 2 or c % 2:
        raise DimensionError(f"matrix must have even dimensions, got {r}x{c}")
    return r // 2, c // 2


def _exact_or_matrix(x):
    """x itself when it is a numpy object array of exact scalars, else
    ``as_matrix(x)``."""
    if isinstance(x, np.ndarray) and x.dtype == object:
        return x
    return as_matrix(x)


def doubled_up(u, v):
    """Assemble [[U, V], [conj(V), conj(U)]] from k x r blocks U and V:
    complex, or exact when both blocks are numpy object arrays of exact
    scalars (GaussianRational), which are assembled as they are."""
    u = _exact_or_matrix(u)
    v = _exact_or_matrix(v)
    if u.shape != v.shape:
        raise DimensionError(f"blocks differ in shape: {u.shape} vs {v.shape}")
    return np.vstack([np.hstack([u, v]), np.hstack([v, u]).conj()])


def split_doubled_up(x):
    """Return the (U, V) blocks of a 2k x 2r matrix (no structure check)."""
    x = as_matrix(x)
    k, r = _require_even(x)
    return x[:k, :r].copy(), x[:k, r:].copy()


def is_doubled_up(x, tol=1e-12):
    """True when the lower block row equals the conjugate of the upper one:
    within tol relative to the Frobenius norm, or exactly, with tol unread,
    for a numpy object array of exact scalars."""
    x = _exact_or_matrix(x)
    k, r = _require_even(x)
    u, v = x[:k, :r], x[:k, r:]
    lower = np.block([v.conj(), u.conj()])
    if x.dtype == object:
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


def adjoint(x, representation):
    """J_r X^H J_k^T for X of shape 2k x 2r: the flat adjoint, J = signature_j,
    in the annihilation representation, and the sharp adjoint, J =
    symplectic_j, in quadrature.  Each product with J is exact."""
    k, r = _require_even(x)
    j = signature_j if representation == "annihilation" else symplectic_j
    return j(r) @ x.conj().T @ j(k).T


def flat_adjoint(x):
    """J_r X^H J_k for X of shape 2k x 2r.

    Involutive, and (XY)^b = Y^b X^b on conformable even-sized matrices.
    """
    return adjoint(as_matrix(x), "annihilation")


def sharp_adjoint(x):
    """JJ_r X^T JJ_k^T for a real X of shape 2k x 2r.

    The quadrature-representation counterpart of the flat adjoint: if
    Xq = V X V^H with the quadrature-change unitary V, then
    Xq^# = V X^b V^H.
    """
    x = np.atleast_2d(np.asarray(x))
    if np.iscomplexobj(x) and np.max(np.abs(x.imag)) > 0:
        raise ParameterError("sharp adjoint is defined for real matrices")
    return adjoint(as_matrix(x).real, "quadrature")


def frobenius(x):
    """Frobenius norm, 0.0 for empty matrices and inf when the sum of
    squares leaves the float range."""
    with np.errstate(over="ignore"):  # the inf is the answer
        return float(np.linalg.norm(x))


def frozen_eigvals(mat):
    """Eigenvalues of a square array as a read-only array, the form in
    which spectra are memoized on a StateSpace.  This is the package's one
    dense eigenvalue call: a matrix with non-finite entries (an overflow
    upstream), an iteration that fails to converge or an eigenvalue whose
    modulus is beyond the float range raises NumericalError."""
    try:
        vals = np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"eigenvalue computation failed: {e}") from e
    with np.errstate(over="ignore"):
        if not np.isfinite(np.abs(vals)).all():
            raise NumericalError("eigenvalue computation failed: a modulus overflows")
    vals.setflags(write=False)
    return vals


def eigenvalues(m, tol=1e-9):
    """Eigenvalues of a square matrix as a clustered SpectrumReport.

    Multiplicities come from clustering at ``tol`` (two values are merged
    when their distance is within tol * max(1, |value|)).
    """
    from .spectra import SpectrumReport

    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"eigenvalues need a square matrix, got {m.shape}")
    return SpectrumReport.from_values(frozen_eigvals(m), tol=tol, method="dense")


def svd_rank(m, tol, floor, vectors):
    """(rank, u, sv, vh): the SVD of the r x c array m and its rank, the
    number of singular values above tol * max(floor, s1) (0 for an empty
    m); see the module docstring for the two floors.  m is decomposed as
    given, so a real array gives real factors.  ``vectors`` names the
    factor the caller reads: "u" gives the economy SVD, u with min(r, c)
    columns; "vh" gives a complete c x c vh, from the economy SVD when
    r >= c and from the full SVD only when m is wide; False gives the
    singular values alone, with u and vh None."""
    if vectors:
        r, c = m.shape
        u, sv, vh = np.linalg.svd(m, full_matrices=vectors == "vh" and r < c)
    else:
        u, sv, vh = None, np.linalg.svd(m, compute_uv=False), None
    rank = int(np.count_nonzero(sv > tol * max(floor, sv[0]))) if sv.size else 0
    return rank, u, sv, vh


def rank_at_tolerance(m, tol=1e-9):
    """Number of singular values above tol * (largest singular value)."""
    if tol <= 0:
        raise ParameterError("tolerance must be positive")
    return svd_rank(as_matrix(m), tol, floor=0, vectors=False)[0]


def range_basis(m, tol):
    """Orthonormal basis (columns) of the numerical column space of the
    array m, real when m is."""
    rank, u, _, _ = svd_rank(m, tol, floor=0, vectors="u")
    return u[:, :rank]


def null_space_basis(m, tol=1e-9):
    """Orthonormal basis (columns) of the numerical null space of the
    array m, real when m is."""
    rank, _, _, vh = svd_rank(m, tol, floor=0, vectors="vh")
    return vh[rank:].conj().T
