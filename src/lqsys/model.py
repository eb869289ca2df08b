"""State-space models of linear quantum systems.

A system with n internal modes and m input-output fields is specified by
the physical parameters (Omega_-, Omega_+, C_-, C_+); the complex-domain
quadruple is built as

    D = doubled_up(I, 0)
    C = doubled_up(C_-, C_+)
    B = -C^b D
    A = -i J_n Omega - (1/2) C^b C,   Omega = doubled_up(Omega_-, Omega_+)

which satisfies the physical-realizability identities by construction.
Models can live in the annihilation-creation representation (complex,
doubled-up) or the real quadrature representation obtained by conjugating
with the unitary V = (1/sqrt 2) [[I, I], [-iI, iI]].

When every parameter entry is an exact rational (int, Fraction, string or
GaussianRational), the construction is carried out exactly instead, and the
floating quadruple is the rounded exact one.  Each builder
(``build_state_space``, ``to_quadrature``, ``with_lossless_modes`` and
``random_params``) writes its formula once and applies it to complex
arrays or to numpy object arrays of GaussianRational; the input only
chooses the arrays.  Both model objects, ``QSystemParams`` and
``StateSpace``, read and check their matrices in one place when they are
made: an object is exact when all of its matrices are object arrays of
exact scalars, and its float fields are then their rounding, so a model
object holds one system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import exactlinalg as xl
from .errors import (
    DimensionError,
    NumericalError,
    ParameterError,
    PoleEvaluationError,
    RealizabilityError,
)
from .linalg import (
    adjoint,
    as_matrix,
    doubled_up,
    frobenius,
    frozen_eigvals,
    is_doubled_up,
)
from .rational import GR_ONE, GR_ZERO, GaussianRational
from .spectra import format_complex

__all__ = [
    "QSystemParams",
    "StateSpace",
    "build_state_space",
    "check_physical_realizability",
    "require_physical_realizability",
    "RealizabilityReport",
    "to_quadrature",
    "frequency_response",
    "dual_adjoint",
    "verify_inverse_identity",
    "InverseIdentityReport",
    "random_params",
    "random_system",
    "with_lossless_modes",
    "passive_cavity",
    "gain_system",
    "degenerate_parametric_amplifier",
]

_EXACT_SCALARS = (int, Fraction, GaussianRational, str)


def _ingest(mat):
    """Rows of entries (nested lists or an array) as the array a constructor
    reads, with [] as 0 x 0.  Entries are read as Python scalars, so ints
    count as exact."""
    if isinstance(mat, np.ndarray):
        mat = mat.tolist()
    arr = np.array(mat, dtype=object, ndmin=1)
    return arr.reshape(0, 0) if arr.shape == (0,) else arr


def _implied(arr, shape):
    """A block with no entries takes the implied ``shape`` when that has none
    either: a JSON row list writes a 0 x k matrix as [], read as 0 x 0."""
    return arr.reshape(shape) if not arr.size and 0 in shape else arr


def _read(obj, dims, real=False):
    """Read, check and store read-only the matrices of a model object, each
    named in ``dims`` with its (row, column) dimensions: 2-D and of agreeing
    sizes (else DimensionError), with numeric, finite entries (else
    ParameterError).  A matrix is exact when it is an object array of exact
    scalars (int, Fraction, "p/q" string, GaussianRational).  ``exact``
    holds GaussianRational copies if all are, else None; each field holds
    the complex copy, rounded if exact (NumericalError beyond the float
    range).  With ``real`` each matrix must be real, exactly if exact and
    else within 1e-12, and is stored as float64."""
    exact, sizes = {}, {}
    for name, names in dims.items():
        x = np.asarray(getattr(obj, name))
        if x.ndim != 2:
            raise DimensionError(f"{name} must be a matrix, got ndim={x.ndim}")
        for dim, k in zip(names, x.shape):
            first, size = sizes.setdefault(dim, (name, k))
            if k != size:
                raise DimensionError(
                    f"{name} is {x.shape[0]}x{x.shape[1]}, but {dim} = {size} (from {first})"
                )
        try:
            if x.dtype == object and all(isinstance(v, _EXACT_SCALARS) for v in x.flat):
                x = exact[name] = xl.exact_matrix(x)
            arr = xl.to_numpy(x)
        except (TypeError, ValueError, ZeroDivisionError) as e:
            raise ParameterError(f"{name}: cannot interpret entries ({e})") from e
        if name not in exact and not np.isfinite(arr).all():
            raise ParameterError(f"{name}: matrix entries must be finite (no NaN/Inf)")
        if real:
            if not ((x == x.conj()) if name in exact else (abs(arr.imag) <= 1e-12)).all():
                raise ParameterError(f"quadrature matrices must be real; {name} is not")
            arr = arr.real.copy()
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
    for x in exact.values():
        x.setflags(write=False)
    object.__setattr__(obj, "exact", exact if len(exact) == len(dims) else None)


@dataclass(frozen=True, eq=False)
class QSystemParams:
    """Physical parameters of an n-mode, m-field linear quantum system,
    read-only and checked when made: omega blocks n x n, coupling blocks
    m x n, omega_minus Hermitian and omega_plus symmetric so that the
    doubled-up Hamiltonian matrix is Hermitian (exactly for exact
    parameters, within 1e-12 relative for floats).  They are exact when all
    four blocks are object arrays of exact scalars: ``exact`` holds them,
    and the fields their rounding.  The scattering matrix is the identity.
    Equality and hashing go by identity.
    """

    omega_minus: np.ndarray
    omega_plus: np.ndarray
    c_minus: np.ndarray
    c_plus: np.ndarray
    exact: dict | None = field(default=None, init=False)

    def __post_init__(self):
        square, coupling = ("n", "n"), ("m", "n")
        _read(self, {"omega_minus": square, "omega_plus": square,
                     "c_minus": coupling, "c_plus": coupling})
        om, op = self.omega_minus, self.omega_plus
        if self.is_exact:
            om, op = self.exact["omega_minus"], self.exact["omega_plus"]
            hermitian = (om == om.conj().T).all()
            symmetric = (op == op.T).all()
        else:
            scale = max(1.0, frobenius(om), frobenius(op))
            hermitian = frobenius(om - om.conj().T) <= 1e-12 * scale
            symmetric = frobenius(op - op.T) <= 1e-12 * scale
        if not hermitian:
            raise ParameterError("omega_minus must be Hermitian")
        if not symmetric:
            raise ParameterError("omega_plus must be symmetric")

    @classmethod
    def create(cls, omega_minus, omega_plus, c_minus, c_plus):
        """Parameters from rows of entries, exact when every entry is exact;
        a coupling block with no entries takes the implied m x n shape."""
        om, op, cm, cp = map(_ingest, (omega_minus, omega_plus, c_minus, c_plus))
        shape = (max(cm.shape[0], cp.shape[0]), om.shape[0])
        return cls(om, op, _implied(cm, shape), _implied(cp, shape))

    @property
    def n(self):
        return self.omega_minus.shape[0]

    @property
    def m(self):
        return self.c_minus.shape[0]

    @property
    def is_exact(self):
        return self.exact is not None


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Quadruple (A, B, C, D) in either representation.

    Quantum models always have doubled (even) dimensions 2n x 2n etc.;
    derived realizations (e.g. the minimal block of a Kalman decomposition)
    may not, so evenness is enforced by the operations that need the
    doubled structure rather than here; A is ns x ns, B ns x nf, C nf x ns
    and D nf x nf, with finite entries.  The system is exact when all four
    are object arrays of exact scalars: ``exact`` holds them, and A, B, C,
    D their rounding.  ``dataclasses.replace`` gives a float system unless
    it is passed the exact matrices.

    The representation fixes the array form: A, B, C, D are complex128 in
    the annihilation representation and float64 in quadrature, whatever
    the input.  An unknown representation raises ParameterError, and so
    does a quadrature matrix that is not real: exactly for an exact
    matrix, beyond 1e-12 in an imaginary part (else dropped) for a float
    one.

    The four arrays, and the exact ones, are private read-only copies: the
    caller's arrays stay untouched, and writing into ``A``, ``B``, ``C``,
    ``D`` or an array of ``exact`` raises ValueError.  Because the matrices
    cannot change, results derived from them (the eigenvalues of A, the
    realizability residuals, the Kalman decomposition at each tolerance,
    and the Schur-complement and adjoint spectra of the zero computations)
    are computed once and memoized on the object, and live and die with it.
    Equality and hashing go by identity too, as the memo does.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    representation: str  # "annihilation" | "quadrature"
    exact: dict | None = field(default=None, init=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.representation not in ("annihilation", "quadrature"):
            raise ParameterError(f"unknown representation {self.representation!r}")
        dims = {"A": ("ns", "ns"), "B": ("ns", "nf"), "C": ("nf", "ns"), "D": ("nf", "nf")}
        _read(self, dims, real=self.representation == "quadrature")

    @classmethod
    def from_matrices(cls, A, B, C, D, representation="annihilation"):
        """A system from rows of entries, exact when every entry is exact; a
        B or C with no entries takes the shape that A and D imply."""
        a, b, c, d = map(_ingest, (A, B, C, D))
        ns, nf = a.shape[0], d.shape[0]
        return cls(a, _implied(b, (ns, nf)), _implied(c, (nf, ns)), d, representation)

    @property
    def state_dim(self):
        return self.A.shape[0]

    @property
    def field_dim(self):
        return self.D.shape[0]

    @property
    def n(self):
        return self.state_dim // 2

    @property
    def m(self):
        return self.field_dim // 2

    @property
    def is_exact(self):
        return self.exact is not None

    def memoized(self, key, compute):
        """``compute()``, run on the first call for ``key`` and then
        returned from this system's memo.  An exception is not stored, so
        it is raised again on every call."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def eigenvalues(self):
        """Eigenvalues of A as a read-only array, computed once."""

        return self.memoized("eigenvalues", lambda: frozen_eigvals(self.A))


def build_state_space(params: QSystemParams) -> StateSpace:
    """Construct the annihilation-representation quadruple from physical
    parameters; realizability identities hold by construction.

    One blockwise formula serves float and exact parameters, run on
    complex arrays or on numpy object arrays of GaussianRational.  With
    C^b = doubled_up(C_-^H, -C_+^T): C = doubled_up(C_-, C_+), D = I,
    B = -C^b = doubled_up(-C_-^H, C_+^T), and A is doubled up from its
    upper block row -i [Omega_-, Omega_+] - (1/2) [C_-^H, -C_+^T] C, so a
    float A is doubled up bit for bit.  Exact parameters only choose the
    input arrays: the exact matrices come out as object arrays, from which
    ``StateSpace`` makes an exact system with their rounded float copies.
    A float A that overflows, or an exact entry beyond the float range,
    raises NumericalError.
    """
    n, m = params.n, params.m
    keys = ("omega_minus", "omega_plus", "c_minus", "c_plus")
    om, op, cm, cp = (getattr(params, k) for k in keys)
    # scalars in the entries' own type: np.eye would put int 0 into an
    # object array, and -1j would be converted on every exact entry
    one, zero, minus_i = 1 + 0j, 0j, -1j
    if params.is_exact:
        om, op, cm, cp = (params.exact[k] for k in keys)
        one, zero, minus_i = GR_ONE, GR_ZERO, GaussianRational(0, -1)
    cm_h, cp_t = cm.conj().T, cp.T
    c = doubled_up(cm, cp)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        upper = np.hstack([om, op]) * minus_i - (np.hstack([cm_h, -cp_t]) @ c) / 2
    if not params.is_exact and not np.isfinite(upper).all():
        raise NumericalError("A overflows: the parameters are too large")
    return StateSpace(
        A=doubled_up(upper[:, :n], upper[:, n:]),
        B=doubled_up(-cm_h, cp_t),
        C=c,
        D=np.where(np.eye(2 * m, dtype=bool), one, zero),
        representation="annihilation",
    )


@dataclass(frozen=True)
class RealizabilityReport:
    representation: str
    residuals: dict
    tol: float

    @property
    def passed(self):
        return all(r <= self.tol for r in self.residuals.values())

    def to_dict(self):
        return {
            "representation": self.representation,
            "residuals": dict(self.residuals),
            "tol": self.tol,
            "passed": self.passed,
        }


def check_physical_realizability(ss: StateSpace, tol=1e-10) -> RealizabilityReport:
    """Residual Frobenius norms of the realizability identities.

    Annihilation: A + A^b + C^b C, B + C^b D, D^H D - I.
    Quadrature:   A + A^# + B B^#, B + C^# D, D^T D - I.

    The residuals are computed once per system and memoized on ``ss``;
    each call builds a fresh report, with its own residuals dict, at its
    own ``tol``.
    """
    residuals = ss.memoized("realizability", lambda: _realizability_residuals(ss))
    return RealizabilityReport(
        representation=ss.representation, residuals=dict(residuals), tol=tol
    )


def _realizability_residuals(ss):
    rep = ss.representation
    a, b, c, d = ss.A, ss.B, ss.C, ss.D
    c_adj = adjoint(c, rep)
    # residuals of huge entries overflow to inf or nan, which fail the check
    with np.errstate(over="ignore", invalid="ignore"):
        noise = c_adj @ c if rep == "annihilation" else b @ adjoint(b, rep)
        return {
            "drift": frobenius(a + adjoint(a, rep) + noise),
            "input": frobenius(b + c_adj @ d),
            "unitary_d": frobenius(d.conj().T @ d - np.eye(ss.field_dim)),
        }


def require_physical_realizability(ss: StateSpace, purpose):
    """Refuse, with RealizabilityError, a system whose realizability
    residuals exceed 1e-8; ``purpose`` names the computation that needs
    the identities and opens the message.  A residual that is not finite
    (overflow of huge entries) decides nothing and raises NumericalError."""
    rb = check_physical_realizability(ss, 1e-8)
    if not all(np.isfinite(r) for r in rb.residuals.values()):
        raise NumericalError(
            f"{purpose}: a realizability residual is not finite, {rb.residuals}"
        )
    if not rb.passed:
        raise RealizabilityError(
            f"{purpose} needs a physically realizable system; residuals "
            f"{rb.residuals} exceed {rb.tol}"
        )


def to_quadrature(ss: StateSpace) -> StateSpace:
    """Conjugate an annihilation-representation system with the quadrature
    unitary V; the result is real and shares the eigenvalues of A.

    On a doubled-up matrix the conjugation V X V^H reduces to

        [[U, W], [conj(W), conj(U)]]  ->  [[Re(U+W), -Im(U-W)],
                                           [Im(U+W),  Re(U-W)]]

    with Re z = (z + conj z)/2 and Im z = (z - conj z)/2i, which are exact
    on complex floats and on GaussianRational alike.  An exact system is
    converted on its exact matrices and stays exact; an exact result
    beyond the float range, or a float one that overflows, raises
    NumericalError.  The formula reads only the upper block row, so the
    input is checked first: an odd-sized matrix raises DimensionError, and
    one that is not doubled up (relative tolerance 1e-10 for floats,
    exactly for exact input) raises NumericalError.
    """
    if ss.representation != "annihilation":
        raise ParameterError("to_quadrature expects an annihilation system")
    mats = ss.exact if ss.is_exact else {"A": ss.A, "B": ss.B, "C": ss.C, "D": ss.D}
    for name, x in mats.items():
        if not is_doubled_up(x, 1e-10):
            raise NumericalError(
                f"quadrature conversion needs doubled-up matrices; {name} "
                "is not doubled-up"
            )
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        quad = {k: _quadrature_blocks(x) for k, x in mats.items()}
    for name, x in quad.items():
        if not ss.is_exact and not np.isfinite(x).all():
            raise NumericalError(f"{name} overflows: the entries are too large")
    return StateSpace(**quad, representation="quadrature")


def _quadrature_blocks(x):
    k, r = x.shape[0] // 2, x.shape[1] // 2
    plus = x[:k, :r] + x[:k, r:]
    minus = x[:k, :r] - x[:k, r:]
    re = lambda z: (z + np.conj(z)) / 2
    im = lambda z: (z - np.conj(z)) / 2j
    return np.block([[re(plus), -im(minus)], [im(plus), re(minus)]])


def frequency_response(ss: StateSpace, s):
    """D + C (sI - A)^-1 B via a linear solve (no explicit inverse).

    Raises PoleEvaluationError when s is within 1e-9 (relative) of an
    eigenvalue of A; the eigenvalues come from ``ss.eigenvalues()``, so a
    sweep over many points computes them once.
    """
    s = complex(s)
    if ss.state_dim:
        eigs = ss.eigenvalues()
        dist = np.abs(eigs - s)
        k = int(np.argmin(dist))
        if dist[k] <= 1e-9 * max(1.0, abs(eigs[k])):
            raise PoleEvaluationError(s, complex(eigs[k]))
    x = np.linalg.solve(s * np.eye(ss.state_dim) - ss.A, ss.B)
    return ss.D + ss.C @ x


def dual_adjoint(x, representation):
    """The representation-appropriate adjoint of a transfer-matrix value:
    J X^H J in the annihilation picture, JJ X^H JJ^T in quadrature."""
    x = as_matrix(x)
    if x.shape[0] != x.shape[1] or x.shape[0] % 2:
        raise DimensionError("dual adjoint needs an even square matrix")
    return adjoint(x, representation)


@dataclass(frozen=True)
class InverseIdentityReport:
    ok: bool
    max_residual: float
    checked: tuple
    skipped: tuple

    def to_dict(self):
        return {
            "ok": self.ok,
            "max_residual": self.max_residual,
            "checked": [format_complex(s, 17) for s in self.checked],
            "skipped": [format_complex(s, 17) for s in self.skipped],
        }


def verify_inverse_identity(ss: StateSpace, samples, tol=1e-8) -> InverseIdentityReport:
    """Check G(s) * dual_adjoint(G(-conj(s))) = I at each sample point.

    Samples that collide with a pole of either factor are skipped and
    reported rather than failing the check.
    """
    ident = np.eye(ss.field_dim)
    worst = 0.0
    checked, skipped = [], []
    for s in samples:
        s = complex(s)
        try:
            g = frequency_response(ss, s)
            h = frequency_response(ss, -s.conjugate())
        except PoleEvaluationError:
            skipped.append(s)
            continue
        res = frobenius(g @ dual_adjoint(h, ss.representation) - ident)
        worst = max(worst, res)
        checked.append(s)
    return InverseIdentityReport(
        ok=bool(checked) and worst <= tol,
        max_residual=worst,
        checked=tuple(checked),
        skipped=tuple(skipped),
    )


# ---------------------------------------------------------------------------
# generators and stock systems


def _rng(seed_or_rng):
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def random_params(seed, n, m, passive=False, exact=False) -> QSystemParams:
    """Seeded random physical parameters meeting all invariants.

    ``passive`` forces omega_plus = 0 and c_plus = 0 (such systems have no
    active squeezing terms and all hidden modes purely imaginary).  The
    entries are standard complex normals, or with ``exact`` small
    Gaussian rationals (p + q i with p, q in {-3..3}/{1..3}, drawn entry by
    entry); one formula builds the blocks from either draw.  The exact
    Hermitian parts are t + t^H, without the 1/2 of the float ones: the
    recorded Smith-McMillan certificates pin those draws.
    """
    rng = _rng(seed)
    if exact:
        def frac():
            return Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))

        def cmat(r, c):
            draws = [GaussianRational(frac(), frac()) for _ in range(r * c)]
            return np.array(draws, dtype=object).reshape(r, c)
    else:
        def cmat(r, c):
            return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))

    scale = 1 if exact else 0.5
    t = cmat(n, n)
    om = (t + t.conj().T) * scale
    if passive:
        op = np.zeros((n, n), dtype=t.dtype)
        cp = np.zeros((m, n), dtype=t.dtype)
    else:
        s_ = cmat(n, n)
        op = (s_ + s_.T) * scale
        cp = cmat(m, n)
    cm = cmat(m, n)
    return QSystemParams.create(om, op, cm, cp)


def random_system(seed, n, m, passive=False, exact=False) -> StateSpace:
    return build_state_space(random_params(seed, n, m, passive, exact))


def with_lossless_modes(params: QSystemParams, freqs) -> QSystemParams:
    """Extend a system with decoupled lossless modes at real frequencies.

    The new modes get diagonal entries in omega_minus and zero columns in
    both coupling blocks, so they are uncontrollable and unobservable with
    purely imaginary eigenvalues +-i*freq.  Exact parameters with exact
    frequencies give exact parameters, built on the exact blocks; a float
    frequency gives float parameters.  A frequency
    with an imaginary part raises ParameterError.
    """
    freqs = list(freqs)
    k = len(freqs)
    n, m = params.n, params.m
    keys = ("omega_minus", "omega_plus", "c_minus", "c_plus")
    if params.is_exact and all(isinstance(f, _EXACT_SCALARS) for f in freqs):
        om, op, cm, cp = (params.exact[key] for key in keys)
        freqs = [GaussianRational.of(f) for f in freqs]
    else:
        om, op, cm, cp = (getattr(params, key) for key in keys)
        freqs = [complex(f) for f in freqs]
    if any(f != f.conjugate() for f in freqs):
        raise ParameterError("lossless mode frequencies must be real")
    # int zeros take the dtype of the blocks they join, so exact stays exact
    zeros = lambda r, c: np.zeros((r, c), dtype=int)
    return QSystemParams.create(
        np.block([[om, zeros(n, k)], [zeros(k, n), np.diag(freqs)]]),
        np.block([[op, zeros(n, k)], [zeros(k, n), zeros(k, k)]]),
        np.hstack([cm, zeros(m, k)]),
        np.hstack([cp, zeros(m, k)]),
    )


def passive_cavity(omega=1, kappa=2) -> QSystemParams:
    """Single mode at detuning ``omega`` with field coupling sqrt(kappa)."""
    return QSystemParams.create(
        [[omega]], [[0]], [[np.sqrt(float(kappa))]], [[0]]
    )


def gain_system() -> QSystemParams:
    """The one-mode amplifier with no Hamiltonian and pure creation-operator
    coupling; its transfer matrix is (s + 1/2)/(s - 1/2) times the identity
    and both eigenvalues of A sit in the open right half plane."""
    return QSystemParams.create([[0]], [[0]], [[0]], [[1]])


def degenerate_parametric_amplifier(kappa=2, epsilon=1) -> QSystemParams:
    """Single-mode DPA: pump strength epsilon, cavity decay kappa."""
    return QSystemParams.create(
        [[0]],
        [[complex(0, float(epsilon) / 2)]],
        [[np.sqrt(float(kappa))]],
        [[0]],
    )
