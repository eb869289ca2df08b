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
chooses the arrays.  The exact results are stored as they are computed,
shaped like their rounded float copies even with no entries.
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


def _ingest(mat, what):
    """Return (complex ndarray, exact object array or None) for a matrix
    whose entries may be exact scalars or floats/complex."""
    if isinstance(mat, np.ndarray):
        rows = mat.tolist()
    else:
        rows = [list(r) for r in mat]
    exact_ok = all(isinstance(x, _EXACT_SCALARS) for row in rows for x in row)
    if exact_ok:
        ex = xl.exact_matrix(rows)
        return xl.to_numpy(ex), ex
    try:
        arr = as_matrix(rows)
    except (TypeError, ValueError) as e:
        raise ParameterError(f"{what}: cannot interpret entries ({e})") from e
    return arr, None


def _implied(arr, ex, shape):
    """An ingested block (arr, ex) that has no entries takes the implied
    ``shape`` when that has no entries either: a JSON row list writes a
    0 x k matrix as [], which reads as 0 x 0 (and as exact).  Any other
    block is returned as it is, for the caller's shape check."""
    if arr.size or shape[0] * shape[1]:
        return arr, ex
    return arr.reshape(shape), ex.reshape(shape)


@dataclass(frozen=True)
class QSystemParams:
    """Physical parameters of an n-mode, m-field linear quantum system.

    omega_minus must be Hermitian and omega_plus symmetric so that the
    doubled-up Hamiltonian matrix is Hermitian (checked exactly for exact
    input, within 1e-12 relative for floats); the scattering matrix is
    fixed to the identity.
    """

    n: int
    m: int
    omega_minus: np.ndarray
    omega_plus: np.ndarray
    c_minus: np.ndarray
    c_plus: np.ndarray
    exact: dict | None = None  # exact copies of the four blocks, if available

    @classmethod
    def create(cls, omega_minus, omega_plus, c_minus, c_plus):
        om, om_x = _ingest(omega_minus, "omega_minus")
        op, op_x = _ingest(omega_plus, "omega_plus")
        cm, cm_x = _ingest(c_minus, "c_minus")
        cp, cp_x = _ingest(c_plus, "c_plus")
        n = om.shape[0]
        if om.shape != (n, n) or op.shape != (n, n):
            raise ParameterError(
                f"omega blocks must be square n x n, got {om.shape}, {op.shape}"
            )
        m = max(cm.shape[0], cp.shape[0])
        cm, cm_x = _implied(cm, cm_x, (m, n))
        cp, cp_x = _implied(cp, cp_x, (m, n))
        if cm.shape != (m, n) or cp.shape != (m, n):
            raise ParameterError(
                f"coupling blocks must be m x n, got {cm.shape}, {cp.shape}"
            )
        exact = None
        if all(x is not None for x in (om_x, op_x, cm_x, cp_x)):
            exact = {
                "omega_minus": om_x,
                "omega_plus": op_x,
                "c_minus": cm_x,
                "c_plus": cp_x,
            }
            hermitian = (om_x == om_x.conj().T).all()
            symmetric = (op_x == op_x.T).all()
        else:
            scale = max(1.0, frobenius(om), frobenius(op))
            hermitian = frobenius(om - om.conj().T) <= 1e-12 * scale
            symmetric = frobenius(op - op.T) <= 1e-12 * scale
        if not hermitian:
            raise ParameterError("omega_minus must be Hermitian")
        if not symmetric:
            raise ParameterError("omega_plus must be symmetric")
        return cls(
            n=n,
            m=m,
            omega_minus=om,
            omega_plus=op,
            c_minus=cm,
            c_plus=cp,
            exact=exact,
        )

    @property
    def is_exact(self):
        return self.exact is not None


@dataclass(frozen=True)
class StateSpace:
    """Quadruple (A, B, C, D) in either representation.

    Quantum models always have doubled (even) dimensions 2n x 2n etc.;
    derived realizations (e.g. the minimal block of a Kalman decomposition)
    may not, so evenness is enforced by the operations that need the
    doubled structure rather than here.  ``exact`` carries GaussianRational
    copies of the four matrices when the model was built from exact inputs.

    The representation fixes the array form: A, B, C, D are complex128 in
    the annihilation representation and float64 in quadrature, whatever
    the input.  An unknown representation raises ParameterError, and so
    does a quadrature matrix that is not real: exactly for exact entries,
    beyond 1e-12 in an imaginary part (else dropped) for float ones.

    The four arrays, and the exact ones, are private read-only copies: the
    caller's arrays stay untouched, and writing into ``A``, ``B``, ``C``,
    ``D`` or an array of ``exact`` raises ValueError.  Because the matrices
    cannot change, results derived from them (the eigenvalues of A, the
    realizability residuals, the Kalman decomposition at each tolerance,
    and the Schur-complement and adjoint spectra of the zero computations)
    are computed once and memoized on the object, and live and die with it.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    representation: str  # "annihilation" | "quadrature"
    exact: dict | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.representation not in ("annihilation", "quadrature"):
            raise ParameterError(f"unknown representation {self.representation!r}")
        exact = self.exact
        if exact is not None:
            exact = {k: np.array(x, dtype=object) for k, x in exact.items()}
            object.__setattr__(self, "exact", exact)
        for name in ("A", "B", "C", "D"):
            x = np.asarray(getattr(self, name))
            arr = xl.to_numpy(x)  # a copy, rounded for exact entries
            if self.representation == "quadrature":
                x = x if exact is None else exact[name]
                if x.dtype == object:
                    real = (x == x.conj()).all()
                else:  # a float or int array is real by its dtype; NaN is not
                    real = not np.iscomplexobj(x) or (np.abs(x.imag) <= 1e-12).all()
                if not real:
                    raise ParameterError(f"quadrature matrices must be real; {name} is not")
                arr = arr.real.copy()
            object.__setattr__(self, name, arr)
        for arr in (self.A, self.B, self.C, self.D, *(exact or {}).values()):
            arr.setflags(write=False)

    @classmethod
    def from_matrices(cls, A, B, C, D, representation="annihilation"):
        a, a_x = _ingest(A, "A")
        b, b_x = _ingest(B, "B")
        c, c_x = _ingest(C, "C")
        d, d_x = _ingest(D, "D")
        ns = a.shape[0]
        nf = d.shape[0]
        if a.shape != (ns, ns) or d.shape != (nf, nf):
            raise DimensionError("A and D must be square")
        b, b_x = _implied(b, b_x, (ns, nf))
        c, c_x = _implied(c, c_x, (nf, ns))
        if b.shape != (ns, nf) or c.shape != (nf, ns):
            raise DimensionError(
                f"B must be {ns}x{nf} and C {nf}x{ns}, "
                f"got {b.shape} and {c.shape}"
            )
        exact = None
        if all(x is not None for x in (a_x, b_x, c_x, d_x)):
            exact = {"A": a_x, "B": b_x, "C": c_x, "D": d_x}
        return cls(A=a, B=b, C=c, D=d, representation=representation, exact=exact)

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
    input arrays and the output: the exact matrices, with their rounded
    float copies.  A float A that overflows, or an exact entry beyond the
    float range, raises NumericalError.
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
    mats = {
        "A": doubled_up(upper[:, :n], upper[:, n:]),
        "B": doubled_up(-cm_h, cp_t),
        "C": c,
        "D": np.where(np.eye(2 * m, dtype=bool), one, zero),
    }
    return StateSpace(
        **mats, representation="annihilation", exact=mats if params.is_exact else None
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
    beyond the float range raises NumericalError.  The formula reads only
    the upper block row, so the input is checked first: an odd-sized
    matrix raises DimensionError, and one that is not doubled up (relative
    tolerance 1e-10 for floats, exactly for exact input) raises
    NumericalError.
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
    quad = {k: _quadrature_blocks(x) for k, x in mats.items()}
    return StateSpace(
        **quad, representation="quadrature", exact=quad if ss.is_exact else None
    )


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
