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
GaussianRational), the construction is carried out exactly as well and the
exact quadruple rides along with the floating one.
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
)
from .linalg import (
    as_matrix,
    doubled_up,
    flat_adjoint,
    frobenius,
    sharp_adjoint,
    signature_j,
    symplectic_j,
)
from .rational import GaussianRational
from .spectra import format_complex

__all__ = [
    "QSystemParams",
    "StateSpace",
    "RepresentationMap",
    "build_state_space",
    "check_physical_realizability",
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
    """Return (complex ndarray, exact nested list or None) for a matrix
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


@dataclass(frozen=True)
class QSystemParams:
    """Physical parameters of an n-mode, m-field linear quantum system.

    omega_minus must be Hermitian and omega_plus symmetric so that the
    doubled-up Hamiltonian matrix is Hermitian; the scattering matrix is
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
        m = cm.shape[0]
        if cm.shape != (m, n) or cp.shape != (m, n):
            raise ParameterError(
                f"coupling blocks must be m x n, got {cm.shape}, {cp.shape}"
            )
        scale = max(1.0, frobenius(om), frobenius(op))
        if frobenius(om - om.conj().T) > 1e-12 * scale:
            raise ParameterError("omega_minus must be Hermitian")
        if frobenius(op - op.T) > 1e-12 * scale:
            raise ParameterError("omega_plus must be symmetric")
        exact = None
        if all(x is not None for x in (om_x, op_x, cm_x, cp_x)):
            exact = {
                "omega_minus": om_x,
                "omega_plus": op_x,
                "c_minus": cm_x,
                "c_plus": cp_x,
            }
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
class RepresentationMap:
    """The block unitary V_k = (1/sqrt 2) [[I, I], [-iI, iI]] that carries
    doubled-up complex matrices to real quadrature ones."""

    n: int
    m: int

    @staticmethod
    def unitary(k):
        i = np.eye(k)
        return np.block([[i, i], [-1j * i, 1j * i]]) / np.sqrt(2)

    @property
    def v_n(self):
        return self.unitary(self.n)

    @property
    def v_m(self):
        return self.unitary(self.m)


@dataclass(frozen=True)
class StateSpace:
    """Quadruple (A, B, C, D) in either representation.

    Quantum models always have doubled (even) dimensions 2n x 2n etc.;
    derived realizations (e.g. the minimal block of a Kalman decomposition)
    may not, so evenness is enforced by the operations that need the
    doubled structure rather than here.  ``exact`` carries GaussianRational
    copies of the four matrices when the model was built from exact inputs.

    The four arrays are private read-only copies: the caller's arrays stay
    untouched, and writing into ``A``, ``B``, ``C`` or ``D`` raises
    ValueError.  Because the matrices cannot change, results derived from
    them (the eigenvalues of A, the Kalman decomposition at each
    tolerance) are computed once and memoized on the object, and live and
    die with it.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    representation: str  # "annihilation" | "quadrature"
    exact: dict | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("A", "B", "C", "D"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_matrices(cls, A, B, C, D, representation="annihilation"):
        a, a_x = _ingest(A, "A")
        b, b_x = _ingest(B, "B")
        c, c_x = _ingest(C, "C")
        d, d_x = _ingest(D, "D")
        if representation not in ("annihilation", "quadrature"):
            raise ParameterError(f"unknown representation {representation!r}")
        ns = a.shape[0]
        nf = d.shape[0]
        if a.shape != (ns, ns) or d.shape != (nf, nf):
            raise DimensionError("A and D must be square")
        if b.shape != (ns, nf) or c.shape != (nf, ns):
            raise DimensionError(
                f"B must be {ns}x{nf} and C {nf}x{ns}, "
                f"got {b.shape} and {c.shape}"
            )
        if representation == "quadrature":
            for name, mat in (("A", a), ("B", b), ("C", c), ("D", d)):
                if mat.size and np.max(np.abs(mat.imag)) > 1e-12:
                    raise ParameterError(
                        f"quadrature matrices must be real; {name} is not"
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

        def compute():
            vals = np.linalg.eigvals(self.A)
            vals.setflags(write=False)
            return vals

        return self.memoized("eigenvalues", compute)

    def real_matrices(self):
        """(A, B, C, D) as real arrays; only valid for quadrature systems."""
        if self.representation != "quadrature":
            raise ParameterError("real_matrices needs a quadrature system")
        return self.A.real, self.B.real, self.C.real, self.D.real


def build_state_space(params: QSystemParams) -> StateSpace:
    """Construct the annihilation-representation quadruple from physical
    parameters; realizability identities hold by construction."""
    n, m = params.n, params.m
    omega = doubled_up(params.omega_minus, params.omega_plus)
    c = doubled_up(params.c_minus, params.c_plus)
    d = np.eye(2 * m, dtype=complex)
    cflat = flat_adjoint(c)
    b = -cflat @ d
    a = -1j * signature_j(n) @ omega - 0.5 * cflat @ c

    exact = None
    if params.is_exact:
        ex = params.exact
        omega_x = xl.doubled_up_exact(ex["omega_minus"], ex["omega_plus"])
        c_x = xl.doubled_up_exact(ex["c_minus"], ex["c_plus"])
        d_x = xl.mat_eye(2 * m)
        cflat_x = xl.flat_adjoint_exact(c_x)
        b_x = xl.mat_neg(xl.mat_mul(cflat_x, d_x))
        jn = xl.signature_j_exact(n)
        a_x = xl.mat_sub(
            xl.mat_scale(GaussianRational(0, -1), xl.mat_mul(jn, omega_x)),
            xl.mat_scale(Fraction(1, 2), xl.mat_mul(cflat_x, c_x)),
        )
        exact = {"A": a_x, "B": b_x, "C": c_x, "D": d_x}
        a, b, c, d = (xl.to_numpy(x) for x in (a_x, b_x, c_x, d_x))

    return StateSpace(
        A=a, B=b, C=c, D=d,
        representation="annihilation", exact=exact,
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
    """
    if ss.representation == "annihilation":
        cflat = flat_adjoint(ss.C)
        residuals = {
            "drift": frobenius(ss.A + flat_adjoint(ss.A) + cflat @ ss.C),
            "input": frobenius(ss.B + cflat @ ss.D),
            "unitary_d": frobenius(ss.D.conj().T @ ss.D - np.eye(ss.field_dim)),
        }
    else:
        a, b, c, d = ss.real_matrices()
        residuals = {
            "drift": frobenius(a + sharp_adjoint(a) + b @ sharp_adjoint(b)),
            "input": frobenius(b + sharp_adjoint(c) @ d),
            "unitary_d": frobenius(d.T @ d - np.eye(ss.field_dim)),
        }
    return RealizabilityReport(
        representation=ss.representation, residuals=residuals, tol=tol
    )


def to_quadrature(ss: StateSpace) -> StateSpace:
    """Conjugate an annihilation-representation system with the quadrature
    unitary; the result is real and shares the eigenvalues of A.

    On doubled-up blocks the conjugation reduces to

        [[U, W], [conj(W), conj(U)]]  ->  [[Re(U+W), -Im(U-W)],
                                           [Im(U+W),  Re(U-W)]]

    which is used verbatim on the exact path.
    """
    if ss.representation != "annihilation":
        raise ParameterError("to_quadrature expects an annihilation system")
    rep = RepresentationMap(ss.n, ss.m)
    vn, vm = rep.v_n, rep.v_m
    mats = {
        "A": vn @ ss.A @ vn.conj().T,
        "B": vn @ ss.B @ vm.conj().T,
        "C": vm @ ss.C @ vn.conj().T,
        "D": vm @ ss.D @ vm.conj().T,
    }
    scale = max(1.0, *(frobenius(v) for v in mats.values()))
    worst = max(
        (np.max(np.abs(v.imag)) if v.size else 0.0) for v in mats.values()
    )
    if worst > 1e-10 * scale:
        raise NumericalError(
            "quadrature conversion left imaginary residue "
            f"{worst:.3e}; input is not doubled-up"
        )
    exact = None
    if ss.is_exact:
        exact = {k: _quadrature_exact(v) for k, v in ss.exact.items()}
        mats = {k: xl.to_numpy(v).real for k, v in exact.items()}
    else:
        mats = {k: v.real for k, v in mats.items()}
    return StateSpace(
        A=mats["A"], B=mats["B"], C=mats["C"], D=mats["D"],
        representation="quadrature", exact=exact,
    )


def _quadrature_exact(x):
    rows, cols = xl.shape(x)
    k, r = rows // 2, cols // 2
    u = [row[:r] for row in x[:k]]
    w = [row[r:] for row in x[:k]]
    re = lambda blk: [[GaussianRational(e.re) for e in row] for row in blk]
    im = lambda blk: [[GaussianRational(e.im) for e in row] for row in blk]
    usum = xl.mat_add(u, w)
    udif = xl.mat_sub(u, w)
    return xl.mat_block([[re(usum), xl.mat_neg(im(udif))], [im(usum), re(udif)]])


def frequency_response(ss: StateSpace, s, pole_tol=1e-9):
    """D + C (sI - A)^-1 B via a linear solve (no explicit inverse).

    Raises PoleEvaluationError when s is within ``pole_tol`` of an
    eigenvalue of A; the eigenvalues come from ``ss.eigenvalues()``, so a
    sweep over many points computes them once.
    """
    s = complex(s)
    if ss.A.shape[0]:
        eigs = ss.eigenvalues()
        dist = np.abs(eigs - s)
        k = int(np.argmin(dist))
        if dist[k] <= pole_tol * max(1.0, abs(eigs[k])):
            raise PoleEvaluationError(s, complex(eigs[k]))
        x = np.linalg.solve(
            s * np.eye(ss.A.shape[0]) - ss.A, ss.B.astype(complex)
        )
        return ss.D.astype(complex) + ss.C @ x
    return ss.D.astype(complex).copy()


def dual_adjoint(x, representation):
    """The representation-appropriate adjoint of a transfer-matrix value:
    J X^H J in the annihilation picture, JJ X^H JJ^T in quadrature."""
    x = as_matrix(x)
    k = x.shape[0] // 2
    if x.shape[0] != x.shape[1] or x.shape[0] % 2:
        raise DimensionError("dual adjoint needs an even square matrix")
    if representation == "annihilation":
        j = signature_j(k)
        return j @ x.conj().T @ j
    jj = symplectic_j(k)
    return jj @ x.conj().T @ jj.T


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
    active squeezing terms and all hidden modes purely imaginary);
    ``exact`` draws small Gaussian-rational entries instead of floats.
    """
    rng = _rng(seed)
    if exact:
        def frac():
            return Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))

        def gmat(r, c):
            return [
                [GaussianRational(frac(), frac()) for _ in range(c)]
                for _ in range(r)
            ]

        t = gmat(n, n)
        om = xl.mat_add(t, xl.hermitian_t(t))
        if passive:
            op = xl.mat_zeros(n, n)
            cp = xl.mat_zeros(m, n)
        else:
            s_ = gmat(n, n)
            op = xl.mat_add(s_, xl.transpose(s_))
            cp = gmat(m, n)
        cm = gmat(m, n)
        return QSystemParams.create(om, op, cm, cp)

    def cmat(r, c):
        return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))

    t = cmat(n, n)
    om = (t + t.conj().T) / 2
    if passive:
        op = np.zeros((n, n), dtype=complex)
        cp = np.zeros((m, n), dtype=complex)
    else:
        s_ = cmat(n, n)
        op = (s_ + s_.T) / 2
        cp = cmat(m, n)
    cm = cmat(m, n)
    return QSystemParams.create(om, op, cm, cp)


def random_system(seed, n, m, passive=False, exact=False) -> StateSpace:
    return build_state_space(random_params(seed, n, m, passive, exact))


def with_lossless_modes(params: QSystemParams, freqs) -> QSystemParams:
    """Extend a system with decoupled lossless modes at real frequencies.

    The new modes get diagonal entries in omega_minus and zero columns in
    both coupling blocks, so they are uncontrollable and unobservable with
    purely imaginary eigenvalues +-i*freq.
    """
    freqs = list(freqs)
    k = len(freqs)
    n, m = params.n, params.m
    if params.is_exact and all(isinstance(f, _EXACT_SCALARS) for f in freqs):
        ex = params.exact
        om = xl.mat_block(
            [
                [ex["omega_minus"], xl.mat_zeros(n, k)],
                [xl.mat_zeros(k, n), xl.diag_exact(freqs)],
            ]
        )
        op = xl.mat_block(
            [
                [ex["omega_plus"], xl.mat_zeros(n, k)],
                [xl.mat_zeros(k, n), xl.mat_zeros(k, k)],
            ]
        )
        cm = [row[:] + [GaussianRational(0)] * k for row in ex["c_minus"]]
        cp = [row[:] + [GaussianRational(0)] * k for row in ex["c_plus"]]
        return QSystemParams.create(om, op, cm, cp)
    for f in freqs:
        if abs(complex(f).imag) > 0:
            raise ParameterError("lossless mode frequencies must be real")
    om = np.block(
        [
            [params.omega_minus, np.zeros((n, k))],
            [np.zeros((k, n)), np.diag([complex(f).real for f in freqs])],
        ]
    )
    op = np.block(
        [
            [params.omega_plus, np.zeros((n, k))],
            [np.zeros((k, n)), np.zeros((k, k))],
        ]
    )
    cm = np.hstack([params.c_minus, np.zeros((m, k))])
    cp = np.hstack([params.c_plus, np.zeros((m, k))])
    return QSystemParams.create(om, op, cm, cp)


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
