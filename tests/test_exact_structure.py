"""The exact quadruple and the exact det identity against references that
form the flat and sharp adjoints explicitly.

The model is built from its upper block rows and the exact det identity
takes its right side as charpoly(-A) without forming an adjoint; here the
adjoints J X^H J and JJ X^T JJ^T and every matrix product are written out
(products on lists of GaussianRational, transposes on numpy object
arrays), so the identities are checked on their textbook form.  Its left side, taken from the Schur complement
A - B D^-1 C, is checked against ``pencil_det`` of the assembled
Rosenbrock pencil.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lqsys import (
    QSystemParams,
    StateSpace,
    build_state_space,
    random_params,
    to_quadrature,
    verify_det_identity,
    with_lossless_modes,
)
from lqsys import exactlinalg as xl
from lqsys.rational import GR_ONE, GR_ZERO, GaussianRational

from test_exact_recorded import _pencil

SETTINGS = settings(max_examples=40, deadline=None)


def mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), GR_ZERO) for col in zip(*b)] for row in a]


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def signature(k):
    """J_k = diag(I_k, -I_k)."""
    return [[GR_ONE if i == j < k else -GR_ONE if i == j else GR_ZERO
             for j in range(2 * k)] for i in range(2 * k)]


def symplectic(k):
    """JJ_k = [[0, I_k], [-I_k, 0]]."""
    return [[GR_ONE if j == i + k else -GR_ONE if i == j + k else GR_ZERO
             for j in range(2 * k)] for i in range(2 * k)]


def flat(x):
    """X^b = J_r X^H J_k for X of shape 2k x 2r."""
    k, r = len(x) // 2, len(x[0]) // 2
    return mul(mul(signature(r), np.array(x, dtype=object).conj().T.tolist()), signature(k))


def sharp(x):
    """X^# = JJ_r X^T JJ_k^T for X of shape 2k x 2r."""
    k, r = len(x) // 2, len(x[0]) // 2
    xt, jjt = (np.array(y, dtype=object).T.tolist() for y in (x, symplectic(k)))
    return mul(mul(symplectic(r), xt), jjt)


def is_zero(x):
    return all(v.is_zero() for row in x for v in row)


fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
gaussians = st.builds(GaussianRational, fractions, fractions)


def exact_matrices(r, c, entries):
    return st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)


@st.composite
def exact_params(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    params = random_params(draw(st.integers(0, 10**6)), n, m,
                           passive=draw(st.booleans()), exact=True)
    freqs = draw(st.lists(fractions, max_size=2))
    return with_lossless_modes(params, freqs) if freqs else params


class TestExactBuild:
    @SETTINGS
    @given(exact_params())
    def test_realizability_identities_hold_exactly(self, params):
        ex = build_state_space(params).exact
        a, b, c, d = (ex[k] for k in "ABCD")
        assert is_zero(add(add(a, flat(a)), mul(flat(c), c)))
        assert is_zero(add(b, mul(flat(c), d)))
        assert d.tolist() == np.eye(2 * params.m, dtype=int).tolist()

    @SETTINGS
    @given(exact_params())
    def test_float_copy_matches_the_float_build(self, params):
        ss = build_state_space(params)
        floats = QSystemParams.create(
            params.omega_minus, params.omega_plus, params.c_minus, params.c_plus
        )
        assert not floats.is_exact
        fs = build_state_space(floats)
        for k in "ABCD":
            want = getattr(fs, k)
            got = xl.to_numpy(ss.exact[k])
            assert np.array_equal(got, getattr(ss, k))
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def adjoint_charpoly(ss):
    """charpoly(-J A^H J) or charpoly(-JJ A^T JJ^T), formed explicitly."""
    a = ss.exact["A"]
    adj = flat(a) if ss.representation == "annihilation" else sharp(a)
    poly, _ = xl.charpoly(-xl.exact_matrix(adj))
    return tuple(complex(c) for c in poly.coeffs)


@st.composite
def exact_state_spaces(draw):
    """Exact (A, B, C, D), not necessarily realizable: complex in the
    annihilation picture, real in quadrature."""
    representation = draw(st.sampled_from(["annihilation", "quadrature"]))
    entries = gaussians if representation == "annihilation" else fractions
    ns, nf = 2 * draw(st.integers(1, 2)), 2 * draw(st.integers(1, 2))
    mats = [draw(exact_matrices(r, c, entries))
            for r, c in ((ns, ns), (ns, nf), (nf, ns), (nf, nf))]
    return StateSpace.from_matrices(*mats, representation=representation)


@st.composite
def invertible_d_state_spaces(draw):
    """Exact (A, B, C, D) of any sizes, ns = 0 and nf = 0 included, with an
    exactly invertible D; complex in the annihilation picture, real in
    quadrature."""
    representation = draw(st.sampled_from(["annihilation", "quadrature"]))
    entries = gaussians if representation == "annihilation" else fractions
    ns, nf = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    mats = [draw(exact_matrices(r, c, entries))
            for r, c in ((ns, ns), (ns, nf), (nf, ns), (nf, nf))]
    ss = StateSpace.from_matrices(*mats, representation=representation)
    assume(xl.charpoly(ss.exact["D"])[0].coeffs[0])  # det(-D), 1 for an empty D
    return ss


class TestExactDetIdentity:
    @SETTINGS
    @given(invertible_d_state_spaces())
    def test_left_side_is_the_pencil_determinant(self, ss):
        """The Schur-complement left side against det P(s) sampled and
        interpolated, and the verdict against the monic det P(s) compared
        with det(sI + A^H) (annihilation) or det(sI + A^T) (quadrature)."""
        rep = verify_det_identity(ss)
        pdet = xl.pencil_det(*_pencil(ss))
        assert rep.mode == "exact"
        assert rep.det_pencil == tuple(complex(x) for x in pdet.coeffs)
        assert rep.unit == complex(pdet.leading())
        a = ss.exact["A"]
        at = a.conj().T if ss.representation == "annihilation" else a.T
        right, _ = xl.charpoly(-at)
        assert rep.ok == (pdet.monic() == right)

    def test_no_pencil_sampling(self, monkeypatch):
        def fail(*_):
            raise AssertionError("the det identity sampled the pencil")

        monkeypatch.setattr(xl, "pencil_det", fail)
        ss = build_state_space(random_params(3, 3, 2, exact=True))
        for sys_ in (ss, to_quadrature(ss)):
            rep = verify_det_identity(sys_)
            assert rep.ok and rep.mode == "exact"

    @SETTINGS
    @given(exact_state_spaces())
    def test_right_side_is_the_adjoint_charpoly(self, ss):
        assert ss.is_exact
        assert verify_det_identity(ss).det_adjoint == adjoint_charpoly(ss)

    @pytest.mark.parametrize(
        "name", ["classical_hidden_mode", "classical_pole_only", "quad_hidden_pair", "gain"]
    )
    def test_stock_systems(self, request, name):
        ss = request.getfixturevalue(name)
        assert verify_det_identity(ss).det_adjoint == adjoint_charpoly(ss)
