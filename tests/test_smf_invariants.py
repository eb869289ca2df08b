"""The Smith-McMillan form against its determinantal divisors.

For G = N/d, with d the monic lcm of the entry denominators and N = d*G a
polynomial matrix, the k-th invariant factor of N is s_k = D_k/D_(k-1),
where D_k is the monic gcd of all k x k minors of N (D_0 = 1).  Each
diagonal entry of the Smith-McMillan form is then alpha_k/beta_k =
s_k/d in lowest terms.  Minors, gcds and the numerator are computed here
from the entries alone, so the check does not depend on the operations
the reduction records.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqsys import apply_operations, build_state_space, random_params, random_system
from lqsys import smith_mcmillan, transfer_matrix_exact
from lqsys.rational import POLY_ONE, POLY_ZERO, GaussianRational, Poly, RationalFn
from lqsys.smith import RationalMatrix

from test_smf_recorded import SYSTEMS


def det(rows):
    """Determinant of a square Poly matrix by Laplace expansion along the
    first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = POLY_ZERO
    for j, x in enumerate(rows[0]):
        if x.is_zero():
            continue
        minor = det([r[:j] + r[j + 1:] for r in rows[1:]])
        total = total - x * minor if j % 2 else total + x * minor
    return total


def determinantal_divisors(nmat):
    """[D_0, D_1, ...] up to the rank of the Poly matrix ``nmat``."""
    p, q = len(nmat), len(nmat[0])
    out = [POLY_ONE]
    for k in range(1, min(p, q) + 1):
        g = POLY_ZERO
        for rows in combinations(range(p), k):
            for cols in combinations(range(q), k):
                m = det([[nmat[i][j] for j in cols] for i in rows])
                if not m.is_zero():
                    g = m.monic() if g.is_zero() else g.gcd(m)
        if g.is_zero():
            break
        out.append(g)
    return out


def numerator(g):
    d = reduce(lambda a, e: a.lcm(e.den), (e for row in g.entries for e in row), POLY_ONE)
    return [[e.num * (d // e.den) for e in row] for row in g.entries], d


def check(g):
    smf = smith_mcmillan(g)
    assert apply_operations(g, smf.left_ops, smf.right_ops) == smf.diagonal()
    nmat, d = numerator(g)
    divisors = determinantal_divisors(nmat)
    assert smf.rank == len(divisors) - 1
    for k in range(1, len(divisors)):
        s_k = divisors[k] // divisors[k - 1]
        assert divisors[k - 1] * s_k == divisors[k]
        assert RationalFn(smf.alphas[k - 1], smf.betas[k - 1]) == RationalFn(s_k, d)


@pytest.mark.parametrize("seed,n,m,passive", SYSTEMS)
def test_recorded_systems(seed, n, m, passive):
    check(transfer_matrix_exact(
        build_state_space(random_params(seed, n, m, passive=passive, exact=True))))


def test_four_mode_two_field_system():
    check(transfer_matrix_exact(random_system(11, 4, 2, exact=True)))


# small rational matrices of any shape, with zero entries, shared factors,
# rank deficiency through a repeated row, and diagonal matrices, whose
# pivot seldom divides the rest of the diagonal
_coeffs = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-2)]),
)
_polys = st.lists(_coeffs, max_size=4).map(Poly)
_entries = st.builds(
    lambda num, den, f: RationalFn(num * f, den if not den.is_zero() else POLY_ONE),
    _polys, _polys, st.sampled_from([POLY_ONE, Poly([1, 1]), Poly([-2, 0, 1])]),
)


@st.composite
def _matrices(draw):
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [draw(st.lists(_entries, min_size=q, max_size=q)) for _ in range(p)]
    shape = draw(st.sampled_from(["dense", "repeated row", "diagonal"]))
    if shape == "repeated row" and p > 1:
        rows[-1] = [e * 2 for e in rows[0]]
    elif shape == "diagonal":
        rows = [[e if i == j else RationalFn(POLY_ZERO) for j, e in enumerate(row)]
                for i, row in enumerate(rows)]
    return RationalMatrix(rows)


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_small_matrices_of_any_shape(g):
    check(g)
