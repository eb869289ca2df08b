"""The exact kernels at 20 states against references written here.

``random_system(11, 10, 2, exact=True)``, generic and passive, has 20
states and four fields.  Its characteristic polynomial is checked against
(-1)^ns pencil_det(A, I), whose Bareiss determinants and interpolation
share nothing with ``charpoly``; the exact transfer matrix at two exact
points against D + C X, with X from a Gauss-Jordan solve of
(s0 I - A) X = B written here on lists of GaussianRational; and the exact
det identity must hold.

The Smith-McMillan reduction is checked at 12 states,
``random_system(11, 6, 2, exact=True)``, generic and passive: its
recorded operations must replay to ``diagonal()``, and its invariant
factors must mirror exactly, prod alpha_i = conj(prod beta_i)(-s).
"""

from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from lqsys import (
    apply_operations,
    random_system,
    smith_mcmillan,
    transfer_matrix_exact,
    verify_det_identity,
)
from lqsys import exactlinalg as xl
from lqsys.rational import GR_ONE, GR_ZERO, GaussianRational, Poly

POINTS = [
    GaussianRational(Fraction(7, 3), Fraction(5, 2)),
    GaussianRational(Fraction(-3, 7), Fraction(11, 5)),
]


def solve(m, rhs):
    """X with m X = rhs, by Gauss-Jordan elimination with row swaps."""
    n = len(m)
    rows = [list(r) + list(b) for r, b in zip(m, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = GR_ONE / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


@pytest.fixture(scope="module", params=["generic", "passive"])
def ss(request):
    return random_system(11, 10, 2, request.param == "passive", exact=True)


def test_twenty_states(ss):
    assert ss.state_dim == 20


def test_charpoly_is_the_pencil_determinant(ss):
    a = ss.exact["A"]
    n = len(a)
    eye = xl.mat_zeros(n, n)
    for k in range(n):
        eye[k, k] = GR_ONE
    assert xl.charpoly(a, terms=False)[0] == xl.pencil_det(a, eye) * (-1) ** n


def test_transfer_matrix_at_two_points(ss):
    a, b, c, d = (ss.exact[k] for k in ("A", "B", "C", "D"))
    g = transfer_matrix_exact(ss)
    n = len(a)
    for s0 in POINTS:
        shifted = [[(s0 if i == j else GR_ZERO) - a[i][j] for j in range(n)] for i in range(n)]
        ref = d + c @ np.array(solve(shifted, b.tolist()), dtype=object)
        assert g.evaluate(s0).tolist() == ref.tolist()


def test_det_identity_holds_exactly(ss):
    rep = verify_det_identity(ss)
    assert rep.ok and rep.mode == "exact"


@pytest.mark.parametrize("passive", [False, True])
def test_six_mode_reduction_replays_and_mirrors(passive):
    g = transfer_matrix_exact(random_system(11, 6, 2, passive, exact=True))
    smf = smith_mcmillan(g)
    assert smf.rank == 4
    assert apply_operations(g, smf.left_ops, smf.right_ops) == smf.diagonal()
    zeros = reduce(lambda a, b: a * b, smf.alphas, Poly([1]))
    poles = reduce(lambda a, b: a * b, smf.betas, Poly([1]))
    assert poles.degree == 12
    assert zeros == poles.conjugate().compose_neg().monic()
