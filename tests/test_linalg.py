import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqsys import (
    DimensionError,
    ParameterError,
    doubled_up,
    eigenvalues,
    flat_adjoint,
    is_doubled_up,
    rank_at_tolerance,
    sharp_adjoint,
    signature_j,
    split_doubled_up,
    symplectic_j,
)
from lqsys.linalg import as_matrix, null_space_basis, range_basis, svd_rank


def rand_even(rng, k, r):
    return rng.standard_normal((2 * k, 2 * r)) + 1j * rng.standard_normal((2 * k, 2 * r))


class TestFlatAdjoint:
    def test_identity_is_self_adjoint(self):
        assert np.allclose(flat_adjoint(np.eye(2)), np.eye(2))

    def test_diagonal_example(self):
        x = np.diag([-1 - 1j, -1 + 1j])
        assert np.allclose(flat_adjoint(x), np.diag([-1 + 1j, -1 - 1j]))

    def test_pure_creation_coupling(self):
        # X = doubled_up(0, c): X^b X = -|c|^2 I
        c = 2.0 - 3.0j
        x = doubled_up([[0]], [[c]])
        assert np.allclose(flat_adjoint(x) @ x, -abs(c) ** 2 * np.eye(2))

    def test_involution_and_product_rule(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k, r, t = rng.integers(1, 4, size=3)
            x = rand_even(rng, k, r)
            y = rand_even(rng, r, t)
            assert np.allclose(flat_adjoint(flat_adjoint(x)), x, rtol=1e-12, atol=1e-12)
            lhs = flat_adjoint(x @ y)
            rhs = flat_adjoint(y) @ flat_adjoint(x)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_preserves_doubled_up(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            k, r = rng.integers(1, 4, size=2)
            u = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
            v = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
            assert is_doubled_up(flat_adjoint(doubled_up(u, v)))

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionError):
            flat_adjoint(np.ones((3, 2)))

    def test_empty_matrix_is_legal(self):
        out = flat_adjoint(np.zeros((0, 0)))
        assert out.shape == (0, 0)


class TestSharpAdjoint:
    def test_diag_example(self):
        a = np.diag([-1.0, 1.0])
        assert np.allclose(sharp_adjoint(a), np.diag([1.0, -1.0]))

    def test_identity(self):
        assert np.allclose(sharp_adjoint(np.eye(2)), np.eye(2))

    def test_nilpotent_coupling_example(self):
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        bs = sharp_adjoint(b)
        assert np.allclose(bs, [[0.0, -1.0], [0.0, 0.0]])
        assert np.allclose(b @ bs, np.zeros((2, 2)))
        a = np.diag([-1.0, 1.0])
        assert np.allclose(a + sharp_adjoint(a) + b @ bs, np.zeros((2, 2)))

    def test_involution(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k, r = rng.integers(1, 4, size=2)
            x = rng.standard_normal((2 * k, 2 * r))
            assert np.allclose(sharp_adjoint(sharp_adjoint(x)), x)

    def test_rejects_complex(self):
        with pytest.raises(ParameterError):
            sharp_adjoint(np.array([[1j, 0], [0, 0]]))


class TestStructure:
    def test_signature_squares_to_identity(self):
        j = signature_j(3)
        assert np.allclose(j @ j, np.eye(6))
        assert np.allclose(j, j.conj().T)

    def test_symplectic_squares_to_minus_identity(self):
        jj = symplectic_j(2)
        assert np.allclose(jj @ jj, -np.eye(4))

    def test_split_round_trip(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        v = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        x = doubled_up(u, v)
        u2, v2 = split_doubled_up(x)
        assert np.allclose(u, u2) and np.allclose(v, v2)
        assert is_doubled_up(x)

    def test_nan_rejected(self):
        with pytest.raises(ParameterError):
            as_matrix([[np.nan, 0], [0, 1]])
        with pytest.raises(ParameterError):
            doubled_up([[np.inf]], [[0]])


class TestEigenvalues:
    def test_diagonal(self, spectrum_equal):
        rep = eigenvalues(np.diag([-1 - 1j, -1 + 1j]))
        spectrum_equal(rep, [-1 - 1j, -1 + 1j])

    def test_nilpotent_clusters(self):
        rep = eigenvalues([[0, 1], [0, 0]])
        assert rep.values == ((0j, 2),)

    def test_companion_of_quadratic(self, spectrum_equal):
        # companion matrix of s^2 - 3s + 2 = (s-1)(s-2)
        comp = np.array([[0.0, -2.0], [1.0, 3.0]])
        spectrum_equal(eigenvalues(comp), [1.0, 2.0])

    def test_transpose_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            k = int(rng.integers(1, 6))
            m = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            assert eigenvalues(m, tol=1e-8).matches(eigenvalues(m.T, tol=1e-8), 1e-8)

    def test_empty(self):
        assert eigenvalues(np.zeros((0, 0))).is_empty()

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            eigenvalues(np.ones((2, 3)))


class TestRank:
    def test_identity(self):
        assert rank_at_tolerance(np.eye(4), 1e-9) == 4

    def test_outer_product(self):
        assert rank_at_tolerance(np.ones((2, 2)), 1e-9) == 1

    def test_zero_matrix(self):
        assert rank_at_tolerance(np.zeros((3, 3)), 1e-9) == 0

    def test_rank_plus_nullity(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            rows, cols, inner = rng.integers(1, 6, size=3)
            m = rng.standard_normal((rows, inner)) @ rng.standard_normal((inner, cols))
            r = rank_at_tolerance(m, 1e-9)
            nullity = null_space_basis(m, 1e-9).shape[1]
            assert r + nullity == cols

    def test_bad_tolerance(self):
        with pytest.raises(ParameterError):
            rank_at_tolerance(np.eye(2), 0.0)


@st.composite
def low_rank_matrices(draw):
    """Products L R of small integer matrices, real or complex, scaled by
    1e-3, 1 or 1e3: the inner size caps the rank, and a zero inner size
    or zero factor gives a zero matrix; rows and columns may be 0.  The
    nonzero singular values of an integer matrix this small stay far
    above 1e-9 of the largest, so every rank is unambiguous."""
    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
    ints = st.integers(-3, 3)

    def factor(r, c):
        re = np.array(draw(st.lists(ints, min_size=r * c, max_size=r * c)), float)
        if not draw(st.booleans()):
            return re.reshape(r, c)
        im = np.array(draw(st.lists(ints, min_size=r * c, max_size=r * c)), float)
        return (re + 1j * im).reshape(r, c)

    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return scale * (factor(rows, inner) @ factor(inner, cols))


def orthonormal(q):
    return np.allclose(q.conj().T @ q, np.eye(q.shape[1]), atol=1e-12)


class TestRankRule:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(low_rank_matrices())
    def test_bases(self, m):
        rows, cols = m.shape
        rank = svd_rank(m, 1e-9, 0, False)[0]
        rng, null = range_basis(m, 1e-9), null_space_basis(m, 1e-9)
        left_null = null_space_basis(m.conj().T, 1e-9)
        assert rank == rng.shape[1] == rank_at_tolerance(m, 1e-9)
        assert rank + null.shape[1] == cols
        assert rank + left_null.shape[1] == rows
        for q in (rng, null, left_null):
            assert orthonormal(q)
            assert np.isrealobj(q) == np.isrealobj(m)
        # the column space and the left null space split C^rows
        assert np.allclose(rng.conj().T @ left_null, 0, atol=1e-12)
        scale = max(1.0, np.abs(m).max()) if m.size else 1.0
        assert np.allclose(m @ null, 0, atol=1e-9 * scale)

    def test_floors_differ_below_unit_scale(self):
        # s1 = 1e-3 < 1: floor 0 cuts at 1e-12 and keeps 1e-11, floor 1
        # cuts at 1e-9 and drops it
        m = np.diag([1e-3, 1e-11])
        assert svd_rank(m, 1e-9, 0, False)[0] == 2
        assert svd_rank(m, 1e-9, 1, False)[0] == 1
        assert rank_at_tolerance(m, 1e-9) == 2
        assert null_space_basis(m, 1e-9).shape[1] == 0

    def test_vectors_give_the_full_svd(self):
        # "vh" is complete, c x c: the full SVD of a wide m, the economy
        # SVD of a tall one; "u" is the economy SVD, min(r, c) columns
        wide = np.arange(6.0).reshape(2, 3)
        cases = [
            (wide, "vh", (2, 2), (3, 3)),
            (wide, "u", (2, 2), (2, 3)),
            (wide.T, "vh", (3, 2), (2, 2)),
            (wide.T, "u", (3, 2), (2, 2)),
        ]
        for m, vectors, u_shape, vh_shape in cases:
            rank, u, sv, vh = svd_rank(m, 1e-9, 0, vectors)
            assert rank == 2 and u.shape == u_shape and vh.shape == vh_shape
            assert np.allclose(u[:, :2] @ np.diag(sv) @ vh[:2], m)
            assert np.allclose(vh @ vh.T, np.eye(len(vh)))
        rank, u, sv, vh = svd_rank(wide, 1e-9, 0, False)
        assert rank == 2 and u is None and vh is None and sv.shape == (2,)

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize(
        "rows, cols, rank",
        [(12, 40, 5), (40, 12, 5), (20, 20, 7), (20, 20, 20), (12, 40, 12),
         (40, 12, 12), (0, 5, 0), (5, 0, 0), (0, 0, 0), (6, 4, 0)],
    )
    def test_bases_of_every_shape(self, rows, cols, rank, complex_):
        # tall, wide and square, of full rank or not, empty or zero
        rng = np.random.default_rng(rows * 1000 + cols * 10 + rank)

        def draw(r, c):
            x = rng.standard_normal((r, c))
            return x + 1j * rng.standard_normal((r, c)) if complex_ else x

        m = draw(rows, rank) @ draw(rank, cols)
        rng_basis, null = range_basis(m, 1e-9), null_space_basis(m, 1e-9)
        assert rng_basis.shape == (rows, rank) and null.shape == (cols, cols - rank)
        assert rank_at_tolerance(m, 1e-9) == rank
        scale = max(1.0, np.abs(m).max()) if m.size else 1.0
        for q in (rng_basis, null):
            assert orthonormal(q)
            assert np.isrealobj(q) == (not complex_)
        # the basis spans every column of m, and the null space is killed by m
        assert np.allclose(rng_basis @ (rng_basis.conj().T @ m), m, atol=1e-9 * scale)
        assert np.allclose(m @ null, 0, atol=1e-9 * scale)

    def test_empty(self):
        assert svd_rank(np.zeros((0, 3)), 1e-9, 1, True)[0] == 0
        assert np.array_equal(null_space_basis(np.zeros((0, 3)), 1e-9), np.eye(3))
        assert range_basis(np.zeros((3, 0)), 1e-9).shape == (3, 0)
