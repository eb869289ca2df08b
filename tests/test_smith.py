from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqsys import (
    DimensionError,
    ExactnessError,
    PoleEvaluationError,
    Poly,
    RationalFn,
    RationalMatrix,
    apply_operations,
    build_state_space,
    frequency_response,
    random_params,
    random_system,
    smith_mcmillan,
    transfer_matrix_exact,
    zeros_poles_from_smf,
)
from lqsys.rational import GaussianRational
from lqsys.smith import _rationalize, polynomial_roots_exact_first
from lqsys.specio import load_system_spec

S = Poly.s()
SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def diag_fn(*entries):
    k = len(entries)
    return RationalMatrix(
        [[entries[i] if i == j else RationalFn.of(0) for j in range(k)] for i in range(k)]
    )


def replay_entrywise(g, left_ops, right_ops):
    """Reference replay: every recorded operation applied to the rational
    entries of G directly, one RationalFn operation per entry."""
    m = [list(row) for row in g.entries]

    def rows_op(op):
        kind = op[0]
        if kind == "swap":
            _, i, j = op
            m[i], m[j] = m[j], m[i]
        elif kind == "addmul":
            _, dst, src, poly = op
            f = RationalFn(poly)
            m[dst] = [x + f * y for x, y in zip(m[dst], m[src])]
        elif kind == "mix":
            _, i, j, a, b, c, d = op
            fa, fb, fc, fd = (RationalFn(x) for x in (a, b, c, d))
            ri, rj = m[i], m[j]
            m[i] = [fa * x + fb * y for x, y in zip(ri, rj)]
            m[j] = [fc * x + fd * y for x, y in zip(ri, rj)]
        else:
            _, i, c = op
            m[i] = [RationalFn(Poly.constant(c)) * x for x in m[i]]

    for op in left_ops:
        rows_op(op)
    # a column operation is the row operation on the transpose
    m = [list(col) for col in zip(*m)]
    for op in right_ops:
        rows_op(op)
    return RationalMatrix(list(zip(*m)))


def check_round_trip_and_chains(params):
    g = transfer_matrix_exact(build_state_space(params))
    smf = smith_mcmillan(g)
    # recorded operations reconstruct the diagonal exactly, the numerator
    # replay agrees with the entrywise one, and L G R is the diagonal
    replay = apply_operations(g, smf.left_ops, smf.right_ops)
    assert replay == smf.diagonal()
    assert replay == replay_entrywise(g, smf.left_ops, smf.right_ops)
    assert smf.left_matrix() @ g @ smf.right_matrix() == smf.diagonal()
    # divisibility chains, coprimality, monicity
    for i in range(smf.rank - 1):
        assert smf.alphas[i].divides(smf.alphas[i + 1])
        assert smf.betas[i + 1].divides(smf.betas[i])
    for a, b in zip(smf.alphas, smf.betas):
        assert a.gcd(b) == Poly([1])
        assert a.is_zero() or a.leading() == GaussianRational(1)
        assert b.leading() == GaussianRational(1)


class TestTransferMatrixExact:
    def test_gain_system(self, gain):
        g = transfer_matrix_exact(gain)
        expected = RationalFn(2 * S + 1, 2 * S - 1)  # (s+1/2)/(s-1/2)
        assert g == diag_fn(expected, expected)

    def test_classical_pole_only(self, classical_pole_only):
        g = transfer_matrix_exact(classical_pole_only)
        f = RationalFn(Poly([1]), S - 1)
        assert g == diag_fn(f, f)

    def test_classical_hidden_mode(self, classical_hidden_mode):
        g = transfer_matrix_exact(classical_hidden_mode)
        assert g == diag_fn(RationalFn(S, S - 1), RationalFn.of(1))

    def test_evaluate_at_pole_raises_pole_error(self, classical_hidden_mode):
        g = transfer_matrix_exact(classical_hidden_mode)  # pole at s = 1
        for s in (GaussianRational(1), 1.0):
            with pytest.raises(PoleEvaluationError):
                g.evaluate(s)

    def test_matches_frequency_response(self, gain, classical_hidden_mode):
        for ss in (gain, classical_hidden_mode):
            g = transfer_matrix_exact(ss)
            for s in (0.3 + 0.2j, 2.5, -1.7 + 0.9j):
                assert np.allclose(
                    g.evaluate(s), frequency_response(ss, s), rtol=1e-9, atol=1e-9
                )

    def test_refuses_floating_input(self, cavity):
        with pytest.raises(ExactnessError):
            transfer_matrix_exact(cavity)

    def test_hidden_pair_transfer_is_exactly_identity(self, quad_hidden_pair):
        # the hidden modes cancel exactly: G(s) = I as rational functions
        g = transfer_matrix_exact(quad_hidden_pair)
        assert g == RationalMatrix.identity(2)


class TestRationalMatrix:
    def test_entries_are_a_read_only_object_array(self):
        g = RationalMatrix([[RationalFn(S, S - 1), 0]])
        assert g.entries.dtype == object and g.entries.shape == (1, 2)
        with pytest.raises(ValueError):
            g.entries[0, 1] = RationalFn.of(1)
        with pytest.raises(DimensionError):
            RationalMatrix([[1, 2], [3]])

    def test_equal_matrices_hash_alike(self):
        rows = [[RationalFn(S, S - 1), 2], [0, S]]
        g = RationalMatrix(rows)
        h = RationalMatrix(np.array([[RationalFn.of(e) for e in row] for row in rows], dtype=object))
        assert g == h and hash(g) == hash(h)
        assert g != RationalMatrix(rows[:1])

    def test_empty_dimensions_keep_their_shape(self):
        wide = RationalMatrix.diagonal([], shape=(0, 3))
        assert wide.shape == (0, 3) and wide != RationalMatrix([])
        assert RationalMatrix(np.empty((0, 3), dtype=object)) == wide
        # a sum over an empty inner dimension is the zero matrix
        zero = RationalMatrix.diagonal([], shape=(3, 0)) @ wide
        assert zero == RationalMatrix.diagonal([0, 0, 0])

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_smith_mcmillan_keeps_an_empty_shape(self, shape):
        g = RationalMatrix(np.empty(shape, dtype=object))
        smf = smith_mcmillan(g)
        assert smf.shape == shape and smf.rank == 0
        assert smf.diagonal().shape == shape
        assert apply_operations(g, smf.left_ops, smf.right_ops) == smf.diagonal()
        assert smf.left_matrix() @ g @ smf.right_matrix() == smf.diagonal()

    @pytest.mark.parametrize("other", [3, [[1, 0], [0, 1]], np.eye(2), np.eye(2, dtype=object)])
    def test_product_with_a_non_matrix_is_a_type_error(self, other):
        g = RationalMatrix.identity(2)
        with pytest.raises(TypeError):
            g @ other
        with pytest.raises(TypeError):
            other @ g

    def test_text_form_is_one_line_per_row(self):
        g = RationalMatrix([[RationalFn(S, S - 1), 0], [0, 1]])
        assert str(g) == "[s/(s-1), 0]\n[0, 1]"
        assert str(RationalMatrix([])) == ""


class TestSmithMcMillan:
    def test_classical_pole_only(self, classical_pole_only):
        smf = smith_mcmillan(transfer_matrix_exact(classical_pole_only))
        assert smf.rank == 2
        assert list(smf.alphas) == [Poly([1]), Poly([1])]
        assert list(smf.betas) == [S - 1, S - 1]

    def test_classical_hidden_mode(self, classical_hidden_mode):
        smf = smith_mcmillan(transfer_matrix_exact(classical_hidden_mode))
        assert list(smf.alphas) == [Poly([1]), S]
        assert list(smf.betas) == [S - 1, Poly([1])]

    def test_constant_matrix(self):
        smf = smith_mcmillan(RationalMatrix([[2, 0], [0, 3]]))
        assert list(smf.alphas) == [Poly([1]), Poly([1])]
        assert list(smf.betas) == [Poly([1]), Poly([1])]

    def test_gain_repeated_invariant_factor(self, gain):
        smf = smith_mcmillan(transfer_matrix_exact(gain))
        f = RationalFn(2 * S + 1, 2 * S - 1)
        assert smf.diagonal() == diag_fn(f, f)

    def test_reconstruction_on_examples(
        self, gain, classical_pole_only, classical_hidden_mode
    ):
        for ss in (gain, classical_pole_only, classical_hidden_mode):
            g = transfer_matrix_exact(ss)
            smf = smith_mcmillan(g)
            assert apply_operations(g, smf.left_ops, smf.right_ops) == smf.diagonal()

    @pytest.mark.parametrize(
        "seed,n,m", [(0, 1, 1), (1, 2, 1), (2, 2, 2), (3, 3, 1), (4, 3, 2), (5, 1, 2)]
    )
    def test_random_round_trip_and_chains(self, seed, n, m):
        check_round_trip_and_chains(random_params(seed, n, m, exact=True))

    @pytest.mark.parametrize("seed,n,m", [(6, 2, 2), (7, 3, 2)])
    def test_random_passive_round_trip_and_chains(self, seed, n, m):
        check_round_trip_and_chains(random_params(seed, n, m, passive=True, exact=True))

    @pytest.mark.parametrize("mixed", [False, True])
    def test_trailing_block_divisor_shrinks_part_way(self, mixed):
        # G = diag(1/d, 1, 1/(s+2)) with d = (s+1)(s+2), so N = d*G =
        # diag(1, d, s+1).  After the unit pivot the trailing block's first
        # entry d is divisible by d, its last, s+1, only by s+1: the block
        # divisor shrinks part-way, from d to s+1, and the quotient already
        # taken by d is redone (d/(s+1) = s+2).  Constant unimodular
        # factors on both sides leave the form the same.
        d = (S + 1) * (S + 2)
        g = diag_fn(RationalFn(Poly([1]), d), RationalFn.of(1), RationalFn(Poly([1]), S + 2))
        if mixed:
            g = RationalMatrix([[1, 2, 0], [0, 1, 3], [1, 0, 1]]) @ g @ RationalMatrix(
                [[1, 0, 0], [5, 1, 0], [0, 2, 1]])
        smf = smith_mcmillan(g)
        assert list(smf.alphas) == [Poly([1])] * 3
        assert list(smf.betas) == [d, S + 2, Poly([1])]
        assert apply_operations(g, smf.left_ops, smf.right_ops) == smf.diagonal()
        assert replay_entrywise(g, smf.left_ops, smf.right_ops) == smf.diagonal()

    def test_trailing_block_coprime_to_the_denominator(self):
        # N = diag(1, s+3, (s+3)(s+4)) over d = (s+1)(s+2): the trailing
        # block shares no factor with d, so it is not divided
        d = (S + 1) * (S + 2)
        g = diag_fn(*(RationalFn(e, d) for e in (Poly([1]), S + 3, (S + 3) * (S + 4))))
        smf = smith_mcmillan(g)
        assert list(smf.alphas) == [Poly([1]), S + 3, (S + 3) * (S + 4)]
        assert list(smf.betas) == [d, d, d]
        assert apply_operations(g, smf.left_ops, smf.right_ops) == smf.diagonal()
        assert replay_entrywise(g, smf.left_ops, smf.right_ops) == smf.diagonal()

    def test_rank_deficient_matrix(self):
        f = RationalFn(Poly([1]), S - 1)
        g = RationalMatrix([[f, f], [f, f]])
        smf = smith_mcmillan(g)
        assert smf.rank == 1
        assert list(smf.alphas) == [Poly([1])] and list(smf.betas) == [S - 1]
        assert apply_operations(g, smf.left_ops, smf.right_ops) == smf.diagonal()
        # the diagonal carries an explicit zero beyond the rank
        assert smf.diagonal()[1, 1].is_zero()

    def test_nonsquare_matrix(self):
        inv_s = RationalFn(Poly([1]), S)
        g = RationalMatrix([[inv_s, 0, 1], [0, inv_s, 0]])
        smf = smith_mcmillan(g)
        assert smf.shape == (2, 3) and smf.rank == 2
        assert list(smf.betas) == [S, S]
        assert apply_operations(g, smf.left_ops, smf.right_ops) == smf.diagonal()
        # unimodular factors have constant nonzero determinants
        for mat in (smf.left_matrix(), smf.right_matrix()):
            det = mat.determinant()
            assert det.is_constant() and not det.is_zero()

    def test_determinant_swaps_rows_and_stops_at_a_zero_column(self):
        # the first column's pivot sits in row 1: one swap flips the sign
        assert RationalMatrix([[0, 1], [S, 0]]).determinant() == -S
        assert RationalMatrix([[0, 1], [0, S]]).determinant() == 0
        with pytest.raises(DimensionError):
            RationalMatrix([[S, 1]]).determinant()

    def test_determinant_matches_diagonal_product(self, classical_hidden_mode):
        for ss_seed in ("fixture", 0, 2):
            if ss_seed == "fixture":
                g = transfer_matrix_exact(classical_hidden_mode)
            else:
                g = transfer_matrix_exact(
                    build_state_space(random_params(ss_seed, 2, 1, exact=True))
                )
            smf = smith_mcmillan(g)
            det = g.determinant()
            prod = RationalFn.of(1)
            for a, b in zip(smf.alphas, smf.betas):
                prod = prod * RationalFn(a, b)
            ratio = det / prod
            assert ratio.is_constant() and not ratio.is_zero()


class TestZerosPolesFromSmf:
    def test_classical_hidden_mode(self, classical_hidden_mode, spectrum_equal):
        zeros, poles = zeros_poles_from_smf(
            smith_mcmillan(transfer_matrix_exact(classical_hidden_mode))
        )
        spectrum_equal(zeros, [0.0])
        spectrum_equal(poles, [1.0])

    def test_identity_has_none(self):
        zeros, poles = zeros_poles_from_smf(smith_mcmillan(RationalMatrix([[1, 0], [0, 1]])))
        assert zeros.is_empty() and poles.is_empty()

    def test_dpa_limit_origin(self, spectrum_equal):
        # epsilon = kappa = 2: G_q = (s-2)/s, G_p = s/(s+2)
        g = diag_fn(RationalFn(S - 2, S), RationalFn(S, S + 2))
        zeros, poles = zeros_poles_from_smf(smith_mcmillan(g))
        spectrum_equal(zeros, [0.0, 2.0])
        spectrum_equal(poles, [0.0, -2.0])
        assert min(abs(z) for z in zeros.expand()) < 1e-10
        assert min(abs(p) for p in poles.expand()) < 1e-10

    def test_quantum_mirror_from_smf(self, gain, spectrum_equal):
        zeros, poles = zeros_poles_from_smf(smith_mcmillan(transfer_matrix_exact(gain)))
        spectrum_equal(zeros, [-0.5, -0.5])
        spectrum_equal(poles, [0.5, 0.5])
        assert zeros.matches(poles.mirrored(), 1e-10)

    def test_random_quantum_mirror_from_smf(self, spectrum_equal):
        for seed in (0, 1, 3):
            ss = build_state_space(random_params(seed, 2, 1, exact=True))
            zeros, poles = zeros_poles_from_smf(smith_mcmillan(transfer_matrix_exact(ss)))
            assert zeros.matches(poles.mirrored(), 1e-7)


def mirror_holds(ss):
    """The paper's theorem on the Smith-McMillan form, exactly: the
    product of the alpha_i is conj(product of the beta_i)(-s), made monic,
    so the transmission zeros are the poles mirrored, s0 -> -conj(s0)."""
    smf = smith_mcmillan(transfer_matrix_exact(ss))
    zeros = reduce(lambda a, b: a * b, smf.alphas, Poly([1]))
    poles = reduce(lambda a, b: a * b, smf.betas, Poly([1]))
    return zeros == poles.conjugate().compose_neg().monic()


class TestExactMirror:
    @pytest.mark.parametrize("passive", [False, True])
    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_seeded_systems(self, n, m, passive):
        for seed in range(4):
            assert mirror_holds(
                build_state_space(random_params(seed, n, m, passive=passive, exact=True))
            )

    def test_four_mode_two_field_system(self):
        assert mirror_holds(random_system(11, 4, 2, exact=True))

    @pytest.mark.parametrize("name,holds", [
        ("gain_system", True),
        ("quadrature_hidden_pair", True),
        ("classical_pole_only", False),
        ("classical_hidden_mode", False),
    ])
    def test_bundled_specs(self, name, holds):
        # a classical system is no quantum system: nothing mirrors its poles
        ss, _ = load_system_spec(SPEC_DIR / f"{name}.json")
        assert mirror_holds(ss) is holds


class TestRootExtraction:
    def test_exact_linear_factors(self):
        p = (S - 1) * (S - 1) * Poly([GaussianRational(0, 1), 1])  # (s-1)^2 (s+i)
        exact, numeric = polynomial_roots_exact_first(p)
        assert not numeric
        assert sorted(str(r) for r in exact) == ["-i", "1", "1"]

    def test_numeric_residual_flagged(self):
        p = S * S - 2  # roots +-sqrt(2), not Gaussian rational
        exact, numeric = polynomial_roots_exact_first(p)
        assert not exact
        assert sorted(round(z.real, 6) for z in numeric) == [-1.414214, 1.414214]


def _fractions(draw_int):
    return st.builds(Fraction, draw_int, st.integers(1, 12))


class TestRootExtractionProperties:
    """``_rationalize`` runs limit_denominator's continued fraction on the
    ints of the float; the numeric residual is np.roots of the deflated
    polynomial, as a second call on it would give."""

    finite = st.floats(allow_nan=False, allow_infinity=False)

    @settings(max_examples=300, deadline=None)
    @given(finite, finite)
    @example(0.0, -0.0)
    @example(-0.0, 0.0)
    @example(3.0, -7.0)
    @example(5e-324, -5e-324)
    @example(2.2250738585072014e-308, 1e-310)
    @example(1e300, -1e300)
    @example(1.7976931348623157e308, 1 / 3)
    @example(0.1, 2.5e-7)
    @example(1e6 + 0.5, -(1e6 + 0.5))
    def test_rationalize_is_limit_denominator(self, re, im):
        want = GaussianRational(
            Fraction(re).limit_denominator(10**6), Fraction(im).limit_denominator(10**6)
        )
        assert _rationalize(complex(re, im)) == want

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.builds(GaussianRational, _fractions(st.integers(-9, 9)),
                           _fractions(st.integers(-9, 9))), max_size=4),
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    )
    def test_numeric_residual_is_roots_of_deflated(self, roots, tail):
        # rational roots times s^k + (tail) - 2, mostly without rational roots
        rest = Poly([c - (2 if i == 0 else 0) for i, c in enumerate(tail)] + [1])
        p = rest
        for r in roots:
            p = p * Poly([-r, 1])
        exact, numeric = polynomial_roots_exact_first(p)
        deflated = p.monic()
        for r in exact:
            deflated, rem = divmod(deflated, Poly([-r, 1]))
            assert rem.is_zero()
        if deflated.degree < 1:
            assert numeric == []
        else:
            assert numeric == [complex(z) for z in np.roots(deflated.horner_coeffs())]
