import numpy as np
import pytest

from lqsys import exactlinalg as xl
from lqsys.errors import NumericalError
from lqsys import (
    HiddenModeConditionError,
    QSystemParams,
    StateSpace,
    build_state_space,
    check_imaginary_hidden_modes,
    classify_left_invertibility,
    frequency_response,
    gain_system,
    invariant_zeros_flat,
    invariant_zeros_pencil,
    invariant_zeros_via_kalman,
    kalman_decompose,
    minimal_realization,
    passive_cavity,
    poles,
    random_params,
    to_quadrature,
    with_lossless_modes,
)


class TestDecomposition:
    def test_hidden_pair_blocks(self, quad_hidden_pair, spectrum_equal):
        kal = kalman_decompose(quad_hidden_pair)
        spectrum_equal(kal.eig_c_obar, [-1.0])
        spectrum_equal(kal.eig_cbar_o, [1.0])
        assert kal.eig_co.is_empty() and kal.eig_cbar_obar.is_empty()
        assert kal.block_dims == (1, 0, 0, 1)

    def test_gain_fully_minimal(self, gain, spectrum_equal):
        kal = kalman_decompose(gain)
        spectrum_equal(kal.eig_co, [0.5, 0.5])
        assert kal.block_dims == (0, 2, 0, 0)

    def test_composite_direct_sum(self, spectrum_equal):
        params = with_lossless_modes(gain_system(), [1.0])
        kal = kalman_decompose(build_state_space(params))
        spectrum_equal(kal.eig_co, [0.5, 0.5])
        spectrum_equal(kal.eig_cbar_obar, [1j, -1j])
        assert kal.eig_c_obar.is_empty() and kal.eig_cbar_o.is_empty()

    def test_block_union_is_full_spectrum(self):
        from lqsys.spectra import multiset_match

        for seed in range(10):
            ss = build_state_space(random_params(seed, (seed % 3) + 1, (seed % 2) + 1))
            kal = kalman_decompose(ss)
            union = (
                kal.eig_co.expand()
                + kal.eig_c_obar.expand()
                + kal.eig_cbar_o.expand()
                + kal.eig_cbar_obar.expand()
            )
            assert multiset_match(union, np.linalg.eigvals(ss.A), 1e-8) is not None


    @pytest.mark.parametrize("representation", ["annihilation", "quadrature"])
    def test_no_fields_or_no_states(self, representation):
        """With no fields every mode is uncontrollable and unobservable;
        with no states all four blocks are empty and only D remains."""
        rotation = [[0.0, 1.0], [-1.0, 0.0]]
        kal = kalman_decompose(StateSpace.from_matrices(rotation, [[], []], [], [], representation))
        assert kal.block_dims == (0, 0, 2, 0)
        assert kal.minimal.A.shape == (0, 0) and kal.minimal.D.shape == (0, 0)
        kal = kalman_decompose(StateSpace.from_matrices([], [], [], np.eye(2), representation))
        assert kal.block_dims == (0, 0, 0, 0)
        assert kal.minimal.B.shape == (0, 2) and kal.minimal.C.shape == (2, 0)
        assert np.array_equal(kal.minimal.D, np.eye(2))


class TestSubspaceTolerance:
    def test_ambiguous_intersection_raises(self):
        from lqsys import SubspaceToleranceError
        from lqsys.kalman import _intersect

        theta = np.arccos(1 - 1e-5)  # principal cosine inside the ambiguous band
        q1 = np.array([[1.0], [0.0]])
        q2 = np.array([[np.cos(theta)], [np.sin(theta)]])
        with pytest.raises(SubspaceToleranceError) as exc:
            _intersect(q1, q2, 1e-9)
        assert exc.value.gap is not None and "adjust tol" in str(exc.value)


class TestHiddenModeCondition:
    def test_real_hidden_pair_fails(self, quad_hidden_pair):
        hm = check_imaginary_hidden_modes(quad_hidden_pair)
        assert not hm.holds
        assert sorted(z.real for z in hm.offending) == [-1.0, 1.0]

    def test_minimal_system_holds_vacuously(self, gain):
        assert check_imaginary_hidden_modes(gain).holds

    def test_lossless_extension_holds(self):
        params = with_lossless_modes(passive_cavity(1, 2), [2.0])
        assert check_imaginary_hidden_modes(build_state_space(params)).holds


class TestKalmanZeroFormula:
    def test_passive_cavity(self, cavity, spectrum_equal):
        rep = invariant_zeros_via_kalman(cavity)
        spectrum_equal(rep, [1 - 1j, 1 + 1j])
        assert rep.method == "kalman_theorem"

    def test_gain(self, gain, spectrum_equal):
        spectrum_equal(invariant_zeros_via_kalman(gain), [-0.5, -0.5])

    def test_cavity_with_lossless_mode(self, spectrum_equal):
        params = with_lossless_modes(passive_cavity(1, 2), [2.0])
        ss = build_state_space(params)
        rep = invariant_zeros_via_kalman(ss)
        spectrum_equal(rep, [1 - 1j, 1 + 1j, 2j, -2j])
        # cross-method oracle: same multiset as the flat-adjoint route
        assert rep.matches(invariant_zeros_flat(ss), 1e-8)

    def test_refuses_classical_system(self, classical_pole_only):
        # a classical realization can satisfy the hidden-mode condition
        # vacuously, but the mirrored-eigenvalue formula still has no basis
        from lqsys import RealizabilityError

        with pytest.raises(RealizabilityError):
            invariant_zeros_via_kalman(classical_pole_only)

    def test_refuses_real_hidden_pair(self, quad_hidden_pair, spectrum_equal):
        # actual invariant zeros are {-1, +1}; the formula would give
        # {-1, -1}, so the refusal path must trigger instead
        spectrum_equal(invariant_zeros_pencil(quad_hidden_pair), [-1.0, 1.0])
        with pytest.raises(HiddenModeConditionError):
            invariant_zeros_via_kalman(quad_hidden_pair)

    def test_matches_other_methods_on_passive_corpus(self):
        for seed in range(20):
            params = random_params(seed, (seed % 3) + 1, (seed % 2) + 1, passive=True)
            ss = build_state_space(params)
            theorem = invariant_zeros_via_kalman(ss)
            assert theorem.matches(invariant_zeros_flat(ss), 1e-8)
            assert theorem.matches(invariant_zeros_pencil(ss), 1e-8)


class TestMinimalRealization:
    def test_already_minimal(self, gain):
        mini = minimal_realization(gain)
        assert mini.state_dim == gain.state_dim
        for s in (0.3 + 0.4j, 2.0, -1.0 + 2.0j):
            assert np.allclose(
                frequency_response(mini, s), frequency_response(gain, s), atol=1e-8
            )

    def test_composite_drops_lossless_block(self):
        ss = build_state_space(with_lossless_modes(gain_system(), [1.0]))
        mini = minimal_realization(ss)
        assert mini.state_dim == 2
        for s in (0.4 + 0.2j, 1.7):
            assert np.allclose(
                frequency_response(mini, s), frequency_response(ss, s), atol=1e-8
            )

    def test_hidden_pair_reduces_to_static(self, quad_hidden_pair):
        mini = minimal_realization(quad_hidden_pair)
        assert mini.state_dim == 0
        # brute-force oracle: the full realization's transfer is exactly I
        for s in (0.5, 1.3 + 0.7j, -2.0 + 0.1j):
            assert np.allclose(frequency_response(quad_hidden_pair, s), np.eye(2), atol=1e-12)
        assert np.allclose(mini.D, np.eye(2))
        assert mini.representation == "quadrature"

    def test_transfer_preserved_at_random_points(self):
        rng = np.random.default_rng(31)
        for seed in range(8):
            ss = build_state_space(random_params(seed, 3, 1))
            mini = minimal_realization(ss)
            eigs = np.linalg.eigvals(ss.A)
            count = 0
            while count < 10:
                s = complex(rng.standard_normal() * 3, rng.standard_normal() * 3)
                if min(abs(eigs - s)) < 0.2:
                    continue
                assert np.allclose(
                    frequency_response(mini, s), frequency_response(ss, s),
                    rtol=1e-8, atol=1e-8,
                )
                count += 1

    def test_quadrature_minimal_stays_real(self, dpa):
        mini = minimal_realization(to_quadrature(dpa))
        assert mini.representation == "quadrature"
        assert not np.iscomplexobj(mini.A)

    def test_quadrature_split_stays_real(self):
        # lossless modes make every Kalman basis, range and null space alike,
        # nontrivial; all of them come out of real SVDs
        params = with_lossless_modes(random_params(5, 2, 1, passive=True), [0.5, 2.0])
        q = to_quadrature(build_state_space(params))
        kal = kalman_decompose(q)
        assert kal.block_dims == (0, 4, 4, 0)
        mini = kal.minimal
        for x in (kal.transformation, mini.A, mini.B, mini.C, mini.D):
            assert not np.iscomplexobj(x)

    def test_rank_cut_is_scale_free(self):
        # B and C of size 1e-12: the scale-free floor keeps both states
        # controllable and observable, a unit floor would drop them
        ss = StateSpace(A=np.diag([-1.0, -2.0]), B=1e-12 * np.ones((2, 1)),
                        C=1e-12 * np.ones((1, 2)), D=np.eye(1), representation="annihilation")
        assert kalman_decompose(ss).block_dims == (0, 2, 0, 0)

    @pytest.mark.parametrize("a, b, c", [
        (np.full((2, 2), 1.5e308), [[1e-300], [0]], [[1.0, 0.0]]),
        ([[0.0, 9e307], [-9e307, 9e307]], [[1.0], [1e-300]], [[-1.0, 0.5]]),
    ], ids=["blocks-off-co", "co-block"])
    def test_transformed_system_overflow_is_a_numerical_error(self, a, b, c):
        # the Krylov matrices stay finite, but A T overflows; in the second
        # case inside the co block, which the minimal realization is made of
        ss = StateSpace(np.array(a), np.array(b), np.array(c), np.eye(1), "annihilation")
        with pytest.raises(NumericalError, match="the transformed system overflows"):
            kalman_decompose(ss)


def _cavity_into_gain():
    """The exact kappa = 1 cavity in series with the gain system:
    A = [[A1, 0], [B2 C1, A2]], B = [B1; B2 D1], C = [D2 C1, C2], D = D2 D1,
    with the state reordered to (a1, a2, a1#, a2#).  Realizable, with
    transfer matrix I: every mode is hidden."""
    s1 = build_state_space(QSystemParams.create([[0]], [[0]], [[1]], [[0]]))
    s2 = build_state_space(gain_system())
    a1, b1, c1, d1 = (s1.exact[k] for k in "ABCD")
    a2, b2, c2, d2 = (s2.exact[k] for k in "ABCD")
    a = xl.mat_block([[a1, xl.mat_zeros(2, 2)], [b2 @ c1, a2]])
    b = xl.mat_block([[b1], [b2 @ d1]])
    c = xl.mat_block([[d2 @ c1, c2]])
    p = [0, 2, 1, 3]
    return StateSpace.from_matrices(a[p][:, p], b[p], c[:, p], d2 @ d1)


class TestComplementRank:
    def test_cascade_into_gain_splits_and_refuses_on_hidden_modes(self):
        # the projected complement of a column already in the subspace is
        # rounding residue of unit scale; a scale-free cut kept it and the
        # blocks came out (2, 2, 2, 0), which does not fill the space
        ss = _cavity_into_gain()
        assert kalman_decompose(ss).block_dims == (2, 0, 0, 2)
        assert poles(ss).is_empty()
        with pytest.raises(HiddenModeConditionError):
            invariant_zeros_via_kalman(ss)
        with pytest.raises(HiddenModeConditionError):
            classify_left_invertibility(ss)
