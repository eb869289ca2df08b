import dataclasses

import numpy as np
import pytest

from lqsys import (
    DimensionError,
    NumericalError,
    ParameterError,
    RealizabilityError,
    RosenbrockPencil,
    StateSpace,
    build_state_space,
    det_zero_test,
    invariant_zeros_flat,
    invariant_zeros_pencil,
    normalrank,
    poles,
    random_params,
    rank_at_tolerance,
    to_quadrature,
    transfer_matrix_exact,
    transmission_zeros,
    verify_det_identity,
    verify_pole_zero_mirror,
    with_lossless_modes,
    zero_directions,
)
from lqsys.linalg import flat_adjoint, sharp_adjoint
from lqsys.rational import Poly

S = Poly.s()


class TestInvariantZerosPencil:
    def test_passive_cavity(self, cavity, spectrum_equal):
        spectrum_equal(invariant_zeros_pencil(cavity), [1 - 1j, 1 + 1j])

    def test_gain(self, gain, spectrum_equal):
        spectrum_equal(invariant_zeros_pencil(gain), [-0.5, -0.5])

    def test_quadrature_hidden_pair(self, quad_hidden_pair, spectrum_equal):
        spectrum_equal(invariant_zeros_pencil(quad_hidden_pair), [-1.0, 1.0])

    def test_classical_hidden_mode(self, classical_hidden_mode, spectrum_equal):
        spectrum_equal(invariant_zeros_pencil(classical_hidden_mode), [0.0, 2.0])

    def test_singular_feedthrough_fallback(self, classical_pole_only):
        rep = invariant_zeros_pencil(classical_pole_only)
        assert rep.is_empty()
        assert "singular-feedthrough" in rep.notes

    def test_singular_pencil_drops_indeterminate_pairs(self, spectrum_equal):
        # P(s) = P0 - sE is singular for every s (the zero second input and
        # output); QZ returns alpha = beta = 0 for it, and beta = 0 with
        # alpha != 0 for the infinite eigenvalue
        ss = StateSpace.from_matrices(
            [[1, 0], [0, 2]], [[1, 0], [0, 0]], [[1, 0], [0, 0]], [[0, 0], [0, 0]]
        )
        rep = invariant_zeros_pencil(ss)
        spectrum_equal(rep, [2.0])
        assert "rank-sweep-confirmed" in rep.notes

    def test_count_equals_state_dimension(self):
        for seed in range(8):
            ss = build_state_space(random_params(seed, (seed % 4) + 1, 2))
            assert invariant_zeros_pencil(ss).total == ss.state_dim


class TestInvariantZerosFlat:
    def test_passive_cavity(self, cavity, spectrum_equal):
        spectrum_equal(invariant_zeros_flat(cavity), [1 - 1j, 1 + 1j])

    def test_quadrature_uses_sharp(self, quad_hidden_pair, spectrum_equal):
        spectrum_equal(invariant_zeros_flat(quad_hidden_pair), [-1.0, 1.0])

    def test_lossless_self_mirror(self, spectrum_equal):
        from lqsys import QSystemParams

        ss = build_state_space(QSystemParams.create([[2]], [[0]], [[0]], [[0]]))
        spectrum_equal(invariant_zeros_flat(ss), [2j, -2j])

    def test_refuses_non_realizable(self, classical_hidden_mode):
        with pytest.raises(RealizabilityError):
            invariant_zeros_flat(classical_hidden_mode)


class TestPolesAndTransmissionZeros:
    def test_gain(self, gain, spectrum_equal):
        spectrum_equal(poles(gain), [0.5, 0.5])
        spectrum_equal(transmission_zeros(gain), [-0.5, -0.5])

    def test_dpa_quadrature(self, dpa, spectrum_equal):
        q = to_quadrature(dpa)
        spectrum_equal(poles(q), [-0.5, -1.5])
        spectrum_equal(transmission_zeros(q), [0.5, 1.5])

    def test_classical_pole_only(self, classical_pole_only, spectrum_equal):
        spectrum_equal(poles(classical_pole_only), [1.0, 1.0])
        assert transmission_zeros(classical_pole_only).is_empty()

    def test_classical_hidden_mode(self, classical_hidden_mode, spectrum_equal):
        spectrum_equal(poles(classical_hidden_mode), [1.0])
        spectrum_equal(transmission_zeros(classical_hidden_mode), [0.0])

    def test_exact_paths_agree_with_numeric(self, gain, classical_hidden_mode):
        for ss in (gain, classical_hidden_mode):
            g = transfer_matrix_exact(ss)
            assert poles(g).matches(poles(ss), 1e-8)
            assert transmission_zeros(g).matches(transmission_zeros(ss), 1e-8)


class TestDetZeroCriterion:
    def test_gain_zero_point(self, gain):
        assert det_zero_test(gain, -0.5) is True

    def test_gain_regular_point(self, gain):
        assert det_zero_test(gain, 1.0) is False

    def test_dpa_zero_point(self, dpa):
        assert det_zero_test(to_quadrature(dpa), 1.5) is True

    def test_pole_precondition(self, gain):
        with pytest.raises(ParameterError):
            det_zero_test(gain, 0.5)

    def test_both_directions_sampled(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            ss = build_state_space(random_params(seed, 2, 1))
            zs = transmission_zeros(ss).expand()
            ps = poles(ss).expand()
            for z in zs:
                if min((abs(z - p) for p in ps), default=np.inf) > 1e-6:
                    assert det_zero_test(ss, z, tol=1e-6)
            for _ in range(3):
                s = complex(rng.standard_normal(), rng.standard_normal()) * 3
                clear_of = [abs(s - w) > 0.3 for w in zs + ps]
                if all(clear_of):
                    assert not det_zero_test(ss, s)


class TestZeroDirections:
    def test_unobservable_mode_flag(self, quad_hidden_pair):
        zd = zero_directions(quad_hidden_pair, -1.0)
        assert zd.unobservable_mode and not zd.uncontrollable_mode
        # right null vector has no input component and P(s0) annihilates it
        pencil = RosenbrockPencil.from_state_space(quad_hidden_pair)
        vec = np.concatenate([zd.x, zd.u])
        assert np.linalg.norm(pencil.evaluate(-1.0) @ vec) < 1e-10
        assert abs(np.linalg.norm(vec) - 1) < 1e-12

    def test_uncontrollable_mode_flag(self, quad_hidden_pair):
        zd = zero_directions(quad_hidden_pair, 1.0)
        assert zd.uncontrollable_mode and not zd.unobservable_mode
        pencil = RosenbrockPencil.from_state_space(quad_hidden_pair)
        left = np.concatenate([zd.y, zd.v])
        assert np.linalg.norm(left.conj() @ pencil.evaluate(1.0)) < 1e-10

    def test_minimal_system_flags_clear(self, gain):
        zd = zero_directions(gain, -0.5)
        assert not zd.unobservable_mode and not zd.uncontrollable_mode

    def test_complex_zero_of_cavity(self, cavity):
        zd = zero_directions(cavity, 1 + 1j)
        assert not zd.unobservable_mode and not zd.uncontrollable_mode
        pencil = RosenbrockPencil.from_state_space(cavity)
        vec = np.concatenate([zd.x, zd.u])
        assert np.linalg.norm(pencil.evaluate(1 + 1j) @ vec) < 1e-10
        left = np.concatenate([zd.y, zd.v])
        assert np.linalg.norm(left.conj() @ pencil.evaluate(1 + 1j)) < 1e-10

    def test_rejects_non_zero(self, gain):
        with pytest.raises(NumericalError) as exc:
            zero_directions(gain, 3.0)
        assert "singular value" in str(exc.value)

    def test_empty_system(self):
        empty = np.zeros((0, 0))
        ss = StateSpace(A=empty, B=empty, C=empty, D=empty, representation="annihilation")
        with pytest.raises(DimensionError):
            zero_directions(ss, 0.0)


def tiny_system(a, b, c, d):
    return StateSpace(A=[[a]], B=[[b]], C=[[c]], D=[[d]], representation="annihilation")


class TestRankFloors:
    """The singular-D test, the det criterion and the zero directions cut
    at tol * max(1, s1): a matrix whose singular values all sit below tol
    is singular there, however well conditioned."""

    def test_small_feedthrough_is_singular(self):
        ss = StateSpace(A=-np.eye(2), B=np.eye(2), C=np.eye(2),
                        D=np.diag([1e-3, 1e-11]), representation="annihilation")
        assert "singular-feedthrough" in invariant_zeros_pencil(ss).notes

    def test_det_criterion_on_a_tiny_transfer(self):
        # G(s0) is about 1e-12 at every s0: a zero under floor 1, not under 0
        assert det_zero_test(tiny_system(-1.0, 1e-12, 1e-12, 1e-12), 1.0)
        assert not det_zero_test(tiny_system(-1.0, 1.0, 1.0, 1.0), 1.0)

    def test_zero_directions_of_a_tiny_pencil(self):
        # P(0) = diag(1e-12, 1e-12) is rank 0 under floor 1, full under 0
        zd = zero_directions(tiny_system(1e-12, 0.0, 0.0, 1e-12), 0.0)
        assert zd.smallest_singular_value == 1e-12


class TestPoleZeroMirror:
    def test_quantum_examples_pass(self, gain, cavity, dpa):
        for ss in (gain, cavity, to_quadrature(dpa)):
            assert verify_pole_zero_mirror(ss).passed

    def test_classical_counterexample_fails(self, classical_pole_only):
        rep = verify_pole_zero_mirror(classical_pole_only)
        assert not rep.passed
        assert rep.zeros.is_empty() and not rep.poles.is_empty()

    def test_random_realizable_corpus(self):
        for seed in range(25):
            ss = build_state_space(random_params(seed, (seed % 3) + 1, (seed % 2) + 1))
            assert verify_pole_zero_mirror(ss, tol=1e-7).passed

    def test_imaginary_pole_is_imaginary_zero(self):
        # DPA at the epsilon = kappa limit: pole at the origin pairs with a
        # transmission zero at the origin
        from lqsys import QuadPlantParams, RationalMatrix, quadrature_transfer
        from lqsys.rational import GaussianRational

        params = QuadPlantParams.from_coupling_product(GaussianRational(0, 1), 2)
        g_q, g_p = quadrature_transfer(params)
        g = RationalMatrix([[g_q, 0], [0, g_p]])
        rep = verify_pole_zero_mirror(g)
        assert rep.passed
        imag_poles = [p for p in rep.poles.expand() if abs(p.real) <= 1e-8]
        assert imag_poles
        for p in imag_poles:
            assert min(abs(z - p) for z in rep.zeros.expand()) <= 1e-8


class TestDetIdentity:
    def test_gain_exact(self, gain):
        rep = verify_det_identity(gain)
        assert rep.ok and rep.mode == "exact"
        # both sides are (s + 1/2)^2
        assert rep.det_adjoint == (0.25 + 0j, 1 + 0j, 1 + 0j)

    def test_quadrature_sharp_analog(self, quad_hidden_pair):
        rep = verify_det_identity(quad_hidden_pair)
        assert rep.ok and rep.mode == "exact"
        # (s+1)(s-1) = s^2 - 1
        assert rep.det_adjoint == (-1 + 0j, 0j, 1 + 0j)

    def test_random_exact(self):
        for seed in range(10):
            ss = build_state_space(random_params(seed, (seed % 3) + 1, (seed % 2) + 1, exact=True))
            rep = verify_det_identity(ss)
            assert rep.ok and rep.mode == "exact"
            assert abs(rep.unit - 1) < 1e-12  # D = I for built systems

    def test_numeric_fallback(self, cavity):
        rep = verify_det_identity(cavity)
        assert rep.ok and rep.mode == "numeric"

    def test_singular_feedthrough_fails(self, classical_pole_only):
        # the float rule: no pencil side and unit (-1)^ns det D = 0
        rep = verify_det_identity(classical_pole_only)
        assert not rep.ok and rep.mode == "exact"
        assert rep.det_pencil == () and rep.unit == 0

    def test_closed_system(self):
        from lqsys import QSystemParams

        ss = build_state_space(QSystemParams.create([[1]], [[0]], [[0]], [[0]]))
        rep = verify_det_identity(ss)
        assert rep.ok and rep.mode == "exact"


def float_realizable(n, kind, representation, seed=6):
    """A seeded realizable float system.  At seed 6 every case from n = 5
    up defeats a polynomial fit through determinants sampled at 0..ns."""
    if kind == "generic":
        params = random_params(seed, n, 2)
    else:
        params = with_lossless_modes(random_params(seed, n, 1, passive=True), [0.8, 2.1])
    ss = build_state_space(params)
    return ss if representation == "annihilation" else to_quadrature(ss)


class TestNumericDetIdentity:
    """The numeric identity holds on realizable float systems well past
    n = 4, and fails when its premises do."""

    @pytest.mark.parametrize("representation", ["annihilation", "quadrature"])
    @pytest.mark.parametrize("kind", ["generic", "passive"])
    @pytest.mark.parametrize("n", [5, 10, 20, 40])
    def test_realizable_systems_hold(self, n, kind, representation):
        ss = float_realizable(n, kind, representation)
        rep = verify_det_identity(ss)
        assert rep.ok and rep.mode == "numeric"
        expected_unit = (-1) ** ss.state_dim * np.linalg.det(ss.D)
        assert abs(rep.unit - expected_unit) <= 1e-9
        assert len(rep.det_pencil) == len(rep.det_adjoint) == ss.state_dim + 1

    @pytest.mark.parametrize("representation", ["annihilation", "quadrature"])
    @pytest.mark.parametrize("kind", ["generic", "passive"])
    @pytest.mark.parametrize("n", [2, 5])
    def test_polynomials_match_sampled_determinants(self, n, kind, representation):
        """Both reported polynomials, built from spectra, against dense
        determinants of P(s) and of sI + A^b at sample points.  A physical
        D has det D = +-1, so the pencil side is also checked with D scaled
        by 1.5, which breaks the identity but not the determinant."""
        ss = float_realizable(n, kind, representation)
        if representation == "annihilation":
            neg_adj = -flat_adjoint(ss.A)
        else:
            neg_adj = -sharp_adjoint(ss.A.real)
        eye = np.eye(ss.state_dim)
        scaled = dataclasses.replace(ss, D=1.5 * ss.D)
        for sys_, rep in ((ss, verify_det_identity(ss)), (scaled, verify_det_identity(scaled))):
            pencil = RosenbrockPencil.from_state_space(sys_)
            for s0 in (0.3 + 0.7j, -1.1 + 0.2j, 2.0):
                left = np.polyval(rep.det_pencil[::-1], s0)
                right = np.polyval(rep.det_adjoint[::-1], s0)
                det_p = np.linalg.det(pencil.evaluate(s0))
                det_a = np.linalg.det(s0 * eye - neg_adj)
                assert abs(left - det_p) <= 1e-8 * abs(det_p)
                assert abs(right - det_a) <= 1e-8 * abs(det_a)

    def test_holds_across_seeds(self):
        for seed in range(12):
            for n, kind in ((3, "generic"), (5, "passive"), (8, "generic")):
                for representation in ("annihilation", "quadrature"):
                    ss = float_realizable(n, kind, representation, seed)
                    assert verify_det_identity(ss).ok, (seed, n, kind, representation)

    def test_perturbed_a_is_not_realizable_and_fails(self):
        ss = float_realizable(5, "generic", "annihilation")
        bump = np.zeros_like(ss.A)
        bump[0, 1] = 0.1
        rep = verify_det_identity(dataclasses.replace(ss, A=ss.A + bump))
        assert not rep.ok and rep.mode == "numeric"

    def test_singular_feedthrough_fails(self, cavity):
        ss = dataclasses.replace(cavity, D=np.diag([1.0, 0.0]))
        rep = verify_det_identity(ss)
        assert not rep.ok and rep.mode == "numeric"
        assert rep.det_pencil == () and rep.unit == 0


class TestNormalRank:
    def test_always_full_for_quantum(self):
        for seed in range(8):
            ss = build_state_space(random_params(seed, (seed % 3) + 1, (seed % 2) + 1))
            assert normalrank(ss) == ss.state_dim + ss.field_dim

    def test_rank_drops_at_invariant_zero(self, cavity):
        pencil = RosenbrockPencil.from_state_space(cavity)
        full = normalrank(cavity)
        assert full == 4
        assert rank_at_tolerance(pencil.evaluate(1 + 1j), 1e-9) == 3
