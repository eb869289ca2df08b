import numpy as np
import pytest

from lqsys import (
    HiddenModeConditionError,
    RealizabilityError,
    StateSpace,
    build_state_space,
    classify_left_invertibility,
    inversion_witness,
    random_params,
    to_quadrature,
    transmission_zeros,
)
from lqsys.model import InverseIdentityReport


def unitary_symplectic(rng, n):
    """Random orthogonal matrix commuting with the quadrature structure:
    Q = [[X, -Y], [Y, X]] with X + iY unitary."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(z)
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


class TestClassification:
    def test_gain_is_invertible(self, gain):
        rep = classify_left_invertibility(gain)
        assert rep.as_left_invertible is True
        assert rep.verdict == "as-left-invertible"
        assert rep.as_star_left_invertible is True
        assert rep.s_left_invertible is None

    def test_cavity_is_not(self, cavity):
        rep = classify_left_invertibility(cavity)
        assert rep.as_left_invertible is False
        assert all(m < 0 for m in rep.margins)

    def test_hidden_pair_refused(self, quad_hidden_pair):
        with pytest.raises(HiddenModeConditionError):
            classify_left_invertibility(quad_hidden_pair)

    def test_non_realizable_refused(self, classical_hidden_mode):
        with pytest.raises(RealizabilityError):
            classify_left_invertibility(classical_hidden_mode)

    def test_boundary_is_indeterminate(self):
        from lqsys import QSystemParams

        # closed lossless mode: observable set empty, uncontrollable modes
        # purely imaginary; margins list is empty so verdict is vacuous-true
        ss = build_state_space(QSystemParams.create([[1]], [[0]], [[0]], [[0]]))
        rep = classify_left_invertibility(ss)
        assert rep.as_left_invertible is True and rep.margins == ()

    def test_verdict_invariant_under_structure_preserving_basis_change(self, gain, cavity):
        rng = np.random.default_rng(23)
        for ss, expected in ((gain, True), (cavity, False)):
            q = to_quadrature(ss)
            a, b, c, d = q.real_matrices()
            for _ in range(5):
                t = unitary_symplectic(rng, q.n)
                ss2 = StateSpace.from_matrices(
                    t.T @ a @ t, t.T @ b, c @ t, d, representation="quadrature"
                )
                rep = classify_left_invertibility(ss2)
                assert rep.as_left_invertible is expected

    def test_invertible_systems_have_lhp_zeros(self):
        for seed in range(30):
            ss = build_state_space(random_params(seed, (seed % 3) + 1, (seed % 2) + 1))
            try:
                rep = classify_left_invertibility(ss)
            except HiddenModeConditionError:
                continue
            if rep.as_left_invertible:
                zs = transmission_zeros(ss).expand()
                assert all(z.real < 0 for z in zs)


class TestInversionWitness:
    def test_gain_scalar_values(self, gain):
        wit = inversion_witness(gain, [1.0], tol=1e-10)
        assert wit.ok and wit.max_residual < 1e-12

    def test_inverse_poles_are_mirrored_zeros(self, dpa, spectrum_equal):
        q = to_quadrature(dpa)
        wit = inversion_witness(q, [0.7 + 0.1j], tol=1e-9)
        # zeros are {1/2, 3/2}; the inverse has poles at their negated
        # conjugates {-1/2, -3/2}
        spectrum_equal(wit.inverse_poles, [-0.5, -1.5])

    def test_closed_system_identity(self):
        from lqsys import QSystemParams

        ss = build_state_space(QSystemParams.create([[1]], [[0]], [[0]], [[0]]))
        wit = inversion_witness(ss, [0.5, 1.0 + 1.0j], tol=1e-12)
        assert wit.ok

    def test_pole_sample_skipped(self, gain):
        wit = inversion_witness(gain, [0.5, 1.0], tol=1e-9)
        assert 0.5 + 0j in wit.skipped and wit.ok

    def test_extends_the_inverse_identity_report(self, gain):
        wit = inversion_witness(gain, [0.5, 1.0], tol=1e-9)
        assert isinstance(wit, InverseIdentityReport)
        assert list(wit.to_dict()) == ["ok", "max_residual", "checked", "skipped", "inverse_poles"]
