from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqsys import (
    DimensionError,
    GaussianRational,
    NumericalError,
    ParameterError,
    PoleEvaluationError,
    QSystemParams,
    RealizabilityError,
    StateSpace,
    build_state_space,
    check_physical_realizability,
    classify_left_invertibility,
    flat_adjoint,
    frequency_response,
    invariant_zeros_flat,
    invariant_zeros_via_kalman,
    minimal_realization,
    random_params,
    to_quadrature,
    verify_inverse_identity,
    with_lossless_modes,
)
from lqsys import exactlinalg as xl
from lqsys.model import dual_adjoint


def quadrature_unitary(k):
    """V_k = (1/sqrt 2) [[I, I], [-iI, iI]]."""
    i = np.eye(k)
    return np.block([[i, i], [-1j * i, 1j * i]]) / np.sqrt(2)


def _lower_is_conjugate_upper(x):
    """The lower block row of x is the conjugate of the upper one: exactly
    for an object array, bit for bit (signs of zeros included) for floats."""
    k, r = x.shape[0] // 2, x.shape[1] // 2
    lower = np.hstack([x[:k, r:].conj(), x[:k, :r].conj()])
    if x.dtype == object:
        return bool((x[k:] == lower).all())
    return x[k:].tobytes() == lower.tobytes()


class TestBuildStateSpace:
    def test_passive_cavity(self, cavity):
        assert np.allclose(cavity.A, np.diag([-1 - 1j, -1 + 1j]))
        assert np.allclose(cavity.B, -np.sqrt(2) * np.eye(2))
        assert np.allclose(cavity.C, np.sqrt(2) * np.eye(2))
        assert np.allclose(cavity.D, np.eye(2))

    def test_gain_system(self, gain):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(gain.A, 0.5 * np.eye(2))
        assert np.allclose(gain.B, sx)
        assert np.allclose(gain.C, sx)
        assert np.allclose(flat_adjoint(gain.C) @ gain.C, -np.eye(2))
        # both eigenvalues strictly in the open right half plane
        assert all(z.real > 0 for z in np.linalg.eigvals(gain.A))
        assert gain.is_exact

    def test_non_hermitian_omega_rejected(self):
        with pytest.raises(ParameterError):
            QSystemParams.create([[1j]], [[0]], [[1]], [[0]])

    def test_asymmetric_omega_plus_rejected(self):
        with pytest.raises(ParameterError):
            QSystemParams.create(
                [[0, 0], [0, 0]],
                [[0, 1], [0, 0]],
                [[1, 0]],
                [[0, 0]],
            )

    def test_exactness_propagates(self):
        params = random_params(0, 2, 1, exact=True)
        ss = build_state_space(params)
        assert params.is_exact and ss.is_exact

    def test_float_params_are_floating(self, cavity):
        assert not cavity.is_exact

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(0, 3), st.booleans(),
           st.booleans())
    def test_doubled_up_exactly(self, seed, n, m, passive, exact):
        ss = build_state_space(random_params(seed, n, m, passive, exact))
        assert ss.is_exact == exact
        for k in "ABC":
            x = ss.exact[k] if exact else getattr(ss, k)
            assert _lower_is_conjugate_upper(x), k


class TestExactInputCheckedExactly:
    ZERO = [[0, 0], [0, 0]]

    def test_omega_minus_off_by_1e15_rejected(self):
        with pytest.raises(ParameterError, match="Hermitian"):
            QSystemParams.create(
                [[1, Fraction(1, 10**15)], [0, 1]], self.ZERO, [[1, 0]], [[0, 0]]
            )

    def test_omega_plus_off_by_1e15_rejected(self):
        with pytest.raises(ParameterError, match="symmetric"):
            QSystemParams.create(
                self.ZERO, [[1, Fraction(1, 10**15)], [0, 1]], [[1, 0]], [[0, 0]]
            )

    def test_exact_hermitian_and_symmetric_accepted(self):
        params = QSystemParams.create(
            [[1, GaussianRational(1, 2)], [GaussianRational(1, -2), 3]],
            [[GaussianRational(0, 1), "2/3"], [Fraction(2, 3), 0]],
            [[1, 0]],
            [[0, "1/2"]],
        )
        assert params.is_exact
        assert check_physical_realizability(build_state_space(params), 0).passed

    def test_float_input_keeps_its_tolerance(self):
        params = QSystemParams.create(
            [[1.0, 1e-15], [0.0, 1.0]], self.ZERO, [[1, 0]], [[0, 0]]
        )
        assert not params.is_exact

    def test_exact_not_doubled_up_rejected(self):
        eye = [[1, 0], [0, 1]]
        a = [[1, 0], [0, 1 + Fraction(1, 10**12)]]
        ss = StateSpace.from_matrices(a, eye, eye, eye)
        assert ss.is_exact
        with pytest.raises(NumericalError, match="A is not doubled-up"):
            to_quadrature(ss)
        # the float copy is doubled up within the float tolerance
        near = StateSpace.from_matrices([[1.0, 0.0], [0.0, 1.0 + 1e-12]], eye, eye, eye)
        assert not to_quadrature(near).is_exact

    def test_exact_quadrature_off_by_1e13_rejected(self):
        eye = [[1, 0], [0, 1]]
        d = [[GaussianRational(1, Fraction(1, 10**13)), 0], [0, 1]]
        with pytest.raises(ParameterError, match="D is not"):
            StateSpace.from_matrices(eye, eye, eye, d, representation="quadrature")
        # float input keeps its 1e-12 tolerance
        near = [[1 + 1e-13j, 0], [0, 1]]
        ss = StateSpace.from_matrices(eye, eye, eye, near, representation="quadrature")
        assert not ss.is_exact

    def test_exact_doubled_up_converts_exactly(self):
        u, v = GaussianRational(1, 2), GaussianRational(Fraction(1, 3), -1)
        a = [[u, v], [v.conjugate(), u.conjugate()]]
        eye = [[1, 0], [0, 1]]
        q = to_quadrature(StateSpace.from_matrices(a, eye, eye, eye))
        assert q.exact["A"].tolist() == [
            [u.re + v.re, -(u.im - v.im)],
            [u.im + v.im, u.re - v.re],
        ]


class TestArrayForm:
    """The representation alone fixes the stored arrays: complex128 in the
    annihilation representation, float64 in quadrature, whatever the
    input; the constructor checks the representation and realness."""

    EYE = [[1, 0], [0, 1]]

    def test_every_construction_path_stores_the_representations_dtype(self, dpa, gain):
        eye_f = np.eye(2)
        eye_i = np.eye(2, dtype=int)
        eye_x = xl.exact_matrix(self.EYE)
        systems = {
            "build_state_space float": dpa,
            "build_state_space exact": gain,
            "to_quadrature float": to_quadrature(dpa),
            "to_quadrature exact": to_quadrature(gain),
        }
        for rep in ("annihilation", "quadrature"):
            for kind, eye in (("float", eye_f.tolist()), ("exact", self.EYE)):
                ss = StateSpace.from_matrices(eye, eye, eye, eye, representation=rep)
                systems[f"from_matrices {kind} {rep}"] = ss
            for kind, eye in (("int", eye_i), ("object", eye_x)):
                systems[f"raw {kind} {rep}"] = StateSpace(eye, eye, eye, eye, rep)
        for name, ss in list(systems.items()):
            systems[f"Kalman minimal block of {name}"] = minimal_realization(ss)
        want = {"annihilation": np.complex128, "quadrature": np.float64}
        for name, ss in systems.items():
            dtypes = {x.dtype.type for x in (ss.A, ss.B, ss.C, ss.D)}
            assert dtypes == {want[ss.representation]}, name

    @pytest.mark.parametrize("build", ["raw", "from_matrices"])
    def test_unknown_representation_refused_when_made(self, build):
        eye = np.eye(2)
        with pytest.raises(ParameterError, match="unknown representation 'foo'"):
            if build == "raw":
                StateSpace(eye, eye, eye, eye, "foo")
            else:
                StateSpace.from_matrices(eye, eye, eye, eye, representation="foo")

    def test_non_real_exact_quadrature_entry_refused_by_the_constructor(self):
        eye = xl.exact_matrix(self.EYE)
        d = xl.exact_matrix([[GaussianRational(1, Fraction(1, 10**20)), 0], [0, 1]])
        exact = {"A": eye, "B": eye, "C": eye, "D": d}
        with pytest.raises(ParameterError, match="D is not"):
            StateSpace(np.eye(2), np.eye(2), np.eye(2), np.eye(2), "quadrature", exact)
        with pytest.raises(ParameterError, match="A is not"):
            StateSpace(d, eye, eye, eye, "quadrature")

    def test_float_imaginary_part_above_1e12_refused_by_the_constructor(self):
        eye = np.eye(2)
        near = np.diag([1 + 1e-13j, 1])
        assert StateSpace(near, eye, eye, eye, "quadrature").A.tolist() == eye.tolist()
        with pytest.raises(ParameterError, match="B is not"):
            StateSpace(eye, np.diag([1 + 2e-12j, 1]), eye, eye, "quadrature")

    def test_complex_quadrature_a_refused(self):
        # accepted before the constructor checked realness: eigenvalues()
        # gave 0.5i and -1 while the Kalman split kept only the real part
        eye = np.eye(2)
        with pytest.raises(ParameterError, match="A is not"):
            StateSpace(np.diag([0.5j, -1]), eye, eye, eye, representation="quadrature")


class TestRealizability:
    def test_by_construction(self):
        for seed in range(12):
            ss = build_state_space(random_params(seed, (seed % 3) + 1, (seed % 2) + 1))
            rep = check_physical_realizability(ss, 1e-10)
            assert rep.passed, rep.residuals

    def test_quadrature_example_passes(self, quad_hidden_pair):
        rep = check_physical_realizability(quad_hidden_pair, 1e-12)
        assert rep.passed

    def test_classical_system_fails_d_check(self):
        ss = StateSpace.from_matrices(
            [[-1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0], [0, 1]], [[0, 0], [0, 0]],
            representation="quadrature",
        )
        rep = check_physical_realizability(ss, 1e-9)
        assert not rep.passed
        assert rep.residuals["unitary_d"] >= 1.0

    def test_trace_identity(self):
        # A + A^b + C^b C = 0 forces 2 Re tr A = -tr(C^b C)
        for seed in range(8):
            ss = build_state_space(random_params(seed, 3, 2))
            lhs = 2 * np.trace(ss.A).real
            rhs = -np.trace(flat_adjoint(ss.C) @ ss.C).real
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestQuadrature:
    def test_cavity_rotation_decay(self, cavity):
        q = to_quadrature(cavity)
        assert np.allclose(q.A, [[-1.0, 1.0], [-1.0, -1.0]])
        assert q.representation == "quadrature"

    def test_dpa_diagonal(self, dpa):
        q = to_quadrature(dpa)
        assert np.allclose(q.A, np.diag([-0.5, -1.5]))

    def test_eigenvalues_preserved(self):
        from lqsys.spectra import multiset_match

        for seed in range(10):
            ss = build_state_space(random_params(seed, 3, 1))
            q = to_quadrature(ss)
            pairs = multiset_match(
                np.linalg.eigvals(ss.A), np.linalg.eigvals(q.A), 1e-9
            )
            assert pairs is not None

    def test_quadrature_realizability(self):
        for seed in range(6):
            q = to_quadrature(build_state_space(random_params(seed, 2, 2)))
            assert check_physical_realizability(q, 1e-9).passed

    def test_closed_system_imaginary_spectrum(self):
        params = QSystemParams.create(
            [[2, 0], [0, 3]], [[0, 0], [0, 0]], [[0, 0]], [[0, 0]]
        )
        q = to_quadrature(build_state_space(params))
        eigs = np.linalg.eigvals(q.A)
        assert np.max(np.abs(eigs.real)) < 1e-12

    def test_exact_path(self):
        for seed, n, m in ((1, 2, 1), (4, 3, 2)):
            ss = build_state_space(random_params(seed, n, m, exact=True))
            q = to_quadrature(ss)
            assert q.is_exact
            # exact and floating conversions agree
            qf = to_quadrature(StateSpace.from_matrices(ss.A, ss.B, ss.C, ss.D))
            assert not qf.is_exact
            for name in "ABCD":
                exact = q.exact[name]
                assert all(x.is_real() for row in exact for x in row)
                as_float = xl.to_numpy(exact)
                assert np.array_equal(as_float.real, getattr(q, name))
                ref = getattr(qf, name)
                assert np.linalg.norm(as_float - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_rejects_quadrature_input(self, quad_hidden_pair):
        with pytest.raises(ParameterError):
            to_quadrature(quad_hidden_pair)

    def test_rejects_non_doubled_up(self):
        for scalar in (int, float):
            eye = [[scalar(1), scalar(0)], [scalar(0), scalar(1)]]
            a = [[scalar(1), scalar(2)], [scalar(3), scalar(4)]]
            ss = StateSpace.from_matrices(a, eye, eye, eye)
            assert ss.is_exact == (scalar is int)
            with pytest.raises(NumericalError):
                to_quadrature(ss)

    @pytest.mark.parametrize("n", [1, 3, 10, 20])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_block_formula_matches_unitary_conjugation(self, n, m):
        ss = build_state_space(random_params(100 * n + m, n, m))
        q = to_quadrature(ss)
        vn, vm = quadrature_unitary(n), quadrature_unitary(m)
        refs = {
            "A": vn @ ss.A @ vn.conj().T,
            "B": vn @ ss.B @ vm.conj().T,
            "C": vm @ ss.C @ vn.conj().T,
            "D": vm @ ss.D @ vm.conj().T,
        }
        for name, ref in refs.items():
            got = getattr(q, name)
            assert got.dtype == np.float64
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref), name

    @pytest.mark.parametrize("n, m, exact", [(0, 2, True), (2, 0, True), (0, 0, True),
                                             (0, 2, False), (None, 1, True)])
    def test_no_states_or_no_fields(self, n, m, exact):
        """Systems with n = 0 or m = 0 convert with their implied shapes;
        n = None is the static spec A = [], B = [], C = [[], []], D = I."""
        if n is None:
            n, ss = 0, StateSpace.from_matrices([], [], [[], []], [[1, 0], [0, 1]])
        else:
            ss = build_state_space(random_params(7, n, m, exact=exact))
        q = to_quadrature(ss)
        assert q.representation == "quadrature"
        assert q.is_exact and ss.is_exact  # a float draw with no entries is exact
        vn, vm = quadrature_unitary(n), quadrature_unitary(m)
        refs = {
            "A": vn @ ss.A @ vn.conj().T,
            "B": vn @ ss.B @ vm.conj().T,
            "C": vm @ ss.C @ vn.conj().T,
            "D": vm @ ss.D @ vm.conj().T,
        }
        for name, ref in refs.items():
            got = getattr(q, name)
            assert got.shape == q.exact[name].shape == ss.exact[name].shape, name
            assert np.array_equal(got, xl.to_numpy(q.exact[name]).real), name
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref), name
        assert (q.exact["D"] == np.eye(2 * m, dtype=int)).all()

    def test_exact_entry_beyond_the_float_range_raises_numerical_error(self):
        big, eye = 10**308, [[1, 0], [0, 1]]
        ss = StateSpace.from_matrices([[big, big], [big, big]], eye, eye, eye)
        with pytest.raises(NumericalError):
            to_quadrature(ss)  # Re(U + W) = 2e308 has no float copy

    def test_odd_dimension_raises_dimension_error(self):
        one = [[1]]
        ss = StateSpace.from_matrices(one, one, one, one)
        with pytest.raises(DimensionError):
            to_quadrature(ss)


class TestFrequencyResponse:
    def test_gain_at_one(self, gain):
        assert np.allclose(frequency_response(gain, 1.0), 3 * np.eye(2))

    def test_cavity_at_zero(self, cavity):
        assert np.allclose(frequency_response(cavity, 0.0), np.diag([1j, -1j]))

    def test_high_frequency_approaches_feedthrough(self, cavity, gain, dpa):
        for ss in (cavity, gain, dpa):
            g = frequency_response(ss, 1e9)
            assert np.max(np.abs(g - ss.D)) < 1e-6

    def test_pole_evaluation_error_names_eigenvalue(self, gain):
        with pytest.raises(PoleEvaluationError) as exc:
            frequency_response(gain, 0.5)
        assert abs(exc.value.pole - 0.5) < 1e-12


class TestInverseIdentity:
    def test_gain_scalar_case(self, gain):
        # G(2) = (5/2)/(3/2) = 5/3; dual adjoint of G(-2) is (3/5) I
        g2 = frequency_response(gain, 2.0)
        assert np.allclose(g2, (5 / 3) * np.eye(2))
        h = dual_adjoint(frequency_response(gain, -2.0), "annihilation")
        assert np.allclose(g2 @ h, np.eye(2), atol=1e-12)

    def test_dpa_at_i(self, dpa):
        rep = verify_inverse_identity(dpa, [1j], tol=1e-12)
        assert rep.ok and rep.max_residual <= 1e-12

    def test_closed_system_trivial(self):
        params = QSystemParams.create([[1]], [[0]], [[0]], [[0]])
        ss = build_state_space(params)
        rep = verify_inverse_identity(ss, [0.5 + 0.5j], tol=1e-14)
        assert rep.ok

    def test_quadrature_version(self, dpa):
        rep = verify_inverse_identity(to_quadrature(dpa), [0.7 + 0.3j, 2.0], tol=1e-10)
        assert rep.ok

    def test_random_corpus(self):
        rng = np.random.default_rng(42)
        for seed in range(10):
            ss = build_state_space(random_params(seed, 2, 2))
            samples = 2.0 + 3.0 * rng.random(10) + 1j * rng.standard_normal(10)
            rep = verify_inverse_identity(ss, samples, tol=1e-8)
            assert rep.ok, rep.max_residual

    def test_pole_samples_skipped(self, gain):
        rep = verify_inverse_identity(gain, [0.5, 2.0], tol=1e-9)
        assert rep.skipped == (0.5 + 0j,)
        assert rep.ok


class TestGenerators:
    def test_seeded_determinism(self):
        a = random_params(123, 2, 2)
        b = random_params(123, 2, 2)
        assert np.allclose(a.omega_minus, b.omega_minus)
        assert np.allclose(a.c_plus, b.c_plus)

    def test_passive_flag(self):
        p = random_params(7, 3, 2, passive=True)
        assert np.allclose(p.omega_plus, 0) and np.allclose(p.c_plus, 0)

    def test_exact_flag(self):
        p = random_params(7, 2, 1, exact=True)
        assert p.is_exact

    def test_lossless_extension(self):
        base = random_params(3, 2, 1, passive=True)
        ext = with_lossless_modes(base, [1.5, 2.5])
        assert ext.n == base.n + 2 and ext.m == base.m
        ss = build_state_space(ext)
        eigs = np.linalg.eigvals(ss.A)
        # the added modes contribute +-1.5i and +-2.5i exactly
        for w in (1.5, 2.5):
            assert min(abs(eigs - 1j * w)) < 1e-9
            assert min(abs(eigs + 1j * w)) < 1e-9

    def test_lossless_extension_exact(self):
        base = random_params(3, 1, 1, passive=True, exact=True)
        ext = with_lossless_modes(base, [2, "1/2", GaussianRational(3)])
        assert ext.is_exact
        w = base.exact["omega_minus"][0][0]
        assert ext.exact["omega_minus"].tolist() == xl.exact_matrix(
            [[w, 0, 0, 0], [0, 2, 0, 0], [0, 0, "1/2", 0], [0, 0, 0, 3]]
        ).tolist()
        assert ext.exact["c_minus"].tolist() == xl.exact_matrix(
            [base.exact["c_minus"][0].tolist() + [0, 0, 0]]
        ).tolist()

    def test_lossless_extension_float_frequency_gives_float(self):
        base = random_params(3, 1, 1, passive=True, exact=True)
        ext = with_lossless_modes(base, [2, 1.5])
        assert not ext.is_exact
        assert np.allclose(np.diag(ext.omega_minus)[1:], [2, 1.5])
        assert np.allclose(ext.omega_minus[0, 0], base.omega_minus[0, 0])

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_lossless_extension_of_empty_blocks(self, n, m, exact):
        base = random_params(5, n, m, exact=exact)
        freq = 2 if exact else 1.5
        ext = with_lossless_modes(base, [freq])
        assert (ext.n, ext.m, ext.is_exact) == (n + 1, m, exact)
        assert ext.omega_minus[n, n] == freq and not ext.omega_plus[n].any()
        assert ext.c_minus.shape == ext.c_plus.shape == (m, n + 1)
        assert not ext.c_minus[:, n].any() and not ext.c_plus[:, n].any()
        assert np.array_equal(ext.c_minus[:, :n], base.c_minus)
        if exact:
            assert ext.exact["c_minus"].shape == (m, n + 1)
        eigs = np.linalg.eigvals(build_state_space(ext).A)
        assert min(abs(eigs - 1j * freq)) < 1e-9 and min(abs(eigs + 1j * freq)) < 1e-9

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("freq", [2 + 1j, GaussianRational(2, 1)])
    def test_lossless_extension_rejects_complex_frequency(self, exact, freq):
        base = random_params(3, 1, 1, passive=True, exact=exact)
        with pytest.raises(ParameterError, match="must be real"):
            with_lossless_modes(base, [freq])


class TestRealizabilityGate:
    @pytest.mark.parametrize(
        "compute, phrase",
        [
            (invariant_zeros_flat, "flat-adjoint zero computation"),
            (invariant_zeros_via_kalman, "the observable/unobservable zero formula"),
            (classify_left_invertibility, "left-invertibility classification"),
        ],
    )
    def test_message_names_computation(self, classical_hidden_mode, compute, phrase):
        residuals = check_physical_realizability(classical_hidden_mode).residuals
        with pytest.raises(RealizabilityError) as exc:
            compute(classical_hidden_mode)
        assert str(exc.value) == (
            f"{phrase} needs a physically realizable system; residuals "
            f"{residuals} exceed 1e-08"
        )
