"""StateSpace is immutable and memoizes what is derived from it: the
eigenvalues of A, the realizability residuals, the Kalman decomposition
per tolerance, and the two zero spectra eig(A - B D^-1 C) and eig(-A^b).
Memoized answers must equal those for a fresh copy of the same system."""

import dataclasses

import numpy as np
import pytest

from lqsys import (
    HiddenModeConditionError,
    PoleEvaluationError,
    SpectrumReport,
    StateSpace,
    SubspaceToleranceError,
    build_state_space,
    check_physical_realizability,
    classify_left_invertibility,
    frequency_response,
    invariant_zeros_flat,
    invariant_zeros_pencil,
    invariant_zeros_via_kalman,
    kalman_decompose,
    minimal_realization,
    poles,
    random_params,
    to_quadrature,
    transmission_zeros,
    verify_det_identity,
    verify_pole_zero_mirror,
    with_lossless_modes,
)
from lqsys import model
from lqsys.zeros import _adjoint_spectrum, _schur_spectrum

NAMES = ("A", "B", "C", "D")


def fresh_copy(ss):
    """The same system with an empty memo: an exact system is made from its
    exact matrices, which its float fields round."""
    mats = ss.exact or {k: getattr(ss, k) for k in NAMES}
    return StateSpace(**mats, representation=ss.representation)


def seeded_systems():
    for seed in (3, 17, 29):
        for n in (2, 3, 6):
            yield build_state_space(random_params(seed, n, 2))
            passive = random_params(seed, n, 1, passive=True)
            yield build_state_space(with_lossless_modes(passive, [0.8, 2.1]))
    yield to_quadrature(build_state_space(random_params(5, 3, 2)))


def outcome(fn, ss):
    """to_dict() of fn(ss), or the refusal it raised."""
    try:
        return fn(ss).to_dict()
    except (HiddenModeConditionError, SubspaceToleranceError) as e:
        return type(e).__name__, str(e)


class TestReadOnly:
    def test_matrices_cannot_be_written(self, cavity):
        for name in NAMES:
            with pytest.raises(ValueError):
                getattr(cavity, name)[0, 0] = 7.0

    def test_exact_matrices_cannot_be_written(self):
        ss = build_state_space(random_params(3, 1, 1, exact=True))
        copy = fresh_copy(ss)
        for name in NAMES:
            assert copy.exact[name] is not ss.exact[name]
            with pytest.raises(ValueError):
                ss.exact[name][0, 0] = 7

    def test_caller_arrays_stay_writable_and_are_not_shared(self):
        a = np.array([[-1.0 + 1j]])
        b, c, d = np.array([[1.0]]), np.array([[-1.0]]), np.array([[1.0]])
        ss = StateSpace(A=a, B=b, C=c, D=d, representation="annihilation")
        for arr in (a, b, c, d):
            assert arr.flags.writeable
        a[0, 0] = 5.0
        assert ss.A[0, 0] == -1.0 + 1j

    def test_derived_arrays_are_read_only(self, cavity):
        kal = kalman_decompose(cavity)
        minimal = [getattr(kal.minimal, k) for k in NAMES]
        spectra = (_schur_spectrum(cavity), _adjoint_spectrum(cavity))
        for arr in (kal.transformation, cavity.eigenvalues(), *minimal, *spectra):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestKalmanMemo:
    def test_same_tol_returns_the_same_report(self, cavity):
        kal = kalman_decompose(cavity, 1e-9)
        assert kalman_decompose(cavity, 1e-9) is kal
        assert minimal_realization(cavity, 1e-9) is kal.minimal

    def test_other_tol_returns_another_report(self, cavity):
        assert kalman_decompose(cavity, 1e-8) is not kalman_decompose(cavity, 1e-9)

    def test_replace_starts_an_empty_memo(self, cavity):
        kal = kalman_decompose(cavity)
        eigs = cavity.eigenvalues()
        moved = dataclasses.replace(cavity, A=cavity.A - np.eye(2))
        assert kalman_decompose(moved) is not kal
        np.testing.assert_allclose(
            np.sort_complex(moved.eigenvalues()), np.sort_complex(eigs - 1.0)
        )

    def test_refusal_is_raised_on_every_call(self):
        # Ctrb = span(e1) and Unob = span((cos t, sin t)) meet at a
        # principal cosine inside the ambiguous band around 1.
        t = np.arccos(1 - 1e-5)
        ss = StateSpace.from_matrices(
            np.zeros((2, 2)), [[1.0], [0.0]], [[-np.sin(t), np.cos(t)]], [[1.0]]
        )
        for _ in range(3):
            with pytest.raises(SubspaceToleranceError):
                kalman_decompose(ss)


class TestRealizabilityMemo:
    def test_residuals_are_computed_once_per_system(self, cavity, monkeypatch):
        calls, residuals = [], model._realizability_residuals

        def counted(ss):
            calls.append(ss)
            return residuals(ss)

        monkeypatch.setattr(model, "_realizability_residuals", counted)
        check_physical_realizability(cavity)
        for fn in (invariant_zeros_flat, invariant_zeros_via_kalman,
                   verify_pole_zero_mirror, classify_left_invertibility):
            fn(cavity)
        check_physical_realizability(cavity, 1e-8)
        assert calls == [cavity]
        check_physical_realizability(fresh_copy(cavity))
        assert len(calls) == 2

    def test_reports_differ_only_in_tol_and_passed(self, cavity):
        # a drift residual of 2e-9, between the two tolerances
        nudged = dataclasses.replace(cavity, A=cavity.A + np.diag([1e-9, 0.0]))
        tight = check_physical_realizability(nudged, 1e-10).to_dict()
        loose = check_physical_realizability(nudged, 1e-8).to_dict()
        assert (tight["passed"], loose["passed"]) == (False, True)
        assert (tight["tol"], loose["tol"]) == (1e-10, 1e-8)
        for key in ("tol", "passed"):
            del tight[key], loose[key]
        assert tight == loose

    def test_a_report_cannot_change_the_next(self, cavity):
        first = check_physical_realizability(cavity)
        expected = dict(first.residuals)
        first.residuals["drift"] = 99.0
        del first.residuals["input"]
        again = check_physical_realizability(cavity)
        assert again.residuals == expected and again.passed
        assert again.residuals is not first.residuals


class TestZeroSpectraMemo:
    def test_other_tol_reclusters(self, cavity):
        # the zeros 1 - i and 1 + i are 2 apart: one cluster at tol 2
        for fn in (invariant_zeros_pencil, invariant_zeros_flat):
            tight = fn(cavity, 1e-9)
            loose = fn(cavity, 2.0)
            assert [m for _, m in tight.values] == [1, 1]
            assert [m for _, m in loose.values] == [2] and loose.tol == 2.0
            assert fn(cavity, 1e-9) == tight

    def test_replace_starts_an_empty_memo(self, cavity, spectrum_equal):
        pencil = invariant_zeros_pencil(cavity).expand()
        flat = invariant_zeros_flat(cavity).expand()
        moved = dataclasses.replace(cavity, A=cavity.A - np.eye(2))
        spectrum_equal(invariant_zeros_pencil(moved), [z - 1.0 for z in pencil])
        spectrum_equal(
            SpectrumReport.from_values(_adjoint_spectrum(moved), 1e-9, "flat"),
            [z + 1.0 for z in flat],
        )

    def test_singular_feedthrough_branch_is_not_memoized(self, classical_pole_only):
        rep = invariant_zeros_pencil(classical_pole_only)
        assert "singular-feedthrough" in rep.notes
        assert classical_pole_only._memo == {"schur_spectrum": None}
        assert invariant_zeros_pencil(classical_pole_only) == rep


class TestMemoizedResultsMatchFreshCopies:
    @pytest.mark.parametrize(
        "fn",
        [
            poles,
            transmission_zeros,
            verify_pole_zero_mirror,
            classify_left_invertibility,
            invariant_zeros_pencil,
            invariant_zeros_flat,
        ],
        ids=lambda f: f.__name__,
    )
    def test_seeded_float_systems(self, fn):
        for ss in seeded_systems():
            # warm every memo entry the analyses touch, in another order
            for other in WARM:
                outcome(other, ss)
            assert outcome(fn, ss) == outcome(fn, ss) == outcome(fn, fresh_copy(ss))

    def test_det_identity(self):
        # compares whole reports: to_dict() leaves out the coefficients
        for ss in seeded_systems():
            for other in WARM:
                outcome(other, ss)
            rep = verify_det_identity(ss)
            assert rep.ok
            assert rep == verify_det_identity(ss) == verify_det_identity(fresh_copy(ss))


WARM = (
    classify_left_invertibility,
    verify_pole_zero_mirror,
    poles,
    verify_det_identity,
    invariant_zeros_flat,
    invariant_zeros_pencil,
)


class TestFrequencyResponseMemo:
    def test_pole_check_holds_on_a_memo_hit(self, gain):
        frequency_response(gain, 2.0)
        eigs = gain.eigenvalues()
        with pytest.raises(PoleEvaluationError) as exc:
            frequency_response(gain, 0.5)
        assert abs(exc.value.pole - 0.5) < 1e-12
        assert gain.eigenvalues() is eigs

    def test_values_match_a_fresh_copy(self, cavity):
        for s in (0.3j, 1.0 + 2.0j, -0.5):
            frequency_response(cavity, s)
            g = frequency_response(cavity, s)
            assert np.array_equal(g, frequency_response(fresh_copy(cavity), s))
