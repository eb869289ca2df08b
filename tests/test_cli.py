import json
import re
import warnings
from pathlib import Path

import numpy as np

import pytest

from lqsys import cli, errors
from lqsys.cli import (
    EXIT_CHECK_FAILED,
    EXIT_EXACTNESS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_SPEC,
    main,
)

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "check", SPEC_DIR / "gain_system.json")
        assert code == EXIT_OK
        assert "passed: yes" in out

    def test_quadrature_example_passes(self, capsys):
        code, out, _ = run(capsys, "check", SPEC_DIR / "quadrature_hidden_pair.json")
        assert code == EXIT_OK

    def test_classical_fails(self, capsys):
        code, out, _ = run(capsys, "check", SPEC_DIR / "classical_pole_only.json")
        assert code == EXIT_CHECK_FAILED
        assert "passed: no" in out

    def test_params_spec_passes_by_construction(self, capsys):
        code, _, _ = run(capsys, "check", SPEC_DIR / "dpa.json")
        assert code == EXIT_OK

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", SPEC_DIR / "nope.json")
        assert code == EXIT_SPEC and "not found" in err

    def test_parse_error_carries_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"representation": "params",\n  broken\n}')
        code, _, err = run(capsys, "check", bad)
        assert code == EXIT_SPEC and "line 2" in err

    def test_bad_entry_carries_field(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"representation": "params", "n": 1, "m": 1,'
            '"omega_minus": [[[1, 0]]], "omega_plus": [[["x/y", 0]]],'
            '"c_minus": [[[0, 0]]], "c_plus": [[[0, 0]]]}'
        )
        code, _, err = run(capsys, "check", bad)
        assert code == EXIT_SPEC and "omega_plus[0][0]" in err

    def test_dimension_mismatch_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"representation": "params", "n": 2, "m": 1,'
            '"omega_minus": [[[1, 0]]], "omega_plus": [[[0, 0]]],'
            '"c_minus": [[[0, 0]]], "c_plus": [[[0, 0]]]}'
        )
        code, _, err = run(capsys, "check", bad)
        assert code == EXIT_SPEC and "declared (n, m)" in err


class TestZeros:
    def test_pencil_on_hidden_pair(self, capsys):
        code, out, _ = run(
            capsys, "zeros", SPEC_DIR / "quadrature_hidden_pair.json",
            "--method", "pencil", "--format", "json",
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        vals = [v["value"] for v in rep["results"]["pencil"]["values"]]
        assert vals == ["-1", "1"]

    def test_theorem_refusal(self, capsys):
        code, _, err = run(
            capsys, "zeros", SPEC_DIR / "quadrature_hidden_pair.json",
            "--method", "theorem",
        )
        assert code == EXIT_REFUSED
        assert "purely imaginary" in err

    def test_all_cross_checks(self, capsys):
        code, out, _ = run(
            capsys, "zeros", SPEC_DIR / "dpa.json", "--method", "all",
            "--format", "json",
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["cross_check"]["agree"] is True
        assert rep["cross_check"]["max_discrepancy"] < 1e-8

    def test_transmission_kind(self, capsys):
        code, out, _ = run(
            capsys, "zeros", SPEC_DIR / "gain_system.json",
            "--kind", "transmission", "--method", "all", "--format", "json",
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["cross_check"]["agree"] is True
        vals = {v["value"] for v in rep["results"]["smf"]["values"]}
        assert vals == {"-0.5"}


class TestPolesAndSmf:
    def test_poles_exact(self, capsys):
        code, out, _ = run(
            capsys, "poles", SPEC_DIR / "classical_hidden_mode.json",
            "--exact", "--format", "json",
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert [v["value"] for v in rep["result"]["values"]] == ["1"]

    def test_smf_diagonal(self, capsys):
        code, out, _ = run(
            capsys, "smf", SPEC_DIR / "classical_hidden_mode.json", "--format", "json",
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["result"]["diagonal"] == ["1/(s-1)", "s"]

    def test_smf_requires_exact(self, capsys):
        code, _, err = run(capsys, "smf", SPEC_DIR / "passive_cavity.json")
        assert code == EXIT_EXACTNESS
        assert "exact" in err

    def test_poles_exact_flag_rejects_floats(self, capsys):
        code, _, _ = run(capsys, "poles", SPEC_DIR / "dpa.json", "--exact")
        assert code == EXIT_EXACTNESS


class TestKalmanAndInvert:
    def test_kalman_blocks(self, capsys):
        code, out, _ = run(
            capsys, "kalman", SPEC_DIR / "quadrature_hidden_pair.json",
            "--format", "json",
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["result"]["block_dims"] == {
            "c_obar": 1, "co": 0, "cbar_obar": 0, "cbar_o": 1,
        }
        assert rep["hidden_modes"]["holds"] is False

    def test_invert_gain(self, capsys):
        code, out, _ = run(
            capsys, "invert", SPEC_DIR / "gain_system.json", "--format", "json",
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["result"]["as_left_invertible"] is True
        assert rep["result"]["as_star_left_invertible"] is True
        assert rep["inversion_witness"]["ok"] is True

    def test_invert_cavity_is_false(self, capsys):
        code, out, _ = run(
            capsys, "invert", SPEC_DIR / "passive_cavity.json", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["result"]["as_left_invertible"] is False

    def test_invert_refused_on_hidden_pair(self, capsys):
        code, _, err = run(capsys, "invert", SPEC_DIR / "quadrature_hidden_pair.json")
        assert code == EXIT_REFUSED


class TestFeedback:
    def test_solve_alpha(self, capsys):
        code, out, _ = run(
            capsys, "feedback", SPEC_DIR / "feedback_plant.json",
            SPEC_DIR / "feedback_controller.json", "--solve-alpha", "q",
            "--format", "json",
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["alpha_solution"]["raw"] == "1/4"
        assert rep["alpha_solution"]["physical"] is True
        assert rep["closed_loop"]["duality"] is True
        assert rep["squeezing_residuals"]["q"] == "0"

    def test_explicit_alpha_and_sweep(self, capsys, tmp_path):
        csv = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "feedback", SPEC_DIR / "feedback_plant.json",
            SPEC_DIR / "feedback_controller.json", "--alpha", "1/4",
            "--sweep", "1e-4:1e1:30", "--sweep-out", csv, "--format", "json",
        )
        assert code == EXIT_OK
        lines = csv.read_text().splitlines()
        assert lines[0] == "omega,abs_T_q,abs_T_p,abs_S_q,abs_S_p"
        assert len(lines) == 31
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        # squeezing at low frequency: |T_q| -> 0 while |S_q| -> infinity
        assert first[1] < 1e-3 and first[3] > 1e3
        assert last[1] > first[1] and last[3] < first[3]

    def test_sweep_through_a_pole_exits_numerical(self, capsys, tmp_path):
        # with alpha = 1/2 the closed loop T_q has its poles at s = +-i
        plant = tmp_path / "plant.json"
        plant.write_text('{"omega_plus": [0, "3/2"], "c_product": [3, 0]}')
        ctrl = tmp_path / "ctrl.json"
        ctrl.write_text('{"omega_plus": [0, "-1/2"], "c_product": [3, 0]}')
        code, _, err = run(
            capsys, "feedback", plant, ctrl, "--alpha", "1/2", "--sweep", "1:1:1"
        )
        assert code == EXIT_NUMERICAL and "pole" in err

    def test_degenerate_mirror_warning(self, capsys):
        code, out, _ = run(
            capsys, "feedback", SPEC_DIR / "feedback_plant.json",
            SPEC_DIR / "feedback_controller.json", "--alpha", "1",
            "--format", "json",
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert any("degenerate mirror" in w for w in rep["warnings"])

    def test_unsolvable_exits_degenerate(self, capsys, tmp_path):
        from lqsys.cli import EXIT_DEGENERATE

        # DPA at the epsilon = kappa limit: loop gain has a pole at the
        # origin, so no alpha can place the squeezing zero there
        plant = tmp_path / "plant.json"
        plant.write_text('{"omega_plus": [0, 1], "c_product": [2, 0]}')
        ctrl = tmp_path / "ctrl.json"
        ctrl.write_text('{"omega_plus": [0, 0], "c_product": [0, 0]}')
        code, _, err = run(capsys, "feedback", plant, ctrl, "--solve-alpha", "q")
        assert code == EXIT_DEGENERATE and "pole at the origin" in err

    def test_synthesize(self, capsys):
        code, out, _ = run(
            capsys, "feedback", SPEC_DIR / "feedback_plant.json",
            SPEC_DIR / "feedback_controller.json", "--alpha", "1/4",
            "--synthesize", "minus", "--format", "json",
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["synthesized_controller"]["omega_plus"] == "-1/3i"
        assert rep["squeezing_residuals"]["q"] == "0"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "gain_system.json"),
            ("check", "passive_cavity.json"),
            ("zeros", "dpa.json", "--method", "all"),
            ("zeros", "quadrature_hidden_pair.json", "--method", "pencil"),
            ("poles", "classical_hidden_mode.json", "--exact"),
            ("smf", "classical_hidden_mode.json"),
            ("kalman", "quadrature_hidden_pair.json"),
            ("invert", "gain_system.json"),
        ],
    )
    def test_repeated_runs_identical(self, capsys, argv):
        cmd = [argv[0], str(SPEC_DIR / argv[1]), *argv[2:], "--format", "json"]
        code1 = main(cmd)
        out1 = capsys.readouterr().out
        code2 = main(cmd)
        out2 = capsys.readouterr().out
        assert code1 == code2
        assert out1 == out2
        json.loads(out1)  # machine format parses


class TestHugeEntries:
    """Entries near the end of the float range make numpy's SVD fail to
    converge; the CLI reports a numerical error (exit 6), not a traceback."""

    SPEC = (
        '{"representation": "params", "n": 1, "m": 1,'
        '"omega_minus": [[[1e306, 0]]], "omega_plus": [[[0, 0]]],'
        '"c_minus": [[[1e100, 0]]], "c_plus": [[[0, 0]]]}'
    )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv", [("poles",), ("kalman",), ("zeros", "--method", "all")]
    )
    def test_numerical_error_exit(self, capsys, tmp_path, argv):
        spec = tmp_path / "huge.json"
        spec.write_text(self.SPEC)
        code, _, err = run(capsys, argv[0], spec, *argv[1:])
        assert code == EXIT_NUMERICAL
        assert "did not converge" in err


class TestNonFiniteIntermediates:
    """Finite specs whose intermediates overflow end in a numerical error
    (exit 6) with an ``error:`` line, not a traceback."""

    # -i Omega - (1/2) C^b C overflows in the float build of A
    PARAMS = (
        '{"representation": "params", "n": 1, "m": 1,'
        '"omega_minus": [[[1e308, 0]]], "omega_plus": [[[1e308, 0]]],'
        '"c_minus": [[[1e200, 0]]], "c_plus": [[[0, 0]]]}'
    )
    # A - B D^-1 C overflows before its eigenvalues are taken
    SCHUR = (
        '{"representation": "annihilation",'
        '"A": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],'
        '"B": [[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]],'
        '"C": [[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]],'
        '"D": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}'
    )
    # exact, but C^b C is beyond the float range of its rounded copy
    EXACT = (
        '{"representation": "params", "n": 1, "m": 1,'
        '"omega_minus": [[[0, 0]]], "omega_plus": [[[0, 0]]],'
        f'"c_minus": [[[{10**200}, 0]]], "c_plus": [[[0, 0]]]}}'
    )
    COMMANDS = [("check",), ("zeros", "--method", "all"), ("poles",), ("smf",),
                ("kalman",), ("invert",)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("spec", ["PARAMS", "EXACT"])
    @pytest.mark.parametrize("argv", COMMANDS)
    def test_overflowing_build(self, capsys, tmp_path, spec, argv):
        path = tmp_path / "overflow.json"
        path.write_text(getattr(self, spec))
        code, _, err = run(capsys, argv[0], path, *argv[1:])
        assert code == EXIT_NUMERICAL
        assert err.startswith("error:")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_schur_complement(self, capsys, tmp_path):
        path = tmp_path / "overflow.json"
        path.write_text(self.SCHUR)
        code, _, err = run(capsys, "zeros", path, "--method", "all")
        assert code == EXIT_NUMERICAL
        assert err.startswith("error:")


def _no_constant(token):
    raise ValueError(f"{token} is not JSON")


class TestStrictJson:
    """A residual that overflows prints as the string the text format
    prints, "inf" or "nan", so --format json stays strict JSON."""

    def test_check_on_overflowing_residuals(self, capsys, tmp_path):
        path = tmp_path / "overflow.json"
        path.write_text(TestNonFiniteIntermediates.SCHUR)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "check", path, "--format", "json")
            text_code, text, _ = run(capsys, "check", path)
        residuals = json.loads(out, parse_constant=_no_constant)["result"]["residuals"]
        assert residuals == {"drift": "nan", "input": "inf", "unitary_d": 0.0}
        assert code == text_code == EXIT_CHECK_FAILED and not err
        assert "residuals:\n    drift: nan\n    input: inf\n    unitary_d: 0\n" in text

    def test_non_finite_floats(self):
        report = {"a": np.float64("-inf"), "b": [float("nan"), 1.5], "c": np.float32(2)}
        assert cli._jsonable(report) == {"a": "-inf", "b": ["nan", 1.5], "c": 2.0}


def test_exact_quadrature_spec_must_be_real_exactly(capsys, tmp_path):
    path = tmp_path / "quad.json"
    spec = json.loads((SPEC_DIR / "quadrature_hidden_pair.json").read_text())
    spec["D"][0][0] = [1, "1/10000000000000"]
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "check", path)
    assert code == EXIT_SPEC
    assert "must be real" in err


def documented_exit_codes(capsys):
    """{code: description} from the exit-code table of ``lqsys --help``."""
    with pytest.raises(SystemExit):
        main(["--help"])
    table = capsys.readouterr().out.split("exit codes:\n", 1)[1]
    codes = {}
    for line in table.splitlines():
        m = re.match(r"\s+(\d)\s+(.*)", line)
        if m:
            code = int(m.group(1))
            codes[code] = m.group(2)
        else:
            codes[code] += " " + line.strip()
    return codes


# every error class, with a phrase of the --help line that documents its code
ERRORS_AND_DOCS = [
    (errors.LqsysError("generic failure"), "usage error"),
    (errors.DimensionError("A and D must be square"), "usage error"),
    (errors.ParameterError("bad --sweep value"), "usage error"),
    (errors.SpecFileError("bad entry", field="A[0][0]"), "spec file failed"),
    (errors.ExactnessError("needs exact input"), "exact arithmetic requested"),
    (errors.RealizabilityError("not realizable"), "classification refused"),
    (errors.HiddenModeConditionError([1 + 0j]), "classification refused"),
    (errors.PoleEvaluationError(1j, 1j), "numerical failure"),
    (errors.NumericalError("SVD did not converge"), "numerical failure"),
    (errors.SubspaceToleranceError("unstable rank", gap=1e-3), "numerical failure"),
    (errors.DegenerateNetworkError("vanishes identically"), "degenerate network"),
    (errors.SynthesisError("denominator vanishes"), "singular synthesis"),
    (errors.UnsolvableError("no solution"), "unsolvable"),
]


def test_every_error_class_is_covered():
    def subclasses(cls):
        return {cls}.union(*(subclasses(c) for c in cls.__subclasses__()))

    assert {type(e) for e, _ in ERRORS_AND_DOCS} == subclasses(errors.LqsysError)


@pytest.mark.parametrize(
    "error, doc", ERRORS_AND_DOCS, ids=[type(e).__name__ for e, _ in ERRORS_AND_DOCS]
)
def test_error_exit_code_is_documented(capsys, monkeypatch, error, doc):
    (want,) = [c for c, text in documented_exit_codes(capsys).items() if doc in text]

    def fail(*_):
        raise error

    monkeypatch.setattr(cli, "check_physical_realizability", fail)
    code, out, err = run(capsys, "check", SPEC_DIR / "gain_system.json")
    assert (code, out, err) == (want, "", f"error: {error}\n")
