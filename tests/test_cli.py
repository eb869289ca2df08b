import json
from pathlib import Path

import pytest

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
