"""Random spec files through the loader and the six spec commands.

Every run must end in a code from the ``--help`` exit table (0-6 for the
spec commands), never in an exception, and whatever a command prints with
``--format json`` must be strict JSON (no NaN or Infinity tokens).  The
entries mix small exact fractions with 0, 1e-300, 1 and magnitudes from
1e150 to 1e308; the specs include singular feedthroughs, empty and
mismatched shapes and repeated eigenvalues.  Regression cases found this
way are kept by name at the end of the file.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lqsys.cli import main

COMMANDS = [("check",), ("zeros", "--method", "all"), ("poles",), ("smf",),
            ("kalman",), ("invert",)]
EXIT_CODES = set(range(7))

EXACT = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 4),
                         Fraction(-2, 5), Fraction(7)])
SMALL = st.sampled_from([0.0, 1e-300, -1e-300, 1.0, -1.0])
HUGE = st.floats(1e150, 1e308).flatmap(lambda x: st.sampled_from([x, -x]))
DIMS = st.integers(0, 3)


def components(draw):
    """The entry components of one spec: exact only, or exact mixed with
    floats, of which half the specs allow huge ones."""
    kind = draw(st.sampled_from(["exact", "small", "huge"]))
    return {"exact": EXACT, "small": st.one_of(EXACT, SMALL),
            "huge": st.one_of(EXACT, SMALL, HUGE)}[kind]


def _strict(token):
    raise ValueError(f"non-JSON constant {token}")


def _json_component(x):
    """Exact components as 'p/q' strings or integers, floats as numbers."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else str(x)
    return x


def _to_json(mat):
    return [[[_json_component(re), _json_component(im)] for re, im in row] for row in mat]


@st.composite
def matrices(draw, rows, cols, comp, real=False, shape="plain"):
    """rows x cols of (re, im) pairs; ``shape`` asks for a Hermitian,
    symmetric or real scalar (repeated eigenvalue) square matrix."""
    imag = st.just(Fraction(0)) if real else comp
    mat = [[(draw(comp), draw(imag)) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for j in range(i):
            if shape == "hermitian":
                mat[i][j] = (mat[j][i][0], -mat[j][i][1])
            elif shape == "symmetric":
                mat[i][j] = mat[j][i]
        if shape == "hermitian":
            mat[i][i] = (mat[i][i][0], Fraction(0))
        elif shape == "scalar":
            mat[i] = [(mat[0][0][0] if j == i else Fraction(0), Fraction(0)) for j in range(cols)]
    return mat


@st.composite
def params_specs(draw):
    n, m = draw(DIMS), draw(DIMS)
    comp = components(draw)
    omega_shape = draw(st.sampled_from(["hermitian", "scalar"]))
    spec = {
        "representation": "params", "n": n, "m": m,
        "omega_minus": draw(matrices(n, n, comp, shape=omega_shape)),
        "omega_plus": draw(matrices(n, n, comp, shape="symmetric")),
        "c_minus": draw(matrices(m, n, comp)),
        "c_plus": draw(matrices(m, n, comp)),
    }
    if draw(st.integers(0, 9)) == 0:  # a declared size the matrices do not have
        spec["m"] = m + 1
    return spec


@st.composite
def state_space_specs(draw):
    rep = draw(st.sampled_from(["annihilation", "quadrature"]))
    ns, nf = draw(DIMS), draw(DIMS)
    comp, real = components(draw), rep == "quadrature"
    spec = {
        "representation": rep,
        "A": draw(matrices(ns, ns, comp, real, draw(st.sampled_from(["plain", "scalar"])))),
        "B": draw(matrices(ns, nf, comp, real)),
        "C": draw(matrices(nf, ns, comp, real)),
        "D": draw(matrices(nf, nf, comp, real)),
    }
    d_kind = draw(st.sampled_from(["random", "identity", "zero", "repeated_row", "misshaped"]))
    one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    if d_kind == "identity":
        spec["D"] = [[one if i == j else zero for j in range(nf)] for i in range(nf)]
    elif d_kind == "zero":
        spec["D"] = [[zero] * nf for _ in range(nf)]
    elif d_kind == "repeated_row" and nf:
        spec["D"] = [spec["D"][0]] * nf
    elif d_kind == "misshaped":
        spec["B"] = spec["B"][:-1]
    return spec


def _as_file(spec, path):
    out = {k: _to_json(v) if isinstance(v, list) else v for k, v in spec.items()}
    path.write_text(json.dumps(out))
    return path


def run_all_commands(path):
    """(argv, exit code, stdout) of each spec command on ``path``."""
    results = []
    for argv in COMMANDS:
        full = [argv[0], str(path), *argv[1:], "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(full)
        results.append((full, code, out.getvalue()))
    return results


def assert_clean(results):
    for argv, code, out in results:
        assert code in EXIT_CODES, (argv, code)
        if out:
            json.loads(out, parse_constant=_strict)


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=st.one_of(params_specs(), state_space_specs()))
def test_random_specs_exit_cleanly(tmp_path, spec):
    assert_clean(run_all_commands(_as_file(spec, tmp_path / "spec.json")))


def _spec_file(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_eigenvalue_modulus_beyond_float_range(tmp_path):
    # the entries are finite, but an eigenvalue of A has both components
    # near 1e308, so its modulus overflows: exit 6, no OverflowError
    big = 9.786936997451853e307
    spec = {"representation": "annihilation",
            "A": [[[0, 0], [0, 8.257585694968896e307]], [[9.004400298448892e307, 0], [big, big]]],
            "B": [[[0, 0]], [[0, 0]]], "C": [[[0, 0], [0, 0]]], "D": [[[0, 0]]]}
    results = run_all_commands(_spec_file(tmp_path, spec))
    assert_clean(results)
    assert {argv[0]: code for argv, code, _ in results}["kalman"] == 6
