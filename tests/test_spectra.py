"""cluster_values and multiset_match against direct reference versions.

The clustering reference is the plain greedy loop that re-averages every
cluster for every value; results must agree bit for bit, signed zeros
included.  The matching reference runs a minimum-cost assignment on every
input; results must be the same pairs or the same None.
"""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from lqsys import NumericalError, SpectrumReport
from lqsys.spectra import cluster_values, multiset_match

SETTINGS = settings(max_examples=300, deadline=None)
ROOT = Path(__file__).resolve().parent.parent

# -- references ----------------------------------------------------------------


def ref_cluster_values(values, tol):
    vals = sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))
    clusters = []
    for v in vals:
        for members in clusters:
            rep = sum(members) / len(members)
            limit = tol * max(1.0, abs(rep), abs(v))
            if abs(v - rep) <= limit:
                members.append(v)
                break
        else:
            clusters.append([v])
    out = [(sum(c) / len(c), len(c)) for c in clusters]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def ref_multiset_match(avals, bvals, tol):
    a = [complex(v) for v in avals]
    b = [complex(v) for v in bvals]
    if len(a) != len(b):
        return None
    if not a:
        return []
    cost = np.array([[abs(x - y) for y in b] for x in a])
    rows, cols = linear_sum_assignment(cost)
    pairs = []
    for i, j in zip(rows, cols):
        if cost[i, j] > tol * max(1.0, abs(a[i])):
            return None
        pairs.append((a[i], b[j]))
    return pairs


def bits(clusters):
    """Clusters with each representative as its raw bytes, so that -0.0
    and 0.0 differ."""
    return [(struct.pack("<dd", v.real, v.imag), m) for v, m in clusters]


# -- strategies ----------------------------------------------------------------

tolerances = st.sampled_from([1e-12, 1e-10, 1e-9, 1e-7, 1e-6, 1e-4, 1e-2])
components = st.one_of(
    st.floats(-50, 50, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-10, -1e-10]),
)
points = st.builds(complex, components, components)


@st.composite
def spectra(draw):
    """Values with exact duplicates, 1e-10 near-duplicates and signed
    zeros, in a drawn order."""
    out = []
    for v in draw(st.lists(points, max_size=10)):
        out.append(v)
        for kind in draw(st.lists(st.sampled_from("=~zn"), max_size=3)):
            if kind == "=":
                out.append(v)
            elif kind == "~":
                out.append(v + draw(st.sampled_from([1e-10, -1e-10, 1e-10j, 3e-10 - 2e-10j])))
            elif kind == "z":
                out.append(draw(st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                                                 complex(-0.0, -0.0)])))
    return draw(st.permutations(out))


@st.composite
def pairings(draw):
    """Two lists of one length: b is a shuffled copy of a with each value
    moved by a multiple of tol, within it or clearly beyond it, and a may
    hold clusters that make the best pairing ambiguous."""
    tol = draw(tolerances)
    a = draw(spectra())
    steps = st.sampled_from([0.0, 0.1, 0.3, 0.5, 3.0, 10.0])
    angles = st.sampled_from([1, -1, 1j, -1j, (1 + 1j) / 2])
    b = [v + draw(steps) * draw(angles) * tol * max(1.0, abs(v)) for v in a]
    return a, draw(st.permutations(b)), tol


# -- properties ----------------------------------------------------------------


class TestClusterValues:
    @SETTINGS
    @given(spectra(), tolerances)
    def test_bit_identical_to_the_reference(self, values, tol):
        assert bits(cluster_values(values, tol)) == bits(ref_cluster_values(values, tol))

    def test_duplicates_and_signed_zeros(self):
        values = [complex(-0.0, 0.0), 0j, 1 + 1j, 1 + 1j + 1e-10, 2.0, 2.0]
        for tol in (1e-12, 1e-9, 1e-2):
            assert bits(cluster_values(values, tol)) == bits(ref_cluster_values(values, tol))

    def test_spectrum_size(self):
        rng = np.random.default_rng(5)
        values = list(rng.standard_normal(80) + 1j * rng.standard_normal(80))
        values += values[:10]
        assert bits(cluster_values(values, 1e-9)) == bits(ref_cluster_values(values, 1e-9))


class TestMultisetMatch:
    @SETTINGS
    @given(pairings())
    def test_same_as_a_direct_assignment(self, case):
        a, b, tol = case
        assert multiset_match(a, b, tol) == ref_multiset_match(a, b, tol)

    def test_ambiguous_cluster_is_assigned(self):
        a = [1.0, 1.0 + 1e-10, 5.0]
        b = [5.0, 1.0 + 2e-10, 1.0 - 1e-10]
        pairs = multiset_match(a, b, 1e-9)
        assert pairs == ref_multiset_match(a, b, 1e-9)
        assert pairs[2] == (5.0, 5.0)

    def test_unmatched_value_gives_none(self):
        assert multiset_match([1.0, 2.0], [1.0, 2.1], 1e-6) is None

    def test_sizes_differ_or_empty(self):
        assert multiset_match([1.0], [], 1e-9) is None
        assert multiset_match([], [], 1e-9) == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
    def test_non_finite_values_raise_numerical_error(self, bad):
        with pytest.raises(NumericalError):
            multiset_match([1.0, bad], [1.0, 2.0], 1e-9)
        with pytest.raises(NumericalError):
            multiset_match([1.0, 2.0], [bad, 1.0], 1e-9)
        rep = SpectrumReport.from_values([1.0, 2.0], 1e-9, "test")
        with pytest.raises(NumericalError):
            rep.matches([2.0, bad])


class TestText:
    def test_readme_quick_start(self):
        from lqsys import build_state_space, invariant_zeros_pencil, passive_cavity

        ss = build_state_space(passive_cavity(omega=1, kappa=2))
        assert str(invariant_zeros_pencil(ss)) == "1-1i, 1+1i"

    def test_empty_and_multiplicity(self):
        assert str(SpectrumReport.from_values([], 1e-9, "test")) == "(empty)"
        rep = SpectrumReport.from_values([2j, -1.0, -1.0], 1e-9, "test")
        assert str(rep) == "-1 (x2), 2i"


def test_zeros_all_methods_leave_scipy_optimize_unloaded():
    """Pencil, flat and theorem zeros of the cavity pair off one to one,
    so the CLI cross-check never needs the assignment solver."""
    script = (
        "import contextlib, io, sys\n"
        "from lqsys.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['zeros', 'specs/passive_cavity.json', '--method', 'all'])\n"
        "print(code, 'scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == ["0", "False"]
