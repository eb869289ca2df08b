"""Bit-identity of the exact kernels against recorded output.

``data/exact_recorded.json`` holds, for the seeded exact systems of
``test_smf_recorded.SYSTEMS`` in both representations, what the exact
kernels return: ``charpoly`` (the polynomial and the adjugate terms
M_1..M_n), ``pencil_det`` of the Rosenbrock pencil, the reduced transfer
matrix, the exact ``DetIdentityReport``, and the roots of the
Smith-McMillan form (``polynomial_roots_exact_first`` per invariant
polynomial, and the zeros and poles reports).  Any change to the exact
kernels must reproduce them exactly.  Rewrite the recording with

    PYTHONPATH=src python tests/record_exact.py

only when an output is meant to change.
"""

import json
from pathlib import Path

import pytest

from lqsys import (
    build_state_space,
    random_params,
    smith_mcmillan,
    to_quadrature,
    transfer_matrix_exact,
    verify_det_identity,
    zeros_poles_from_smf,
)
from lqsys import exactlinalg as xl
from lqsys.rational import GR_ONE
from lqsys.smith import polynomial_roots_exact_first

from test_smf_recorded import SYSTEMS, _key, _text

DATA = Path(__file__).parent / "data" / "exact_recorded.json"


def _pencil(ss):
    """(P0, E) of the Rosenbrock pencil P0 - s E, as the det identity forms it."""
    a, b, c, d = (ss.exact[k] for k in ("A", "B", "C", "D"))
    ns, nf = len(a), len(d)
    e = xl.mat_zeros(ns + nf, ns + nf)
    for i in range(ns):
        e[i][i] = GR_ONE
    return xl.mat_block([[a, b], [c, d]]), e


def _roots(polys):
    out = []
    for p in polys:
        if p.is_constant():
            continue
        exact, numeric = polynomial_roots_exact_first(p)
        out.append([[str(r) for r in exact], [repr(z) for z in numeric]])
    return out


def _record_one(ss):
    poly, terms = xl.charpoly(ss.exact["A"])
    g = transfer_matrix_exact(ss)
    det = verify_det_identity(ss)
    smf = smith_mcmillan(g)
    zeros, poles = zeros_poles_from_smf(smf)
    return {
        "charpoly": _text(poly),
        "adjugate": [[[str(x) for x in row] for row in xl.from_scaled(*mk)] for mk in terms],
        "pencil_det": _text(xl.pencil_det(*_pencil(ss))),
        "transfer": [[[_text(e.num), _text(e.den)] for e in row] for row in g.entries],
        "det_identity": {
            "ok": det.ok,
            "mode": det.mode,
            "unit": repr(det.unit),
            "det_pencil": [repr(z) for z in det.det_pencil],
            "det_adjoint": [repr(z) for z in det.det_adjoint],
        },
        "alpha_roots": _roots(smf.alphas),
        "beta_roots": _roots(smf.betas),
        "zeros": zeros.to_dict(),
        "poles": poles.to_dict(),
    }


def record(seed, n, m, passive):
    """The exact-kernel outputs of one seeded system, annihilation and
    quadrature, as JSON-ready text."""
    ss = build_state_space(random_params(seed, n, m, passive=passive, exact=True))
    return {
        "annihilation": _record_one(ss),
        "quadrature": _record_one(to_quadrature(ss)),
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("seed,n,m,passive", SYSTEMS)
def test_exact_kernels_match_recording(recorded, seed, n, m, passive):
    assert record(seed, n, m, passive) == recorded[_key(seed, n, m, passive)]
