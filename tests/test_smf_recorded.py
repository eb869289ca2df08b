"""Bit-identity of the exact stack against recorded output.

``data/smf_recorded.json`` holds, for a fixed set of seeded exact systems
(n <= 3 with m <= 2, and n = 4, 5 with m = 2; generic and passive), the
Smith-McMillan form with its recorded operations and the certificate
replay.  At n = 4 and 5 the Bezout mixes carry cofactors of 800 to 1,400
bits, so a change to ``Poly.ext_gcd`` that moved any cofactor would show
here.  A change to the exact arithmetic alone must reproduce all of it
exactly.  A change to the reduction's pivot, clearing or scaling rules
may change the recorded operations and nothing else: the invariant
factors and the replay stay as recorded, and the file is rewritten only
by ``record_smf.py``.
"""

import json
from pathlib import Path

import pytest

from lqsys import (
    apply_operations,
    build_state_space,
    random_params,
    smith_mcmillan,
    transfer_matrix_exact,
)
from lqsys.rational import GaussianRational, Poly

DATA = Path(__file__).parent / "data" / "smf_recorded.json"
SYSTEMS = [
    (seed, n, m, passive)
    for passive in (False, True)
    for seed, (n, m) in enumerate(((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 2), (5, 2)))
]


def _text(x):
    if isinstance(x, Poly):
        return [str(c) for c in x.coeffs]
    if isinstance(x, GaussianRational):
        return str(x)
    return x


def record(seed, n, m, passive):
    """The SMF of one seeded system and its replay, as JSON-ready text."""
    g = transfer_matrix_exact(
        build_state_space(random_params(seed, n, m, passive=passive, exact=True))
    )
    smf = smith_mcmillan(g)
    replay = apply_operations(g, smf.left_ops, smf.right_ops)
    return {
        "alphas": [_text(a) for a in smf.alphas],
        "betas": [_text(b) for b in smf.betas],
        "left_ops": [[_text(x) for x in op] for op in smf.left_ops],
        "right_ops": [[_text(x) for x in op] for op in smf.right_ops],
        "replay": [[[_text(e.num), _text(e.den)] for e in row] for row in replay.entries],
    }


def _key(seed, n, m, passive):
    return f"seed{seed}_n{n}_m{m}_{'passive' if passive else 'generic'}"


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("seed,n,m,passive", SYSTEMS)
def test_smf_and_replay_match_recording(recorded, seed, n, m, passive):
    assert record(seed, n, m, passive) == recorded[_key(seed, n, m, passive)]
