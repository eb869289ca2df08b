"""System-spec file parsing.

A system spec is a JSON object with a ``representation`` field:

* ``"params"``: physical parameters; requires ``n``, ``m`` and the four
  matrices ``omega_minus``, ``omega_plus``, ``c_minus``, ``c_plus``.
* ``"annihilation"`` / ``"quadrature"``: a state-space quadruple given
  directly as matrices ``A``, ``B``, ``C``, ``D``.

Matrix entries are ``[re, im]`` pairs whose components are either JSON
numbers (floating input) or strings like ``"3/4"`` (exact Gaussian
rational input).  A system is exact only if every component of every
entry is exact.

A feedback spec (for the SISO coherent-feedback commands) is a JSON
object with ``omega_plus`` and either both ``c_q`` and ``c_p`` or the
single ``c_product``, all in the same entry format.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import SpecFileError
from .feedback import QuadPlantParams
from .model import QSystemParams, StateSpace, build_state_space
from .rational import GaussianRational

__all__ = [
    "parse_entry",
    "parse_matrix",
    "load_system_spec",
    "load_feedback_spec",
]


def _parse_component(x, where):
    """One real component: JSON number (float path) or 'p/q' string (exact)."""
    if isinstance(x, bool):
        raise SpecFileError("booleans are not numbers", field=where)
    if isinstance(x, float):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise SpecFileError(f"bad exact component {x!r}: {e}", field=where) from e
    raise SpecFileError(f"component must be number or 'p/q' string, got {x!r}", field=where)


def parse_entry(e, where):
    """One matrix entry [re, im] -> GaussianRational if both components are
    exact, else complex."""
    if not isinstance(e, (list, tuple)) or len(e) != 2:
        raise SpecFileError(
            f"matrix entry must be a [re, im] pair, got {e!r}", field=where
        )
    re = _parse_component(e[0], where)
    im = _parse_component(e[1], where)
    if isinstance(re, Fraction) and isinstance(im, Fraction):
        return GaussianRational(re, im)
    return complex(float(re), float(im))


def parse_matrix(rows, field):
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SpecFileError("matrix must be a list of rows", field=field)
    return [
        [parse_entry(e, f"{field}[{i}][{j}]") for j, e in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as e:
        raise SpecFileError(f"spec file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise SpecFileError(f"invalid JSON in {path}: line {e.lineno}: {e.msg}") from e


def load_system_spec(path):
    """(StateSpace, raw JSON) of a system spec; the state space is exact
    only if every entry is."""
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise SpecFileError("spec must be a JSON object")
    rep = raw.get("representation")
    if rep == "params":
        keys = ("omega_minus", "omega_plus", "c_minus", "c_plus")
        missing = [k for k in ("n", "m") + keys if k not in raw]
        if missing:
            raise SpecFileError(f"missing fields: {', '.join(missing)}")
        mats = [parse_matrix(raw[k], k) for k in keys]
        try:
            params = QSystemParams.create(*mats)
        except Exception as e:
            raise SpecFileError(f"invalid parameters: {e}") from e
        if params.n != raw["n"] or params.m != raw["m"]:
            raise SpecFileError(
                f"declared (n, m) = ({raw['n']}, {raw['m']}) but matrices give "
                f"({params.n}, {params.m})"
            )
        return build_state_space(params), raw
    if rep in ("annihilation", "quadrature"):
        keys = ("A", "B", "C", "D")
        missing = [k for k in keys if k not in raw]
        if missing:
            raise SpecFileError(f"missing fields: {', '.join(missing)}")
        mats = [parse_matrix(raw[k], k) for k in keys]
        try:
            ss = StateSpace.from_matrices(*mats, representation=rep)
        except Exception as e:
            raise SpecFileError(f"invalid state space: {e}") from e
        return ss, raw
    raise SpecFileError(
        f"representation must be 'params', 'annihilation' or 'quadrature', "
        f"got {rep!r}",
        field="representation",
    )


def load_feedback_spec(path):
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise SpecFileError("feedback spec must be a JSON object")
    if "omega_plus" not in raw:
        raise SpecFileError("missing field omega_plus")
    w = GaussianRational.of(parse_entry(raw["omega_plus"], "omega_plus"))
    try:
        if "c_product" in raw:
            cprod = GaussianRational.of(parse_entry(raw["c_product"], "c_product"))
            params = QuadPlantParams.from_coupling_product(w, cprod)
        elif "c_q" in raw and "c_p" in raw:
            cq, cp = (parse_entry(raw[k], k) for k in ("c_q", "c_p"))
            params = QuadPlantParams.create(
                w, GaussianRational.of(cq), GaussianRational.of(cp)
            )
        else:
            raise SpecFileError("need either c_product or both c_q and c_p")
    except SpecFileError:
        raise
    except Exception as e:
        raise SpecFileError(f"invalid feedback parameters: {e}") from e
    return params, raw
