"""Command-line front end.

Reads system-spec JSON files, dispatches the analyses, and prints a
deterministic report in either human-readable text or machine JSON form.
Exit codes are documented in --help and distinguish the failure classes
so scripts can branch on them; each error class carries its own.

Each command imports the layers it runs inside its body, so that a fresh
``lqsys`` process compiles and loads only those: ``lqsys check`` loads no
zero, Kalman or Smith layer, and ``lqsys feedback`` no state-space layer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateNetworkError,
    ExactnessError,
    HiddenModeConditionError,
    LqsysError,
    NumericalError,
    ParameterError,
    RealizabilityError,
    SpecFileError,
)
from .specio import load_feedback_spec, load_system_spec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = ParameterError.exit_code
EXIT_SPEC = SpecFileError.exit_code
EXIT_EXACTNESS = ExactnessError.exit_code
EXIT_REFUSED = HiddenModeConditionError.exit_code
EXIT_NUMERICAL = NumericalError.exit_code
EXIT_DEGENERATE = DegenerateNetworkError.exit_code
EXIT_BROKEN_PIPE = 8

EXIT_TABLE = f"""\
exit codes:
  {EXIT_OK}  success (report produced; all requested checks passed)
  {EXIT_CHECK_FAILED}  a verification-style check failed (e.g. realizability residuals
     exceed tolerance)
  {EXIT_USAGE}  command-line usage error
  {EXIT_SPEC}  spec file failed to parse or validate
  {EXIT_EXACTNESS}  exact arithmetic requested (or required) but the input has
     floating entries
  {EXIT_REFUSED}  classification refused: the purely-imaginary hidden-mode
     condition does not hold, so the requested criterion is invalid
  {EXIT_NUMERICAL}  numerical failure (evaluation at a pole, unstable rank decision)
  {EXIT_DEGENERATE}  degenerate network, unsolvable or singular synthesis
  {EXIT_BROKEN_PIPE}  standard output was closed before the report was written
     (broken pipe)
"""

_SPECTRUM_ENTRY = {"value", "multiplicity"}


def _render_text(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in obj:
            v = obj[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                if isinstance(v, dict) and set(v) == _SPECTRUM_ENTRY:
                    lines.append(f"{pad}- {v['value']} (x{v['multiplicity']})")
                else:
                    lines.append(f"{pad}-")
                    lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(v)}")
    else:
        lines.append(f"{pad}{_scalar_text(obj)}")
    return lines if indent else "\n".join(lines)


def _scalar_text(v):
    if isinstance(v, bool) or v is None:
        return {True: "yes", False: "no", None: "none"}[v]
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        from .spectra import format_complex

        return format_complex(obj, 17)
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return _scalar_text(obj)  # "inf", "-inf" or "nan": JSON has no such number
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, float, str)):
        return obj
    return str(obj)


def emit(report, fmt):
    if fmt == "json":
        print(json.dumps(_jsonable(report), sort_keys=True, indent=2, allow_nan=False))
    else:
        print(_render_text(report))


def _echo(raw):
    """Compact canonical JSON of the parsed input, sufficient to rebuild it."""
    return json.dumps(raw, sort_keys=True, separators=(",", ":"))


def _spec_command(body):
    """A single-spec command: load the spec, open the shared report fields,
    let ``body(ss, args, report)`` fill in the rest and return the exit
    code, then emit the report."""

    def run(args):
        ss, raw = load_system_spec(args.spec)
        report = {
            "command": args.command,
            "spec": _echo(raw),
            "spec_path": str(args.spec),
            "exact_input": ss.is_exact,
            "tol": args.tol,
            "warnings": [],
        }
        code = body(ss, args, report)
        emit(report, args.format)
        return code

    return run


@_spec_command
def cmd_check(ss, args, report):
    from .model import check_physical_realizability

    rep = check_physical_realizability(ss, args.tol)
    report["result"] = rep.to_dict()
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


@_spec_command
def cmd_zeros(ss, args, report):
    from .kalman import invariant_zeros_via_kalman
    from .smith import transfer_matrix_exact
    from .spectra import multiset_match
    from .zeros import invariant_zeros_flat, invariant_zeros_pencil, transmission_zeros

    report["kind"] = args.kind
    # kind -> method -> zero computation; --method all runs them in this order
    table = {
        "invariant": {
            "pencil": invariant_zeros_pencil,
            "flat": invariant_zeros_flat,
            "theorem": invariant_zeros_via_kalman,
        },
        "transmission": {
            "pencil": transmission_zeros,
            "smf": lambda ss, tol: transmission_zeros(transfer_matrix_exact(ss), tol),
        },
    }[args.kind]
    spectra = {}
    for method in (table if args.method == "all" else [args.method]):
        if method == "smf" and not ss.is_exact:
            if args.method == "all":
                report["warnings"].append(
                    "smf method skipped: input has floating entries"
                )
                continue
            raise ExactnessError("smf method needs exact input entries")
        if method not in table:
            raise ParameterError(f"method {method!r} does not apply to {args.kind} zeros")
        try:
            spectra[method] = table[method](ss, args.tol)
        except (HiddenModeConditionError, RealizabilityError) as e:
            if args.method == "all":
                report["warnings"].append(f"{method} method refused: {e}")
                continue
            raise
    report["results"] = {method: rep.to_dict() for method, rep in spectra.items()}
    if len(spectra) < 2:
        return EXIT_OK
    names = sorted(spectra)
    disc = 0.0
    agree = True
    base = spectra[names[0]]
    for other_name in names[1:]:
        pairs = multiset_match(
            base.expand(), spectra[other_name].expand(), max(args.tol * 100, 1e-7)
        )
        if pairs is None:
            agree = False
        else:
            disc = max([disc] + [abs(a - b) for a, b in pairs])
    report["cross_check"] = {"agree": agree, "max_discrepancy": disc}
    return EXIT_OK if agree else EXIT_CHECK_FAILED


@_spec_command
def cmd_poles(ss, args, report):
    from .smith import transfer_matrix_exact
    from .zeros import poles

    if args.exact and not ss.is_exact:
        raise ExactnessError("--exact requires exact input entries")
    pole_rep = poles(transfer_matrix_exact(ss) if args.exact else ss, args.tol)
    report["result"] = pole_rep.to_dict()
    return EXIT_OK


@_spec_command
def cmd_smf(ss, args, report):
    from .smith import smith_mcmillan, transfer_matrix_exact, zeros_poles_from_smf

    if not ss.is_exact:
        raise ExactnessError(
            "Smith-McMillan form needs exact input entries (use '3/4'-style "
            "strings or integers in the spec file)"
        )
    g = transfer_matrix_exact(ss)
    smf = smith_mcmillan(g)
    zeros_rep, poles_rep = zeros_poles_from_smf(smf, args.tol)
    report["transfer_matrix"] = [[str(e) for e in row] for row in g.entries]
    report["result"] = smf.to_dict()
    report["transmission_zeros"] = zeros_rep.to_dict()
    report["poles"] = poles_rep.to_dict()
    return EXIT_OK


@_spec_command
def cmd_kalman(ss, args, report):
    from .kalman import check_imaginary_hidden_modes, kalman_decompose

    kal = kalman_decompose(ss, args.tol)
    hm = check_imaginary_hidden_modes(ss, args.tol, args.real_part_tol)
    report["result"] = kal.to_dict()
    report["hidden_modes"] = hm.to_dict()
    return EXIT_OK


@_spec_command
def cmd_invert(ss, args, report):
    from .invertibility import classify_left_invertibility, inversion_witness

    rep = classify_left_invertibility(ss, args.tol)
    samples = [0.3 + 0.7j, 1.1 - 0.4j, 2.2 + 0.1j]
    witness = inversion_witness(ss, samples, max(args.tol, 1e-8))
    report["result"] = rep.to_dict()
    report["inversion_witness"] = witness.to_dict()
    return EXIT_OK


def _parse_sweep(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError("--sweep wants from:to:points")
    try:
        lo, hi, pts = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise ParameterError(f"bad --sweep value: {e}") from e
    return lo, hi, pts


def cmd_feedback(args):
    from . import feedback as fb

    plant, plant_raw = load_feedback_spec(args.plant)
    controller, controller_raw = load_feedback_spec(args.controller)
    report = {
        "command": "feedback",
        "plant": _echo(plant_raw),
        "controller": _echo(controller_raw),
        "warnings": [],
    }
    g_q, g_p = fb.quadrature_transfer(plant)
    k_q, k_p = fb.quadrature_transfer(controller)
    report["plant_transfer"] = {"G_q": str(g_q), "G_p": str(g_p)}
    report["controller_transfer"] = {"K_q": str(k_q), "K_p": str(k_p)}
    report["duality"] = {
        "plant": fb.check_quadrature_duality(g_q, g_p),
        "controller": fb.check_quadrature_duality(k_q, k_p),
    }

    alpha = None
    if args.solve_alpha:
        sol = fb.solve_alpha_for_squeezing(plant, controller, args.solve_alpha)
        report["alpha_solution"] = sol.to_dict()
        report["alpha_solution"]["quadrature"] = args.solve_alpha
        if sol.physical:
            alpha = sol.alpha
        else:
            report["warnings"].append(
                f"solved alpha {sol.raw} is not a physical beamsplitter "
                "(|alpha| > 1); no closed loop computed"
            )
    elif args.alpha is not None:
        alpha = Fraction(args.alpha)

    if args.synthesize:
        if alpha is None:
            raise ParameterError("--synthesize needs --alpha (or a physical --solve-alpha)")
        sign = "-" if args.synthesize in ("-", "minus") else "+"
        controller = fb.matched_controller(plant, alpha, sign)
        report["synthesized_controller"] = {
            "omega_plus": str(controller.omega_plus),
            "c_q": str(controller.c_q),
            "c_p": str(controller.c_p),
            "sign": sign,
        }

    if alpha is not None:
        net = fb.FeedbackNetwork(plant, controller, fb.Beamsplitter.create(alpha))
        t_q, t_p = fb.closed_loop(net)
        if t_q.is_one() and t_p.is_one():
            report["warnings"].append(
                "degenerate mirror: closed loop is identically 1 at both quadratures"
            )
        report["alpha"] = str(Fraction(alpha))
        report["closed_loop"] = {
            "T_q": str(t_q),
            "T_p": str(t_p),
            "duality": fb.check_quadrature_duality(t_q, t_p),
        }
        report["squeezing_residuals"] = {
            "q": str(fb.squeezing_residual(net, "q")),
            "p": str(fb.squeezing_residual(net, "p")),
        }
        if args.sweep:
            lo, hi, pts = _parse_sweep(args.sweep)
            rows = fb.frequency_sweep(net, lo, hi, pts)
            out = args.sweep_out or "-"
            if out == "-":
                fb.write_sweep_csv(rows, sys.stdout)
            else:
                with open(out, "w") as fh:
                    fb.write_sweep_csv(rows, fh)
                report["sweep_csv"] = out
    elif args.sweep:
        raise ParameterError("--sweep needs a closed loop; give --alpha or --solve-alpha")

    emit(report, args.format)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lqsys",
        description=(
            "Analyze linear quantum systems: physical realizability, "
            "invariant/transmission zeros, poles, Smith-McMillan forms, "
            "Kalman decompositions, left invertibility, and SISO coherent "
            "feedback networks."
        ),
        epilog=EXIT_TABLE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, exact_flag=False):
        p.add_argument("--tol", type=float, default=1e-9, help="tolerance (default 1e-9)")
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="report format (json is the machine format)",
        )
        if exact_flag:
            p.add_argument(
                "--exact", action="store_true",
                help="require exact arithmetic; error on floating input",
            )

    p = sub.add_parser("check", help="physical-realizability residuals")
    p.add_argument("spec")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("zeros", help="invariant or transmission zeros")
    p.add_argument("spec")
    p.add_argument("--kind", choices=("invariant", "transmission"), default="invariant")
    p.add_argument(
        "--method",
        choices=("pencil", "flat", "smf", "theorem", "all"),
        default="pencil",
        help=(
            "pencil: Rosenbrock pencil eigenvalues; flat: eigenvalues of the "
            "negated flat/sharp adjoint (realizable systems only); smf: exact "
            "Smith-McMillan numerators (transmission, exact input); theorem: "
            "Kalman observable/unobservable split (needs purely imaginary "
            "hidden modes); all: cross-check every applicable method"
        ),
    )
    common(p)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("poles", help="pole multiset of the transfer matrix")
    p.add_argument("spec")
    common(p, exact_flag=True)
    p.set_defaults(func=cmd_poles)

    p = sub.add_parser("smf", help="exact Smith-McMillan form (exact input only)")
    p.add_argument("spec")
    common(p)
    p.set_defaults(func=cmd_smf)

    p = sub.add_parser("kalman", help="four-block Kalman decomposition")
    p.add_argument("spec")
    p.add_argument(
        "--real-part-tol", type=float, default=1e-8,
        help="|Re| threshold for 'purely imaginary' hidden modes (default 1e-8)",
    )
    common(p)
    p.set_defaults(func=cmd_kalman)

    p = sub.add_parser("invert", help="left-invertibility classification")
    p.add_argument("spec")
    common(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("feedback", help="SISO coherent feedback analysis")
    p.add_argument("plant", help="plant feedback-spec JSON")
    p.add_argument("controller", help="controller feedback-spec JSON")
    p.add_argument("--alpha", help="beamsplitter parameter (rational, e.g. 1/4)")
    p.add_argument(
        "--solve-alpha", choices=("q", "p"), default=None,
        help="solve the ideal-squeezing condition for alpha at this quadrature",
    )
    p.add_argument(
        "--synthesize", choices=("+", "-", "plus", "minus"), default=None,
        help="synthesize a matched controller ('-' targets q, '+' targets p)",
    )
    p.add_argument("--sweep", help="frequency sweep from:to:points (log spaced)")
    p.add_argument("--sweep-out", help="CSV output path ('-' for stdout)")
    common(p)
    p.set_defaults(func=cmd_feedback)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed reader shows here, not at exit
        return code
    except LqsysError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull first, as
        # the Python docs advise (signal module, note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
