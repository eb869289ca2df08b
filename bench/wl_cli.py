"""cli_specs: every CLI command in a fresh interpreter, one at a time, with
``--format json``, over the bundled specs and generated ones with
n = 2-3.  Each command's exit code and the sha256 of its stdout must equal
the fingerprint stored in ``cli_fingerprints.json``."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from lqsys.cli import main as cli_main
from lqsys.specio import load_feedback_spec, load_system_spec

from core import OUT, ROOT, run_child
from wl_feedback import loop_gain_at_zero

FINGERPRINTS = Path(__file__).resolve().parent / "cli_fingerprints.json"
GEN_DIR = OUT / "cli"
ENTRY = "import sys; from lqsys.cli import main; sys.exit(main())"

BUNDLED_SYSTEMS = (
    "specs/classical_hidden_mode.json",
    "specs/classical_pole_only.json",
    "specs/dpa.json",
    "specs/gain_system.json",
    "specs/passive_cavity.json",
    "specs/quadrature_hidden_pair.json",
)
BUNDLED_FEEDBACK = ("specs/feedback_plant.json", "specs/feedback_controller.json")
# Children run while the harness waits; the machine's speed is sampled
# between them, never beside them.
IN_PROCESS = False
GEN_SYSTEMS = 12
GEN_FEEDBACK = 4

# command -> arguments after the spec path(s)
SYSTEM_COMMANDS = {
    "check": ["check"],
    "zeros": ["zeros", "--method", "all"],
    "poles": ["poles", "--exact"],
    "smf": ["smf"],
    "kalman": ["kalman"],
    "invert": ["invert"],
}
FEEDBACK_ARGS = ["--solve-alpha", "q", "--sweep", "1e-4:1e1:60"]


def _frac(rng):
    num, den = rng.randint(-3, 3), rng.randint(1, 3)
    return f"{num}/{den}" if den != 1 else num


def _entry(rng):
    return [_frac(rng), _frac(rng)]


def generated_system(index):
    """Exact params spec with n = 2-3, m = 1-2; odd indices are passive.
    Hermitian omega_minus and symmetric omega_plus come from adding a
    random matrix to its (conjugate) transpose, done on the numerators."""
    rng = random.Random(f"cli_specs/system/{index}")
    n, m = 2 + index % 2, 1 + (index // 2) % 2
    passive = index % 4 in (1, 3)

    def herm(conj):
        mat = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                re, im = rng.randint(-3, 3), rng.randint(-3, 3)
                if i == j:
                    im = 0 if conj else im
                mat[i][j] = [re, im]
                mat[j][i] = [re, -im if conj else im]
        return mat

    zero = [[[0, 0]] * n for _ in range(n)]
    spec = {
        "representation": "params",
        "n": n,
        "m": m,
        "omega_minus": herm(True),
        "omega_plus": zero if passive else herm(False),
        "c_minus": [[_entry(rng) for _ in range(n)] for _ in range(m)],
        "c_plus": [[[0, 0]] * n for _ in range(m)] if passive
        else [[_entry(rng) for _ in range(n)] for _ in range(m)],
    }
    return spec


def generated_feedback(index):
    """(plant, controller) feedback specs with an imaginary pump and the
    couplings given by their nonzero product, redrawn until the ideal
    squeezing condition has a physical solution, so that the command goes
    on to the closed loop and the sweep."""
    rng = random.Random(f"cli_specs/feedback/{index}")

    def one():
        prod = 0
        while prod == 0:
            prod = rng.randint(-4, 4)
        w = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        # i * omega_plus = -w, half coupling = prod / 2
        factor = (-w - Fraction(prod, 2), -w + Fraction(prod, 2))
        return {"omega_plus": [0, str(w)], "c_product": [prod, 0]}, factor

    while True:
        (plant, fp), (controller, fc) = one(), one()
        gk0 = loop_gain_at_zero([fp, fc])
        if gk0 is not None and abs(gk0) <= 1:
            return plant, controller


def _write(path, spec):
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(spec, indent=1).encode()
    if not path.exists() or path.read_bytes() != data:
        path.write_bytes(data)
    return str(path.relative_to(ROOT))


def spec_pool():
    """Write the generated specs; return (system paths, feedback pairs),
    all relative to the checkout root."""
    systems = list(BUNDLED_SYSTEMS)
    for i in range(GEN_SYSTEMS):
        systems.append(_write(GEN_DIR / f"gen_system_{i:02d}.json", generated_system(i)))
    pairs = [BUNDLED_FEEDBACK]
    for i in range(GEN_FEEDBACK):
        plant, controller = generated_feedback(i)
        pairs.append((_write(GEN_DIR / f"gen_plant_{i:02d}.json", plant),
                      _write(GEN_DIR / f"gen_controller_{i:02d}.json", controller)))
    return systems, pairs


def all_commands(systems, pairs):
    """Every argv the fingerprints cover."""
    out = [SYSTEM_COMMANDS[c][:1] + [s] + SYSTEM_COMMANDS[c][1:]
           for c in SYSTEM_COMMANDS for s in systems]
    out += [["feedback", p, k] + FEEDBACK_ARGS for p, k in pairs]
    return [argv + ["--format", "json"] for argv in out]


def build_inputs(seed, item_timer=None):
    """For each of the seven commands one bundled and one generated spec,
    drawn by seed, in seeded order."""
    systems, pairs = spec_pool()
    rng = random.Random(f"cli_specs/{seed}")
    chosen = []
    for args in SYSTEM_COMMANDS.values():
        for spec in (rng.choice(systems[:len(BUNDLED_SYSTEMS)]),
                     rng.choice(systems[len(BUNDLED_SYSTEMS):])):
            chosen.append(args[:1] + [spec] + args[1:])
    for plant, controller in (pairs[0], rng.choice(pairs[1:])):
        chosen.append(["feedback", plant, controller] + FEEDBACK_ARGS)
    rng.shuffle(chosen)
    with open(FINGERPRINTS) as fh:
        refs = json.load(fh)
    return [(argv[0], (argv + ["--format", "json"], refs)) for argv in chosen]


def items_of_pass(corpus):
    return lambda p: corpus


def fingerprint_key(argv):
    return " ".join(argv)


def spec_digest(argv):
    """sha256 over the spec files an argv reads, so a changed generator
    shows as a stale fingerprint instead of a changed program."""
    h = hashlib.sha256()
    for arg in argv:
        if arg.endswith(".json"):
            h.update((ROOT / arg).read_bytes())
    return h.hexdigest()


def run_command(argv):
    return run_child([sys.executable, "-c", ENTRY] + argv)


def run_item(it, payload):
    argv, refs = payload
    code, out, _, rss = it.call("cli.command", run_command, argv)
    it.peak("child_rss_mb", rss)
    ref = refs.get(fingerprint_key(argv))
    it.check("fingerprint exists for this spec", ref is not None
             and ref["spec_sha256"] == spec_digest(argv))
    if ref is not None:
        it.check("exit code and stdout bytes equal the fingerprint",
                 code == ref["exit"] and hashlib.sha256(out).hexdigest() == ref["stdout_sha256"])


def probe_item(it, payload):
    """In-process spec load and cli.main, traced runs only."""
    argv, refs = payload
    if argv[0] == "feedback":
        it.probe("specio.load", load_feedback_spec, argv[1])
        it.probe("specio.load", load_feedback_spec, argv[2])
    else:
        it.probe("specio.load", load_system_spec, argv[1])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = it.probe("cli.main", cli_main, argv)
    ref = refs.get(fingerprint_key(argv))
    it.check("in-process cli.main reproduces the fingerprint", ref is not None
             and code == ref["exit"]
             and hashlib.sha256(buf.getvalue().encode()).hexdigest() == ref["stdout_sha256"])


def record_fingerprints():
    """Run every covered command once and store its exit code and stdout
    digest.  Only for a deliberate change of CLI output or of the spec
    pool; a performance change must leave the file as it is."""
    systems, pairs = spec_pool()
    table = {}
    for argv in all_commands(systems, pairs):
        code, out, wall, _ = run_command(argv)
        table[fingerprint_key(argv)] = {
            "exit": code,
            "stdout_sha256": hashlib.sha256(out).hexdigest(),
            "spec_sha256": spec_digest(argv),
        }
        print(f"{wall:6.2f}s exit {code}  {fingerprint_key(argv)}", flush=True)
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
