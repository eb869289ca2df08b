"""Shared machinery of the benchmark: the closed item loop, the machine's
speed against a reference kernel, spans, checks and the statistics every
workload reports.

Importing this module loads neither numpy nor lqsys, so ``run.py`` can pin
the BLAS thread count in the environment before either is loaded.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Matrices in this benchmark are at most 84 x 88; BLAS threads add jitter
# there and no speed, so every process the harness starts runs on one.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A tail percentile must leave at least this many items beyond it.
TAIL_BEYOND = 10


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def pin_cpu():
    """Keep this process and its children on the first CPU it may use.
    The vCPUs of a shared host can differ in speed by 1.4x at times, and
    a process that migrates between them turns that into noise."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env():
    """Environment of every subprocess: this process's, which carries the
    pinned threads, with the checkout's own ``src`` as the import path."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def check_checkout():
    """Refuse to run anywhere but a checkout that holds the package source;
    an installed lqsys elsewhere must never be measured by mistake."""
    if not (SRC / "lqsys" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'lqsys'}")
    sys.path.insert(0, str(SRC))
    import lqsys

    if Path(lqsys.__file__).resolve().parent != (SRC / "lqsys").resolve():
        raise SystemExit(f"bench: imported lqsys from {lqsys.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# machine speed
#
# The benchmark shares a few cores of a host with other tenants, and their
# load changes how fast this process runs: on a 2-vCPU x86 VM the same
# work takes 1.3-1.5x longer for stretches of a fraction of a second to
# minutes.  Every time the benchmark reports is therefore taken at a
# reference speed: the wall time as measured, times the reference kernel
# time over the mean time of that fixed kernel run next to that work.  The
# kernel calls nothing of lqsys, so a slower program still reads slower;
# only the machine's speed cancels.  run.py prints the raw figures beside
# them.

# The kernel's times on the 2-vCPU VM in its fast state: run by the timer,
# with caches cold from the program's work, and run between child
# processes after one warm-up run.
REFERENCE_TIMER_S = 0.85e-3
REFERENCE_WARM_S = 0.45e-3
SAMPLE_PERIOD_S = 0.025  # in-process: one kernel run per period, by SIGALRM
SAMPLE_WINDOW_S = 0.1  # samples this close to a piece of work describe it
_REF_COEFFS = [Fraction(k, k + 3) for k in range(1, 7)]
_REF_MATRIX = [[((7 * i + 3 * j) % 11 - 5) / 3.0 for j in range(12)] for i in range(12)]


def reference_kernel():
    """Under a millisecond of the interpreter-bound work lqsys does:
    Horner evaluation of a polynomial with rational coefficients along the
    imaginary axis, rational arithmetic and one small dense eigenproblem.
    Of the kernels tried, this one's time tracked the workloads' best
    while the host's load changed."""
    import numpy

    acc = 0.0
    for w in range(60):
        z = 1j * (0.1 * w + 0.01)
        a = 0j
        for c in reversed(_REF_COEFFS):
            a = a * z + complex(float(c))
        acc += abs(a)
    x = Fraction(0)
    for i in range(1, 25):
        x += Fraction(i, 2 * i + 1) * Fraction(3, i + 2)
    numpy.linalg.eigvals(numpy.array(_REF_MATRIX) + acc * 0.0)
    return x


class Speedometer:
    """Timed runs of the reference kernel, as (start, time over the
    reference time of that kind of run).

    In-process workloads sample on a timer while their items run
    (``start``/``stop``); the time the kernel takes inside an item is
    subtracted from its latency.  Work in child processes samples
    ``between`` the children instead, so that no kernel competes with a
    child for the cores."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent in the kernel, in total
        self.running = False

    def sample(self, reference):
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            t1 = time.perf_counter()
            reference_kernel()
            t2 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append((t1, (t2 - t1) / reference))
        self.spent += time.perf_counter() - t0

    def _tick(self, signum, frame):
        self.sample(REFERENCE_TIMER_S)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self.running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False

    def between(self, k=60):
        """``k`` samples, some 30 ms of them, after one unrecorded run
        that warms the caches the waiting harness left cold; nothing while
        the timer samples."""
        if not self.running:
            reference_kernel()
            for _ in range(k):
                self.sample(REFERENCE_WARM_S)

    def factors(self, windows):
        """The reference time over the mean kernel time within
        SAMPLE_WINDOW_S of each (start, end) window; the nearest sample
        where none is."""
        starts = [t for t, _ in self.samples]
        out = []
        for lo, hi in windows:
            i = bisect.bisect_left(starts, lo - SAMPLE_WINDOW_S)
            j = bisect.bisect_right(starts, hi + SAMPLE_WINDOW_S)
            if i == j:
                i = min(max(i - 1, 0), len(starts) - 1)
                j = i + 1
            out.append(1.0 / statistics.fmean(d for _, d in self.samples[i:j]))
        return out


SPEED = Speedometer()


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """Spans kept in memory as (id, name, start, end, parent, item) and
    written out once, at the end of the run.  A disabled tracer records
    nothing but still hands out ids."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._next = 0

    def new_id(self):
        self._next += 1
        return self._next

    def span(self, name, start, end, parent=None, item=None, span_id=None):
        if self.enabled:
            sid = span_id if span_id is not None else self.new_id()
            self.spans.append((sid, name, start, end, parent, item))

    def layer_seconds(self):
        """Total seconds per span name, items excluded."""
        out = Counter()
        for _, name, start, end, _, _ in self.spans:
            if name != "item":
                out[name] += end - start
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "item")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def span_cost_seconds(samples=20000):
    """Measured cost of recording one span, the only work tracing adds."""
    tracer = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(samples):
        tracer.span("probe", t0, t0, 1, 1)
    return (time.perf_counter() - t0) / samples


# ---------------------------------------------------------------------------
# items


class Item:
    """One unit of work: a system, a CLI command or a feedback network.

    ``call`` times one call into a layer; its duration counts toward the
    item's latency, less any reference-kernel sample taken during it.
    ``latency`` is that time at the reference speed, set after the run.
    ``check`` judges one output against a reference that
    the benchmark computed without the function being checked.  A check
    marked ``known_defect`` judges a verdict the program is known to get
    wrong on some inputs (the floating-point rank decisions the roadmap
    lists as wrong beyond n = 4, and matched-controller synthesis for
    plants with a transfer zero or pole at the origin); a wrong one lowers
    ``ok_share`` and the defect counts but is not a failed operation.
    """

    def __init__(self, tracer, item_id, pass_index, label):
        self.tracer = tracer
        self.item_id = item_id
        self.pass_index = pass_index
        self.label = label
        self.span_id = tracer.new_id()
        self.busy = 0.0
        self.latency = 0.0
        self.window = (0.0, 0.0)
        self.attempted = 0
        self.failed = 0
        self.known_wrong = 0
        self.counts = Counter()
        self.maxima = {}
        self.problems = []

    def call(self, layer, fn, *args, allowed=(), **kwargs):
        """Time ``fn``; an exception of a type in ``allowed`` is returned
        instead of raised, so the caller can judge a refusal."""
        spent = SPEED.spent
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except allowed as exc:
            out = exc
        t1 = time.perf_counter()
        self.busy += t1 - t0 - (SPEED.spent - spent)
        self.tracer.span(layer, t0, t1, self.span_id, self.item_id)
        return out

    def probe(self, layer, fn, *args, **kwargs):
        """A traced-only extra call: spanned, but not part of the latency."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.tracer.span(layer, t0, time.perf_counter(), self.span_id, self.item_id)
        return out

    def check(self, what, ok, known_defect=False):
        self.attempted += 1
        if ok:
            return True
        if known_defect:
            self.known_wrong += 1
        else:
            self.failed += 1
            self.problems.append(what)
        return False

    def count(self, name, k=1):
        self.counts[name] += k

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)


def run_loop(items_of_pass, run_item, seconds, tracer, probe_item=None):
    """Closed loop, one client: each item starts when the previous ends.

    Whole passes over the workload's corpus run until another pass of the
    length of the last one would overrun ``seconds``; there is always at
    least one.  Every pass of a workload has the same composition, so the
    statistics never depend on where a partial pass stopped.  Each item's
    latency is then scaled to the reference speed of the machine.
    """
    done = []
    start = time.perf_counter()
    pass_index = 0
    while True:
        t_pass = time.perf_counter()
        for label, payload in items_of_pass(pass_index):
            item = Item(tracer, len(done), pass_index, label)
            SPEED.between()
            t0 = time.perf_counter()
            try:
                run_item(item, payload)
                if probe_item is not None and tracer.enabled:
                    probe_item(item, payload)
            except Exception:  # one broken item must not end the run
                item.attempted += 1
                item.failed += 1
                item.problems.append("unexpected exception")
                traceback.print_exc(limit=4, file=sys.stderr)
            t1 = time.perf_counter()
            tracer.span("item", t0, t1, None, item.item_id, span_id=item.span_id)
            item.window = (t0, t1)
            done.append(item)
        pass_index += 1
        now = time.perf_counter()
        if now - start + (now - t_pass) > seconds:
            SPEED.between()
            for item, f in zip(done, SPEED.factors([it.window for it in done])):
                item.latency = item.busy * f
            return done, now - start, pass_index


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """(value, percentile, items beyond it): the highest percentile that
    still has at least TAIL_BEYOND items beyond it.  With fewer items than
    that the maximum is reported, with nothing beyond it."""
    vals = sorted(values)
    n = len(vals)
    if n <= TAIL_BEYOND:
        return vals[-1], 100.0, 0
    k = n - TAIL_BEYOND  # items at or below the percentile
    return vals[k - 1], 100.0 * k / n, TAIL_BEYOND


def end_to_end(items, setup_s, peak_rss_mb):
    """The six end-to-end metrics, plus the notes printed beside them."""
    lat = [it.latency for it in items]
    raw = [it.busy for it in items]
    attempted = sum(it.attempted for it in items)
    failed = sum(it.failed for it in items)
    wrong = sum(it.known_wrong for it in items)
    tail_s, pct, beyond = tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(items) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        # fail_share as its complement, so that the metric is never 0
        "ok_share": (1.0 - (failed + wrong) / attempted, "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "items": len(items),
        "raw_items_per_s": len(raw) / sum(raw),
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "raw_latency_tail_ms": tail(raw)[0] * 1e3,
        "speed_vs_reference": sum(raw) / sum(lat),
        "tail_percentile": round(pct, 2),
        "tail_items_beyond": beyond,
        "fail_share": (failed + wrong) / attempted,
        "failed_operations": failed,
        "known_defect_verdicts": wrong,
    }
    return metrics, notes, attempted, failed


def first_pass_counts(items):
    """Counts summed, and maxima taken, over the first pass, whose inputs
    depend on the seed only; later passes depend on how many fit in the
    time."""
    total = Counter()
    peaks = {}
    for it in items:
        if it.pass_index == 0:
            total.update(it.counts)
            for name, v in it.maxima.items():
                peaks[name] = max(peaks.get(name, v), v)
    return {**total, **peaks}


def peak_rss_self_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# subprocesses


def run_child(argv, stdout_path=None):
    """Run one child to completion; returns (exit code, stdout bytes,
    wall seconds, peak RSS of that child in MB).  Children run strictly
    one at a time and are always waited for."""
    t0 = time.perf_counter()
    with open(os.devnull, "wb") as devnull:
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=devnull, env=child_env(), cwd=ROOT
        )
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


def setup_seconds(argv, repeats):
    """Wall times of ``repeats`` fresh interpreters running ``argv``, each
    of which must exit 0, as (raw, at the reference speed) pairs."""
    walls = []
    for _ in range(repeats):
        SPEED.between()
        t0 = time.perf_counter()
        code, _, wall, _ = run_child(argv)
        t1 = time.perf_counter()
        SPEED.between()
        if code != 0:
            raise SystemExit(f"bench: set-up probe {argv} exited {code}")
        walls.append((wall, wall * SPEED.factors([(t0, t1)])[0]))
    return walls


def import_profile(repeats):
    """Median per-module import times (ms) of ``import lqsys`` from
    ``python -X importtime``, read from outside the package."""
    argv = [sys.executable, "-X", "importtime", "-c", "import lqsys"]
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=child_env(), cwd=ROOT
        )
        if proc.returncode != 0:
            raise SystemExit("bench: import lqsys failed under -X importtime")
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def parse_importtime(text):
    """import.* metrics in ms from ``-X importtime`` lines of the form
    ``import time: <self us> | <cumulative us> | <indent><module>``.
    A module imported before ``lqsys`` asked for it reads as 0."""
    cumulative = {}
    lqsys_self = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        cumulative[name] = int(cum_us)
        if name == "lqsys" or name.startswith("lqsys."):
            lqsys_self += int(self_us)
    return {
        "import.lqsys_ms": cumulative.get("lqsys", 0) / 1e3,
        "import.lqsys_self_ms": lqsys_self / 1e3,
        "import.numpy_ms": cumulative.get("numpy", 0) / 1e3,
        "import.scipy_linalg_ms": cumulative.get("scipy.linalg", 0) / 1e3,
        "import.scipy_optimize_ms": cumulative.get("scipy.optimize", 0) / 1e3,
    }
