"""Shared machinery of the benchmark: program import, reference clock,
slice bookkeeping, span recording and result printing.

Nothing here imports ``repro`` at module load; :func:`import_program`
puts the checkout's ``src`` first on ``sys.path`` and fails the run when
the program is not there.
"""

from __future__ import annotations

import json
import mmap
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: Root of the checkout the benchmark runs in (``perfbench``'s parent).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for one run (temporary caches, child-process files);
#: emptied at the end of every run.
RUN_DIR = ROOT / ".perfbench-run"
#: Where traced runs leave their Chrome trace-event files.
TRACE_DIR = ROOT / ".perfbench-traces"

#: The program's formats, operations and modes the workloads cover.
OPS = ("add", "sub", "mul", "div", "sqrt", "fma")
ARITY = {"add": 2, "sub": 2, "mul": 2, "div": 2, "sqrt": 1, "fma": 3}
SERVE_FORMATS = ("fp16", "fp32", "fp64")
ALL_FORMATS = ("fp16", "bf16", "fp32", "fp48", "fp64")
MODES = ("rne", "rtz")
#: Fixed Table-2-style recommend queries.  The first, the best
#: area-efficiency fp32 adder that still clears 200 MHz, is the one
#: paper-regen runs; serve-ops cycles through all three.
QUERIES = (
    {"kinds": ["adder"], "formats": ["fp32"], "objective": "mhz_per_slice",
     "constraints": {"min_clock_mhz": 200}},
    {"kinds": ["multiplier"], "formats": ["fp64"],
     "objective": "mops_per_watt", "constraints": {"min_clock_mhz": 150}},
    {"kinds": ["adder", "multiplier"], "formats": ["fp16", "fp32"],
     "objective": "throughput_mops", "constraints": {"max_slices": 800}},
)


def best_feasible(points: list, query: dict) -> tuple:
    """(best value, ids achieving it) over the unit catalog points of the
    query's kinds and formats that meet every constraint; the
    benchmark's own constrained argmax."""
    senses = {"max": lambda v, b: v <= b, "min": lambda v, b: v >= b}
    feasible = [
        p for p in points
        if p["kind"] in query["kinds"] and p["format"] in query["formats"]
        and all(senses[k.split("_", 1)[0]](p[k.split("_", 1)[1]], bound)
                for k, bound in query["constraints"].items())
    ]
    objective = query["objective"]
    minimize = objective in ("stages", "slices", "latency_ns", "power_mw",
                             "energy_per_op_nj")
    values = [p[objective] for p in feasible]
    best = min(values) if minimize else max(values)
    return best, {p["id"] for p in feasible if p[objective] == best}


class BenchError(RuntimeError):
    """The benchmark cannot run here (program missing, child failed)."""


def import_program():
    """Import ``repro`` from this checkout's ``src``; raise if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


def drop_program_env() -> None:
    """Remove inherited ``REPRO_*`` knobs from this process: a shared
    cache directory or a server override would change what is measured
    and let a run write outside the checkout."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def child_env() -> dict:
    """Environment for program child processes: this checkout's
    sources, temp files and bytecode inside the run directory.

    Bytecode is always written, to a cache of the run's own: the first
    child of a run compiles the sources and the rest load them, so a
    set-up median does not depend on whether the caller's environment
    allows bytecode writes or the checkout already holds some (compiling
    added about 50% to a start here).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(RUN_DIR)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(RUN_DIR / "pycache")
    return env


@contextmanager
def run_dir():
    """The run's scratch directory, removed when the run ends."""
    RUN_DIR.mkdir(exist_ok=True)
    try:
        yield RUN_DIR
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)


def temp_dir() -> str:
    return tempfile.mkdtemp(dir=RUN_DIR)


# ---------------------------------------------------------------------- #
# reference clock
# ---------------------------------------------------------------------- #
# Host speed on a shared VM drifts by tens of percent over tens of
# seconds.  Every timed slice is paired with one of these fixed
# computations, which call no program code, measured in the same
# window; a slice's time is reported as ``raw * REF_S / ref``, i.e. at
# the speed the host had when REF_S was recorded.

_REF_WORDS = [f"{i:x}" for i in range(256)]


def ref_python() -> int:
    """Interpreter-bound reference: integer, dict, list and string work
    of the kind request handling and model code do."""
    acc = 12345
    table: dict = {}
    parts = []
    words = _REF_WORDS
    for i in range(6000):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        key = words[acc & 255]
        table[key] = table.get(key, 0) + (acc >> 7)
        if not i & 63:
            parts.append("%s:%d" % (key, acc & 1023))
    return acc ^ len(",".join(parts)) ^ len(table)


_REF_N = 1 << 20
_ref_arrays: list = []


def ref_numpy() -> int:
    """Memory-bound reference: uint64 passes over 8 MiB arrays plus
    first touches of freshly mapped pages -- the access pattern of the
    vectorized datapath at bulk sizes, whose temporaries page-fault."""
    if not _ref_arrays:
        x = np.arange(_REF_N, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        _ref_arrays.append(x)
    x = _ref_arrays[0]
    y = (x >> np.uint64(11)) & np.uint64((1 << 40) - 1)
    z = y * np.uint64(3) + (x & np.uint64(0xFFFF))
    w = np.where(z > y, z - y, y)
    with mmap.mmap(-1, 16 << 20) as mm:
        pages = np.frombuffer(mm, dtype=np.uint8)
        pages[::4096] = 1
        del pages
    return int(w[::65536].sum())


#: Mean seconds of each reference on the host the figures in the
#: README were recorded on (2-vCPU VM).  ``client`` is the serve-ops
#: client's own CPU seconds per request and ``echo`` the wall seconds
#: per request of the reference server (see serve_ops, echo).  Changing
#: these rescales every normalized figure, so they are fixed here.
REF_S = {"python": 3.0e-3, "numpy": 36.0e-3, "client": 0.17e-3,
         "echo": 3.2e-3}
REFS = {"python": ref_python, "numpy": ref_numpy}


def time_ref(kind: str) -> float:
    """Seconds of one run of a reference.  Callers average many: host
    speed here switches between a fast and a slow state, and a mean of
    samples tracks the share of time spent in each."""
    fn = REFS[kind]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class Slices:
    """Timed slices, each with the reference measured beside it.

    ``add(work, seconds, ref)`` records ``work`` units done in
    ``seconds``; ``scale(i)`` is the factor that brings slice ``i`` to
    reference host speed.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.work: list = []
        self.seconds: list = []
        self.refs: list = []

    def add(self, work: float, seconds: float, ref: float) -> None:
        self.work.append(work)
        self.seconds.append(seconds)
        self.refs.append(ref)

    def scale(self, i: int) -> float:
        return REF_S[self.kind] / self.refs[i]

    def rate(self) -> tuple:
        """(normalized, raw) work per second over all slices."""
        work = sum(self.work)
        norm = sum(s * self.scale(i) for i, s in enumerate(self.seconds))
        return work / norm, work / sum(self.seconds)

    def median_time(self) -> tuple:
        """(normalized, raw) median seconds per slice."""
        norm = [s * self.scale(i) for i, s in enumerate(self.seconds)]
        return statistics.median(norm), statistics.median(self.seconds)

    def host_speed(self) -> float:
        """Median host speed relative to the reference host."""
        return statistics.median(REF_S[self.kind] / r for r in self.refs)


def measure_setup(workload: str, reps: int = 7) -> float:
    """Median raw set-up seconds of ``reps`` fresh probe processes
    (:mod:`perfbench.probe`).  Callers scale it by the host speed their
    whole run measured: references taken around a child's start-up
    alone were noisier than the start-up itself."""
    raw = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.probe", workload],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr[-2000:]}")
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(raw)


def peak_rss_mb() -> float:
    """This process's peak resident set size (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# spans (traced runs only)
# ---------------------------------------------------------------------- #
class Spans:
    """In-memory span recorder around calls into the program's layers.

    Spans nest through a stack; a span's self time is its duration
    minus the time its direct children cover.  Written out once, at the
    end of the run.
    """

    def __init__(self) -> None:
        self.spans: list = []  # [name, t0, t1, parent]
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, t0: float, t1: float) -> None:
        """A completed span under the currently open one."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, t0, t1, parent])

    def self_times(self) -> dict:
        """name -> [count, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        table: dict = {}
        for i, (name, t0, t1, _parent) in enumerate(self.spans):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i]
        return table

    def write_chrome(self, path: Path) -> None:
        """Chrome trace-event JSON (load in chrome://tracing or Perfetto)."""
        if not self.spans:
            return
        base = min(s[1] for s in self.spans)
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": round((t0 - base) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "pid": os.getpid(),
                "tid": 1,
            }
            for name, t0, t1, _parent in self.spans
        ]
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))

    def render_table(self) -> str:
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1][2])
        out = [f"{'span':<44} {'count':>7} {'total_ms':>11} {'self_ms':>11}"]
        for name, (count, total, own) in rows:
            out.append(
                f"{name:<44} {count:>7} {total * 1e3:>11.2f} {own * 1e3:>11.2f}"
            )
        return "\n".join(out)


def span_cost_s(n: int = 20000) -> float:
    """Seconds one recorded span costs (for the overhead estimate)."""
    spans = Spans()
    t0 = time.perf_counter()
    for _ in range(n):
        with spans.span("x"):
            pass
    return (time.perf_counter() - t0) / n


# ---------------------------------------------------------------------- #
# output
# ---------------------------------------------------------------------- #
def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Human-readable lines, then the one-line JSON result (last line)."""
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
