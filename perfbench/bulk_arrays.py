"""Workload ``bulk-arrays``: in-process ``vec_*`` calls on 2**20-element
operand arrays.

One round is 30 calls: each of the six ops on each of the five formats,
with the rounding mode alternating over the (format, op) grid so every
format and every op runs under both modes.  At 2**20 elements an
operand is 8 MiB against a 4 MiB L2, so the datapath is memory-bound
and its NumPy temporaries dominate.  Operands are regenerated from
``(seed, call)`` before every call, outside the timed region.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import numpy as np

from perfbench import common, oracle

N = 1 << 20
#: Elements per call checked on the exact path.
SAMPLE = 512
#: Formats whose per-call peak allocation the traced run reports.
PEAK_FORMATS = ("fp16", "fp64")


def plan() -> list:
    """The round: (op, format, mode) for each call, in order."""
    return [
        (op, fmt, common.MODES[(fi + oi) % 2])
        for fi, fmt in enumerate(common.ALL_FORMATS)
        for oi, op in enumerate(common.OPS)
    ]


class Bulk:
    def __init__(self, seed: int) -> None:
        from repro.fp import vectorized
        from repro.fp.format import ALL_FORMATS
        from repro.fp.rounding import RoundingMode

        self.seed = seed
        self.calls = plan()
        self.formats = {f.name: f for f in ALL_FORMATS}
        self.modes = {m.value: m for m in RoundingMode}
        self.fns = {op: getattr(vectorized, f"vec_{op}") for op in common.OPS}
        self.expected: dict = {}  # call index -> (sample idx, words, flags)
        self.attempted = 0
        self.failed = 0
        self.mismatches: list = []
        self.cpu: list = []  # CPU seconds of each timed call

    def operands(self, i: int) -> tuple:
        op, fmt, _mode = self.calls[i]
        rng = np.random.default_rng([self.seed, i])
        return oracle.operands(op, oracle.FORMATS[fmt], N, rng)

    def call(self, i: int, ops: tuple):
        op, fmt, mode = self.calls[i]
        return self.fns[op](
            self.formats[fmt], *ops, self.modes[mode], with_flags=True
        )

    def check(self, i: int, ops: tuple, bits, flags) -> None:
        op, fmt, mode = self.calls[i]
        if i not in self.expected:
            rng = np.random.default_rng([self.seed, i, 1])
            idx = np.sort(rng.choice(N, SAMPLE, replace=False))
            exp = [
                oracle.exact_op(op, oracle.FORMATS[fmt], mode,
                                *(int(x[j]) for x in ops))
                for j in idx.tolist()
            ]
            self.expected[i] = (
                idx,
                np.array([w for w, _ in exp], dtype=np.uint64),
                np.array([f for _, f in exp], dtype=np.uint8),
            )
        idx, words, fl = self.expected[i]
        ok = np.array_equal(bits[idx], words) and np.array_equal(flags[idx], fl)
        if ok and oracle.has_fast_path(op, fmt, mode):
            e_bits, e_flags = oracle.fast_expected(op, fmt, *ops)
            ok = np.array_equal(bits, e_bits) and np.array_equal(flags, e_flags)
        if not ok:
            self.mismatches.append(self.calls[i])

    def round(self, slices: common.Slices, spans=None, peaks=None) -> None:
        for i, (op, fmt, _mode) in enumerate(self.calls):
            ops = self.operands(i)
            if peaks is not None and fmt in PEAK_FORMATS:
                # an extra, untimed call under tracemalloc
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
                self.call(i, ops)
                peaks[f"vec.peak_mb.{op}.{fmt}"] = (
                    tracemalloc.get_traced_memory()[1] - base) / 2**20
                tracemalloc.stop()
            ref_before = common.time_ref("numpy")
            self.attempted += 1
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                bits, flags = self.call(i, ops)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                self.failed += 1
                print(f"FAILED: vec_{op} {fmt}: {exc!r}", file=sys.stderr)
                continue
            t1 = time.perf_counter()
            self.cpu.append(time.process_time() - c0)
            slices.add(N, t1 - t0, (ref_before + common.time_ref("numpy")) / 2)
            if spans is not None:
                spans.add(f"vec.{op}.{fmt}", t0, t1)
            self.check(i, ops, bits, flags)
            del ops, bits, flags


def measure(seed: int, seconds: float) -> dict:
    """Untraced run: whole rounds until ``seconds`` have passed."""
    setup_raw = common.measure_setup("bulk-arrays")
    bulk = Bulk(seed)
    slices = common.Slices("numpy")
    t_end = time.perf_counter() + seconds
    while not bulk.attempted or time.perf_counter() < t_end:
        bulk.round(slices)
    rate, rate_raw = slices.rate()
    p50, p50_raw = slices.median_time()
    calls = len(slices.seconds)
    cpu_norm = sum(c * slices.scale(i) for i, c in enumerate(bulk.cpu))
    print(f"bulk-arrays: {calls} calls of {N} elements, host speed "
          f"{slices.host_speed():.3f}x reference")
    print(f"raw: {rate_raw:.6g} elem/s, p50 {p50_raw * 1e3:.3f} ms/call, "
          f"set-up {setup_raw:.4f} s")
    return {
        "correct": not bulk.mismatches,
        "mismatches": bulk.mismatches,
        "attempted": bulk.attempted,
        "failed": bulk.failed,
        "setup_s": setup_raw * slices.host_speed(),
        "peak_rss_mb": common.peak_rss_mb(),
        "work_per_s": rate,
        "p50_ms": p50 * 1e3,
        "cpu_ms_per_op": cpu_norm / calls * 1e3,
    }


def layers(seed: int, spans: common.Spans) -> dict:
    """Traced round: ns/element per (op, format) and per-call peak
    NumPy allocation at fp16 and fp64."""
    bulk = Bulk(seed)
    slices = common.Slices("numpy")
    peaks: dict = {}
    with spans.span("bulk-arrays.round"):
        bulk.round(slices, spans=spans, peaks=peaks)
    out = {}
    for i, (op, fmt, _mode) in enumerate(bulk.calls):
        out[f"vec.ns_per_elem.{op}.{fmt}"] = (
            slices.seconds[i] * slices.scale(i) / N * 1e9)
    out.update(peaks)
    return {"metrics": out, "attempted": bulk.attempted,
            "failed": bulk.failed, "mismatches": bulk.mismatches}
