"""Workload ``paper-regen``: the paper's own regeneration workflow.

One round is a cold pass and two warm passes.  The cold pass runs, through
a fresh ``Engine`` over a fresh temporary disk cache (installed as the
default engine, so nested sweeps share it), all 18 ``REGISTRY``
experiments, the unit and kernel frontier jobs, one Table-2-style
``recommend`` and batched fp32 matmul at n=64 and n=128.  The warm pass
runs the same items through another fresh ``Engine`` reading that disk
cache; matmul is not an engine job, so it is recomputed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import shutil
import statistics
import sys
import time

import numpy as np

from perfbench import common

MATMUL_SIZES = (64, 128)
#: Warm passes per round.  A warm pass is mostly the uncached matmul,
#: whose time varies ~14% pass to pass here; two per round double the
#: samples behind its median.
WARM_PASSES = 2
#: MAC pipeline depths of the simulated array (multiplier, adder).
MATMUL_LATENCY = (7, 4)


def matmul_inputs(seed: int, n: int) -> tuple:
    """Seeded fp32 matrices with entries in [0.5, 2), as word lists."""
    rng = np.random.default_rng([seed, n])
    a, b = (
        (0.5 + 1.5 * rng.random((n, n))).astype(np.float32) for _ in range(2)
    )
    return a, b


def float32_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """NumPy float32 accumulation in the array's k order."""
    acc = np.zeros(a.shape, dtype=np.float32)
    for k in range(a.shape[1]):
        acc = acc + a[:, k:k + 1] * b[k:k + 1, :]
    return acc.view(np.uint32)


class Regen:
    def __init__(self, seed: int, spans=None) -> None:
        from repro.engine import Engine, ResultCache, configure_default_engine
        from repro.experiments import REGISTRY, experiment_job
        from repro.explore import catalog
        from repro.explore.recommend import recommend
        from repro.fp.format import FP32
        from repro.kernels.batched import BatchedMatmulArray

        self.Engine = Engine
        self.configure = configure_default_engine
        self.REGISTRY = REGISTRY
        self.experiment_job = experiment_job
        self.catalog = catalog
        self.recommend = recommend
        self.span = spans.span if spans is not None else (
            lambda name: contextlib.nullcontext())
        span = self.span

        class TimedCache(ResultCache):
            """The disk cache, with get/put timed from outside."""

            def get(self, job):
                with span("engine.cache_get"):
                    return super().get(job)

            def put(self, job, result, wall_s=0.0):
                with span("engine.cache_put"):
                    return super().put(job, result, wall_s)

        self.Cache = TimedCache if spans is not None else ResultCache
        self.matmul = {}
        for n in MATMUL_SIZES:
            a, b = matmul_inputs(seed, n)
            array = BatchedMatmulArray(FP32, n, *MATMUL_LATENCY)
            words = (a.view(np.uint32).tolist(), b.view(np.uint32).tolist())
            self.matmul[n] = (array, words, float32_matmul(a, b))
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.counts: dict = {}
        self.cold_cpu: list = []  # CPU seconds of each cold pass
        self.cpu_refs: list = []  # mean CPU seconds of each pass's references
        self.pass_time = (0.0, 0.0)  # (seconds, mean reference) of the last pass
        self.pass_cpu = 0.0

    def items(self, engine) -> list:
        """(span name, thunk) for every item of one pass."""
        out = [
            (f"experiments.{name}",
             lambda name=name: engine.evaluate(self.experiment_job(name)))
            for name in self.REGISTRY
        ]
        out += [
            ("explore.unit_frontier",
             lambda: engine.evaluate(self.catalog.unit_frontier_job())),
            ("explore.kernel_frontier",
             lambda: engine.evaluate(self.catalog.kernel_frontier_job())),
            ("explore.recommend",
             lambda: self.recommend(common.QUERIES[0], engine=engine)),
        ]
        out += [
            (f"kernels.matmul.n{n}",
             lambda n=n: self.matmul[n][0].run(*self.matmul[n][1]))
            for n in MATMUL_SIZES
        ]
        return out

    def one_pass(self, cache_dir: str, label: str) -> tuple:
        """Run every item through a fresh engine; (results, engine)."""
        engine = self.Engine(cache=self.Cache(cache_dir))
        self.configure(engine)
        results = {}
        raw, cpu, refs, cpu_refs = 0.0, 0.0, [], []
        try:
            with self.span(f"regen.{label}_pass"):
                for name, thunk in self.items(engine):
                    c0 = time.process_time()
                    refs.append(common.time_ref("python"))
                    cpu_refs.append(time.process_time() - c0)
                    self.attempted += 1
                    c0 = time.process_time()
                    t0 = time.perf_counter()
                    try:
                        with self.span(name):
                            results[name] = thunk()
                    except Exception as exc:  # noqa: BLE001 - counted
                        self.failed += 1
                        print(f"FAILED: {label} {name}: {exc!r}",
                              file=sys.stderr)
                    raw += time.perf_counter() - t0
                    cpu += time.process_time() - c0
            refs.append(common.time_ref("python"))
        finally:
            self.configure(None)
        # One reference sample between items; their mean over the pass
        # tracks the share of the pass the host spent slow.
        self.pass_time = (raw, sum(refs) / len(refs))
        self.pass_cpu = cpu
        self.cpu_refs.append(sum(cpu_refs) / len(cpu_refs))
        return results, engine

    def round(self, cold: common.Slices, warm: common.Slices) -> None:
        cache_dir = common.temp_dir()
        try:
            cold_results, cold_engine = self.one_pass(cache_dir, "cold")
            self.cold_cpu.append(self.pass_cpu)
            cold.add(1, *self.pass_time)
            for _ in range(WARM_PASSES):
                warm_results, warm_engine = self.one_pass(cache_dir, "warm")
                warm.add(1, *self.pass_time)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.counts = {
            "engine.jobs_executed": cold_engine.metrics.computed,
            "engine.cache_hits": warm_engine.metrics.cache_hits,
        }
        self.check(cold_results, warm_results)

    # ------------------------------------------------------------------ #
    # correctness: the paper's surviving anchors and relations
    # ------------------------------------------------------------------ #
    def check(self, cold: dict, warm: dict) -> None:
        from repro.fabric import timing

        bad = self.problems
        mhz = timing.achievable_mhz
        f_add4 = mhz(timing.adder_delay(54) / 4)
        if not 199.5 <= f_add4 <= 215.0:
            bad.append(f"54-bit adder at 4 stages: {f_add4:.1f} MHz, not 200")
        f_mul7 = mhz(timing.multiplier_delay(54) / 7)
        f_mul6 = mhz(timing.multiplier_delay(54) / 6)
        if not 190.0 <= f_mul7 <= 215.0 or f_mul6 >= 200.0:
            bad.append(f"54-bit multiplier: 7 stages {f_mul7:.1f} MHz, "
                       f"6 stages {f_mul6:.1f} MHz")
        front = cold.get("explore.unit_frontier")
        if front is None:
            bad.append("no unit frontier")
            return
        curves: dict = {}
        for r in front.records:
            curves.setdefault((r.kind, r.format), []).append(r)
        for key in curves:
            curves[key].sort(key=lambda r: r.stages)
        peak = {k: max(r.clock_mhz for r in v) for k, v in curves.items()}
        if not peak[("adder", "fp32")] > 240.0:
            bad.append(f"32-bit adder peaks at {peak[('adder', 'fp32')]} MHz")
        if not peak[("adder", "fp64")] > 200.0:
            bad.append(f"64-bit adder peaks at {peak[('adder', 'fp64')]} MHz")
        for kind in ("adder", "multiplier"):
            for fmt in ("fp32", "fp48", "fp64"):
                curve = [r.mhz_per_slice for r in curves[(kind, fmt)]]
                best = curve.index(max(curve))
                if not 0 < best < len(curve) - 1:
                    bad.append(f"{kind}/{fmt} MHz/slice peaks at an end")
        # the recommendation: feasible, and the best feasible design
        rec = cold.get("explore.recommend")
        points = [dict(dataclasses.asdict(r), id=r.id) for r in front.records]
        best_value, best_ids = common.best_feasible(points, common.QUERIES[0])
        if rec is None or rec["best"]["id"] not in best_ids:
            bad.append(f"recommend chose {rec and rec['best']['id']}, best "
                       f"feasible {sorted(best_ids)} at {best_value}")
        # batched matmul against NumPy float32 accumulation
        for n in MATMUL_SIZES:
            for label, res in (("cold", cold), ("warm", warm)):
                run = res.get(f"kernels.matmul.n{n}")
                expected = self.matmul[n][2]
                if run is None or run.issued_macs != n ** 3 or not np.array_equal(
                    np.array(run.c, dtype=np.uint64), expected.astype(np.uint64)
                ):
                    bad.append(f"{label} matmul n={n} differs from float32")
        # the warm pass reproduces the cold pass from the disk cache
        for name in self.REGISTRY:
            key = f"experiments.{name}"
            if key in cold and str(cold[key]) != str(warm.get(key)):
                bad.append(f"warm {name} differs from cold")


def measure(seed: int, seconds: float) -> dict:
    """Untraced run: whole rounds until ``seconds`` have passed.

    The cold and warm pass medians are scaled by the whole run's mean
    reference.  A warm pass holds too few samples of its own (per-pass
    scaling doubled its run-to-run spread), and a cold pass's 24 samples
    spread more than the passes themselves (scaled one by one, cold
    passes spread 10-13% within a run against 6-7% raw).
    """
    setup_raw = common.measure_setup("paper-regen")
    regen = Regen(seed)
    cold, warm = common.Slices("python"), common.Slices("python")
    t_end = time.perf_counter() + seconds
    rounds = 0
    while not rounds or time.perf_counter() < t_end:
        regen.round(cold, warm)
        rounds += 1
    refs = cold.refs + warm.refs
    scale = common.REF_S["python"] * len(refs) / sum(refs)
    cold_raw = statistics.median(cold.seconds)
    warm_raw = statistics.median(warm.seconds)
    # CPU time is scaled by the references' CPU time: time the process
    # waits for a vCPU slows the wall-clock reference but not CPU figures.
    cpu = statistics.median(regen.cold_cpu) * common.REF_S["python"] * len(
        regen.cpu_refs) / sum(regen.cpu_refs)
    print(f"paper-regen: {rounds} rounds, host speed {scale:.3f}x reference")
    print(f"raw: cold pass {cold_raw:.4f} s, warm pass "
          f"{warm_raw * 1e3:.2f} ms, set-up {setup_raw:.4f} s")
    return {
        "correct": not regen.problems,
        "mismatches": regen.problems,
        "attempted": regen.attempted,
        "failed": regen.failed,
        "setup_s": setup_raw * scale,
        "peak_rss_mb": common.peak_rss_mb(),
        "work_per_s": 1 / (cold_raw * scale),
        "p50_ms": warm_raw * scale * 1e3,
        "cpu_ms_per_op": cpu * 1e3,
    }


def layers(seed: int, spans: common.Spans) -> dict:
    """Traced round plus direct calls into units, fabric and power."""
    from repro.engine import Engine
    from repro.fabric.synthesis import sweep_stages
    from repro.fp.format import PAPER_FORMATS
    from repro.power.xpower import estimate_power
    from repro.units.explorer import UnitKind, explore

    regen = Regen(seed, spans)
    cold, warm = common.Slices("python"), common.Slices("python")
    with spans.span("paper-regen.round"):
        regen.round(cold, warm)
    scale = cold.scale(0)

    def total_ms(name, pass_name):
        """Summed duration of ``name`` spans under the last ``pass_name``."""
        passes = [i for i, s in enumerate(spans.spans) if s[0] == pass_name]
        first = passes[-1]
        t0, t1 = spans.spans[first][1], spans.spans[first][2]
        return sum(
            s[2] - s[1] for s in spans.spans
            if s[0] == name and t0 <= s[1] and s[2] <= t1
        ) * 1e3 * scale

    out = {}
    for name in regen.REGISTRY:
        out[f"experiments.ms.{name}"] = total_ms(
            f"experiments.{name}", "regen.cold_pass")
    out["explore.unit_frontier_ms"] = total_ms(
        "explore.unit_frontier", "regen.cold_pass")
    out["explore.kernel_frontier_ms"] = total_ms(
        "explore.kernel_frontier", "regen.cold_pass")
    out["explore.recommend_cold_ms"] = total_ms(
        "explore.recommend", "regen.cold_pass")
    for n in MATMUL_SIZES:
        out[f"kernels.matmul_ms.n{n}"] = total_ms(
            f"kernels.matmul.n{n}", "regen.cold_pass")
    put = total_ms("engine.cache_put", "regen.cold_pass")
    get_cold = total_ms("engine.cache_get", "regen.cold_pass")
    engine_items = sum(
        total_ms(s, "regen.cold_pass")
        for s in {f"experiments.{n}" for n in regen.REGISTRY}
        | {"explore.unit_frontier", "explore.kernel_frontier",
           "explore.recommend"})
    out["engine.execute_ms"] = engine_items - put - get_cold
    out["engine.cache_put_ms"] = put
    out["engine.cache_get_ms"] = total_ms("engine.cache_get", "regen.warm_pass")
    out.update(regen.counts)

    # direct calls into the characterisation layers, paper formats
    ref = common.time_ref("python")
    scale = common.REF_S["python"] / ref
    engine = Engine()
    timings = {"units.explore_ms": 0.0, "fabric.sweep_stages_ms": 0.0,
               "power.estimate_power_ms": 0.0}
    for kind in (UnitKind.ADDER, UnitKind.MULTIPLIER):
        for fmt in PAPER_FORMATS:
            with spans.span("units.explore"):
                t0 = time.perf_counter()
                space = explore(fmt, kind, engine=engine)
                timings["units.explore_ms"] += time.perf_counter() - t0
            with spans.span("fabric.sweep_stages"):
                t0 = time.perf_counter()
                sweep_stages(kind.datapath(fmt))
                timings["fabric.sweep_stages_ms"] += time.perf_counter() - t0
            with spans.span("power.estimate_power"):
                t0 = time.perf_counter()
                for report in space.reports:
                    estimate_power(report, report.clock_mhz)
                timings["power.estimate_power_ms"] += time.perf_counter() - t0
    out.update({k: v * 1e3 * scale for k, v in timings.items()})
    return {"metrics": out, "attempted": regen.attempted,
            "failed": regen.failed, "mismatches": regen.problems}

