"""Workload ``serve-ops``: a ``repro serve --port 0`` child process with
default knobs, driven by this file's own closed-loop client over two
keep-alive connections with no think time.

One round is 400 requests, the same in every round: the six
``/v1/op`` ops on fp16/fp32/fp64 under rne and rtz (36 lanes, seeded
order and operands) plus one warm ``POST /v1/recommend`` in fifty.
With two connections a batch holds one or two requests, so per-request
cost dominates: HTTP/JSON, admission, tracing, the vectorized
datapath's per-call overhead and the scalar spot check.  The round is
sent in slices, each followed by a few requests to the reference server
(:mod:`perfbench.echo`), whose time per request scales the round's wall
clock figures to reference host speed.  Replies are
checked after the timed phase against :mod:`perfbench.oracle` and
against the best feasible design the benchmark computes itself from the
server's ``/v1/explore`` catalog.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from urllib.parse import quote

import numpy as np

from perfbench import common, oracle

ROUND = 400
RECOMMEND_EVERY = 50
CONNECTIONS = 2
#: Requests per slice of a round, and reference requests after each.
SLICE = 40
ECHO = 20
STAGES = {
    "admission.wait": "serve.stage.admission_us",
    "batch.linger": "serve.stage.linger_us",
    "batch.dispatch": "serve.stage.dispatch_us",
    "scatter": "serve.stage.scatter_us",
}
_LISTEN = re.compile(r"listening on http://([\d.]+):(\d+)")


# ---------------------------------------------------------------------- #
# the request mix
# ---------------------------------------------------------------------- #
def request_mix(seed: int) -> list:
    """The round: ("op", op, fmt, mode, words) or ("recommend", query)."""
    rng = np.random.default_rng([seed, 7])
    lanes = [(op, fmt, mode) for op in common.OPS
             for fmt in common.SERVE_FORMATS for mode in common.MODES]
    slots = ROUND - ROUND // RECOMMEND_EVERY
    order = [lanes[i % len(lanes)] for i in range(slots)]
    order = [order[i] for i in rng.permutation(slots)]
    per_lane: dict = {}
    for lane in order:
        per_lane[lane] = per_lane.get(lane, 0) + 1
    words = {
        lane: [x.tolist() for x in oracle.operands(
            lane[0], oracle.FORMATS[lane[1]], count, rng)]
        for lane, count in per_lane.items()
    }
    used = dict.fromkeys(per_lane, 0)
    mix, q = [], 0
    for i in range(ROUND):
        if i % RECOMMEND_EVERY == RECOMMEND_EVERY - 1:
            mix.append(("recommend", common.QUERIES[q % len(common.QUERIES)]))
            q += 1
            continue
        lane = order[i - i // RECOMMEND_EVERY]
        k = used[lane]
        used[lane] += 1
        mix.append(("op", *lane, tuple(w[k] for w in words[lane])))
    return mix


def request_bytes(item) -> bytes:
    if item[0] == "recommend":
        path, doc = "/v1/recommend", item[1]
    else:
        _, op, fmt, mode, words = item
        path = f"/v1/op/{op}"
        doc = {"format": fmt, "mode": mode}
        doc.update({k: hex(w) for k, w in zip("abc", words)})
    body = json.dumps(doc, separators=(",", ":")).encode()
    return (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


# ---------------------------------------------------------------------- #
# the server child
# ---------------------------------------------------------------------- #
class Server:
    """``repro serve --port 0`` in a child process, or with
    ``module="perfbench.echo"`` the reference server."""

    def __init__(self, module: str = "repro.cli") -> None:
        self.stderr_path = os.path.join(common.temp_dir(), "serve.err")
        self._stderr = open(self.stderr_path, "wb")
        args = ["serve", "--port", "0"] if module == "repro.cli" else []
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", module, *args],
            stdout=subprocess.PIPE, stderr=self._stderr, env=common.child_env(),
            cwd=common.ROOT,
        )
        try:
            line = self._read_line(60.0)
            match = _LISTEN.search(line)
            if not match:
                raise common.BenchError(f"unexpected server banner {line!r}")
        except BaseException:
            self.kill()
            raise
        self.startup_s = time.perf_counter() - t0
        self.host, self.port = match.group(1), int(match.group(2))
        self._ticks = os.sysconf("SC_CLK_TCK")

    def _read_line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise common.BenchError("server did not start in time")
        line = self.proc.stdout.readline().decode()
        if not line:
            raise common.BenchError(
                f"server exited at start: {self._stderr_text()[-2000:]}")
        return line

    def _stderr_text(self) -> str:
        if not self._stderr.closed:
            self._stderr.flush()
        with open(self.stderr_path, "rb") as fh:
            return fh.read().decode(errors="replace")

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / self._ticks

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise common.BenchError("no VmHWM in /proc status")

    def get(self, path: str) -> tuple:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stop(self) -> list:
        """SIGTERM, then check a graceful drain and exit status 0."""
        problems = []
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            return ["server did not exit within 30 s of SIGTERM"]
        finally:
            self.proc.stdout.close()
            self._stderr.close()
        if code != 0:
            problems.append(f"server exited with status {code}")
        if "draining" not in self._stderr_text():
            problems.append("server did not report draining")
        return problems

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


# ---------------------------------------------------------------------- #
# the closed-loop client
# ---------------------------------------------------------------------- #
class Client:
    """The closed loop.  A round is the mix's requests in slices of
    :data:`SLICE`; after each slice :data:`ECHO` requests go to the
    reference server over two connections of its own, so every round's
    reference is measured in the windows between its own slices."""

    def __init__(self, server: Server, echo: Server, mix: list) -> None:
        self.server = server
        self.echo = echo
        self.mix = mix
        self.requests = [request_bytes(item) for item in mix]
        self.latency: list = []   # (seconds, round index)
        self.replies: list = []   # (mix index, status, body)
        # Wall-clock reference: the reference server's seconds per
        # request, interleaved with the round's slices.
        self.rounds = common.Slices("echo")
        # CPU reference: the client's own CPU seconds per request in the
        # round's slices (benchmark code only).
        self.cpu_rounds = common.Slices("client")
        self.server_cpu: list = []
        self.client_cpu: list = []

    async def _worker(self, reader, writer, indices, round_no) -> None:
        requests, latency, replies = self.requests, self.latency, self.replies
        for i in indices:
            t0 = time.perf_counter()
            writer.write(requests[i])
            head = await reader.readuntil(b"\r\n\r\n")
            start = head.index(b"Content-Length:") + 15
            length = int(head[start:head.index(b"\r\n", start)])
            body = await reader.readexactly(length)
            if round_no is None:
                if head[9:12] != b"200":
                    raise common.BenchError("reference server failed")
                continue
            latency.append((time.perf_counter() - t0, round_no))
            replies.append((i, int(head[9:12]), body))

    async def _run(self, seconds: float, spans) -> None:
        conns, echo_conns = [], []
        try:
            for _ in range(CONNECTIONS):
                conns.append(await asyncio.open_connection(
                    self.server.host, self.server.port))
                echo_conns.append(await asyncio.open_connection(
                    self.echo.host, self.echo.port))
            t_end = time.perf_counter() + seconds
            round_no = 0
            n = len(self.requests)
            while not round_no or time.perf_counter() < t_end:
                cpu0 = self.server.cpu_s()
                busy = echo_s = client_cpu = 0.0
                t_round = time.perf_counter()
                for first in range(0, n, SLICE):
                    indices = iter(range(first, min(first + SLICE, n)))
                    c0 = time.process_time()
                    t0 = time.perf_counter()
                    await asyncio.gather(*(
                        self._worker(r, w, indices, round_no)
                        for r, w in conns))
                    t1 = time.perf_counter()
                    client_cpu += time.process_time() - c0
                    busy += t1 - t0
                    indices = iter(range(first, first + ECHO))
                    await asyncio.gather(*(
                        self._worker(r, w, indices, None)
                        for r, w in echo_conns))
                    echo_s += time.perf_counter() - t1
                self.server_cpu.append(self.server.cpu_s() - cpu0)
                self.client_cpu.append(client_cpu)
                self.rounds.add(n, busy, echo_s / (ECHO * -(-n // SLICE)))
                self.cpu_rounds.add(n, busy, client_cpu / n)
                if spans is not None:
                    spans.add("serve.round", t_round, time.perf_counter())
                round_no += 1
        finally:
            for _reader, writer in conns + echo_conns:
                writer.close()
                await writer.wait_closed()

    def run(self, seconds: float, spans=None) -> None:
        asyncio.run(self._run(seconds, spans))

    # -------------------------------------------------------------- #
    def latency_ms(self) -> list:
        return sorted(
            s * self.rounds.scale(r) * 1e3 for s, r in self.latency)

    def server_cpu_ms_per_req(self) -> float:
        return sum(c * self.cpu_rounds.scale(i)
                   for i, c in enumerate(self.server_cpu)) / (
            sum(self.cpu_rounds.work)) * 1e3


# ---------------------------------------------------------------------- #
# checks (after the timed phase)
# ---------------------------------------------------------------------- #
def check_replies(server: Server, client: Client) -> tuple:
    """(problems, failed): wrong answers, and requests not answered 200."""
    problems, failed = [], 0
    expected = {}
    for i, item in enumerate(client.mix):
        if item[0] == "op":
            _, op, fmt, mode, words = item
            expected[i] = oracle.exact_op(op, oracle.FORMATS[fmt], mode, *words)
    catalogs = {}
    for i, status, body in client.replies:
        item = client.mix[i]
        if status != 200:
            failed += 1
            continue
        doc = json.loads(body)
        if item[0] == "op":
            got = (int(doc["bits"], 16), doc["flags"])
            if got != expected[i]:
                problems.append(
                    f"{item[1]} {item[2]} {item[3]} {item[4]}: got "
                    f"{got}, oracle {expected[i]}")
            continue
        query = item[1]
        key = json.dumps(query, sort_keys=True)
        if key not in catalogs:
            path = ("/v1/explore?kinds=" + quote(",".join(query["kinds"]))
                    + "&formats=" + quote(",".join(query["formats"])))
            st, raw = server.get(path)
            lines = [json.loads(x) for x in raw.splitlines() if x.strip()]
            points = [x for x in lines if x.get("type") == "point"]
            if st != 200 or not points:
                problems.append(f"explore catalog for {key} failed ({st})")
                catalogs[key] = None
                continue
            catalogs[key] = common.best_feasible(points, query)
        if catalogs[key] is None:
            continue
        best_value, best_ids = catalogs[key]
        if doc["best"]["id"] not in best_ids:
            problems.append(
                f"recommend {key}: chose {doc['best']['id']}, best feasible "
                f"{sorted(best_ids)} at {best_value}")
    return problems, failed


# ---------------------------------------------------------------------- #
# runs
# ---------------------------------------------------------------------- #
def start_server(reps: int = 5) -> tuple:
    """Start the server ``reps`` times, keeping the last.  Returns
    (server, median raw start-up seconds, problems)."""
    raw, problems = [], []
    server = None
    for k in range(reps):
        server = Server()
        raw.append(server.startup_s)
        if k < reps - 1:
            problems += server.stop()
    return server, statistics.median(raw), problems


def warm_up(server: Server) -> None:
    """Warm each recommend query (the mix's recommends are warm)."""
    for query in common.QUERIES:
        conn = http.client.HTTPConnection(server.host, server.port, timeout=120)
        try:
            conn.request("POST", "/v1/recommend", json.dumps(query))
            resp = conn.getresponse()
            resp.read()
            if resp.status != 200:
                raise common.BenchError(f"recommend warm-up got {resp.status}")
        finally:
            conn.close()


def load(server: Server, mix: list, seconds: float, spans=None) -> tuple:
    """Drive ``server`` for ``seconds`` beside a fresh reference server.
    Returns (client, problems of the reference server's exit)."""
    echo = Server("perfbench.echo")
    try:
        client = Client(server, echo, mix)
        client.run(seconds, spans=spans)
    finally:
        problems = echo.stop()
    return client, problems


def measure(seed: int, seconds: float) -> dict:
    server, setup_raw, problems = start_server()
    try:
        warm_up(server)
        client, echo_problems = load(server, request_mix(seed), seconds)
        problems += echo_problems
        peak = server.peak_rss_mb()
        wrong, failed = check_replies(server, client)
        problems += wrong
    finally:
        problems += server.stop()
    lat = client.latency_ms()
    rate, rate_raw = client.rounds.rate()
    raw_lat = sorted(s for s, _ in client.latency)
    n = len(lat)
    print(f"serve-ops: {n} requests in {len(client.rounds.work)} rounds, "
          f"host speed {client.rounds.host_speed():.3f}x reference")
    print(f"raw: {rate_raw:.2f} req/s, p50 {raw_lat[n // 2] * 1e3:.4f} ms, "
          f"p99 {raw_lat[int(n * 0.99)] * 1e3:.4f} ms, set-up "
          f"{setup_raw:.4f} s, client CPU "
          f"{sum(client.client_cpu) / n * 1e3:.4f} ms/req")
    print(f"reference figure: p99 {lat[int(n * 0.99)]:.4f} ms "
          f"({n - int(n * 0.99)} samples above it)")
    return {
        "correct": not problems,
        "mismatches": problems,
        "attempted": n,
        "failed": failed,
        # Start-up is one process importing and compiling, CPU-bound
        # with no wake-up chain, so it takes the CPU reference's speed.
        "setup_s": setup_raw * client.cpu_rounds.host_speed(),
        "peak_rss_mb": peak,
        "work_per_s": rate,
        "p50_ms": lat[n // 2],
        "cpu_ms_per_op": client.server_cpu_ms_per_req(),
    }


def _stage_means(server: Server) -> dict:
    """Mean stage durations (µs) over the op traces the server buffered.

    All traces come from one Chrome export, a single snapshot of the
    ring: fetching them one by one would add a trace per fetch and
    evict the oldest before they were read.
    """
    status, body = server.get("/v1/debug/traces?slowest=100000&export=chrome")
    if status != 200:
        raise common.BenchError(f"/v1/debug/traces answered {status}")
    routes: dict = {}
    stages: list = []
    for event in json.loads(body)["traceEvents"]:
        if event["ph"] != "X":
            continue
        if event["cat"] == "request":
            routes[event["tid"]] = event["name"]
        elif event["name"] in STAGES:
            stages.append((event["tid"], event["name"], event["dur"]))
    sums = dict.fromkeys(STAGES, 0.0)
    counts = dict.fromkeys(STAGES, 0)
    for tid, name, dur_us in stages:
        if routes.get(tid, "").startswith("/v1/op/"):
            sums[name] += dur_us
            counts[name] += 1
    return {STAGES[k]: sums[k] / counts[k] for k in STAGES if counts[k]}


def _per_call_us(fn, reps: int) -> float:
    """Normalized mean µs of ``fn()`` over ``reps`` calls."""
    ref = common.time_ref("python")
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps * 1e6 * common.REF_S["python"] / ref


def _inproc_probes(mix: list, spans: common.Spans) -> dict:
    """Per-call costs of the service's layers, called in-process."""
    from repro.engine import Engine
    from repro.explore.recommend import recommend
    from repro.fp import adder, divider, mac, multiplier, sqrt, vectorized
    from repro.fp.format import ALL_FORMATS
    from repro.fp.rounding import RoundingMode
    from repro.obs.trace import Tracer
    from repro.service import ReproService, ServiceConfig
    from repro.service.http import build_response, read_request

    formats = {f.name: f for f in ALL_FORMATS}
    modes = {m.value: m for m in RoundingMode}
    ops = [item for item in mix if item[0] == "op"]
    out = {}

    async def dispatch(reps: int) -> float:
        service = ReproService(ServiceConfig(port=0))
        items = [(op, formats[f], modes[m], w) for _, op, f, m, w in ops]
        it = iter(items * reps)

        async def worker():
            for op, fmt, mode, words in it:
                await service.dispatch_op(op, fmt, mode, *words)

        ref = common.time_ref("python")
        t0 = time.perf_counter()
        await asyncio.gather(worker(), worker())
        dt = time.perf_counter() - t0
        await service.batcher.close()
        service.compute_pool.shutdown(wait=True)
        service.sweep_pool.shutdown(wait=True)
        return dt / (len(items) * reps) * 1e6 * common.REF_S["python"] / ref

    with spans.span("service.dispatch_op"):
        out["dispatch.inproc_us"] = asyncio.run(dispatch(2))

    raw = request_bytes(mix[0]) * 200

    async def read_all():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        ref = common.time_ref("python")
        t0 = time.perf_counter()
        while await read_request(reader) is not None:
            pass
        return (time.perf_counter() - t0) / 200 * 1e6 * common.REF_S["python"] / ref

    with spans.span("service.http.read_request"):
        out["http.read_request_us"] = asyncio.run(read_all())
    body = b'{"bits":"0x3f800000","flags":4}'
    with spans.span("service.http.build_response"):
        out["http.build_response_us"] = _per_call_us(
            lambda: build_response(200, body, "application/json",
                                   (("X-Repro-Trace-Id", "0-0-1"),)), 2000)
    tracer = Tracer()
    with spans.span("obs.trace"):
        out["obs.trace_us"] = _per_call_us(
            lambda: tracer.finish(tracer.start(route="/v1/op/mul"), 200), 2000)

    scalar = {"add": adder.fp_add, "sub": adder.fp_sub,
              "mul": multiplier.fp_mul, "div": divider.fp_div,
              "sqrt": sqrt.fp_sqrt, "fma": mac.fp_fma}
    rne = RoundingMode.NEAREST_EVEN
    for op in common.OPS:
        for fmt_name in common.SERVE_FORMATS:
            fmt = formats[fmt_name]
            words = next(w for _, o, f, _m, w in ops if o == op and f == fmt_name)
            arrays = [np.array([w], dtype=np.uint64) for w in words]
            vec = getattr(vectorized, f"vec_{op}")
            with spans.span(f"fp.vectorized.vec_{op}"):
                out[f"vec.call_us.{op}.{fmt_name}"] = _per_call_us(
                    lambda: vec(fmt, *arrays, rne, with_flags=True), 50)
            fn = scalar[op]
            with spans.span(f"fp.{op}"):
                out[f"scalar.call_us.{op}.{fmt_name}"] = _per_call_us(
                    lambda: fn(fmt, *words, rne), 500)

    engine = Engine()
    recommend(common.QUERIES[0], engine=engine)
    with spans.span("explore.recommend_warm"):
        out["explore.recommend_warm_us"] = _per_call_us(
            lambda: recommend(common.QUERIES[0], engine=engine), 200)
    return out


#: Seconds of load behind the traced run's stage means.
TRACED_LOAD_S = 6.0


def layers(seed: int, spans: common.Spans) -> dict:
    """Traced serve-ops: a short load, stage means from the server's
    traces, then in-process per-call layer costs."""
    server, _setup, problems = start_server(reps=1)
    mix = request_mix(seed)
    try:
        warm_up(server)
        with spans.span("serve-ops.load"):
            client, echo_problems = load(server, mix, TRACED_LOAD_S, spans)
        problems += echo_problems
        stages = _stage_means(server)
        wrong, failed = check_replies(server, client)
        problems += wrong
    finally:
        problems += server.stop()
    # Stage figures are means over a skewed mix (sqrt and fma batches
    # take several times longer than mul), so the unattributed remainder
    # is taken against the client's mean latency, not its median.
    scale = client.rounds.host_speed()
    out = {name: us * scale for name, us in stages.items()}
    lat = client.latency_ms()
    out["serve.unattributed_us"] = (
        sum(lat) / len(lat) * 1e3 - sum(out.values()))
    out.update(_inproc_probes(mix, spans))
    return {"metrics": out, "attempted": len(client.latency), "failed": failed,
            "mismatches": problems}
