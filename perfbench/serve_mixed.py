"""The ``serve-mixed`` workload.

Set-up builds the in-process reference :class:`QueryEngine` (which
fills a fresh shard store), draws the seeded request pool and computes
every expected answer, then launches ``repro serve`` against the warm
store ``SETUP_LAUNCHES`` times, timing launch to ready file
(``setup_s``).  Every server takes fixed-count rounds of load from
``loadgen.py``; the last one then runs the paced ladder, its
``/metrics`` document and VmHWM are read, and like the others it is
stopped with SIGTERM.  ``run_s`` is the median over all rounds of
the saturated pass's wall time and ``cpu_s`` that of the server's CPU
time over the whole round; the ladder feeds only per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import random
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    child_env,
    kill_group,
    log,
    median,
    percentile,
    reap,
    repro_argv,
    settle,
    status_kb,
)

JOBS = 2
SETUP_LAUNCHES = 3
READY_TIMEOUT = 150.0
#: Measured rounds on each launched server.  Each sends a fixed count
#: of requests of the mix closed loop, then a fixed count of HTTP
#: requests saturated, so every round is the same work.  Spreading the
#: rounds over all launches keeps a slow spell of the shared host from
#: reaching most of them.
ROUNDS_PER_SERVER = 3
CLOSED_REQUESTS = 500
SATURATED_REQUESTS = 6000
#: Requests in flight on the HTTP connection in the saturated pass.
#: Deep enough that the server always has the next request queued: at
#: 32 it often waited on the generator, and the pass's wall time
#: followed the virtual machine's wake-up latency instead of the
#: server's work.
WINDOW = 512
#: Open-loop ladder of request rates (req/s) and the share of the
#: measured seconds each one gets.
LADDER = ((1000, 0.15), (2000, 0.35), (4000, 0.2), (6000, 0.3))
REFERENCE_RATE = 2000
#: Unreported first step: connections, lazy imports and first-touch
#: page faults settle before anything is timed.
WARMUP = (1000, 0.5)
#: A ladder step meets the limit when its p99 is within this.
LATENCY_LIMIT_MS = 10.0
#: A step whose sends left later than this at p99 is invalid: the
#: generator, not the server, fell behind.
LATE_LIMIT_MS = 1.0
GAP_SECONDS = 0.05
REQUEST_TIMEOUT = 5.0
#: The mix is for coverage, not a measured traffic profile: every route
#: gets the same number of requests in the pool, every keyed route as
#: many misses as hits (404 for /ip, "no entries" for whois, empty 200
#: answers elsewhere), and whois as many ``-L`` queries as plain ones.
ROUTES = ("ip", "whois", "delegations", "as", "transfers", "market")
MISS_SHARE = 0.5
WHOIS_L_SHARE = 0.5
POOL_SIZE = 4200
#: As many users as the server's limiter table holds by default
#: (``repro serve --max-clients``).
CLIENTS = 4096
#: Far above the ladder's top rate: a 429 or a whois throttle line is
#: a failure, not policy.
RATE_LIMIT = "1000000"
BURST = "1000000"

LOADGEN = pathlib.Path(__file__).with_name("loadgen.py")


# -- the reference engine and the request pool ------------------------


class Reference:
    """The in-process engine and the expected answer to every request."""

    def __init__(self, scale: str, seed: int, store: pathlib.Path,
                 trace: bool):
        from repro.obs.metrics import MetricsRegistry
        from repro.serve import QueryEngine
        from repro.simulation import (
            World,
            internet_scenario,
            paper_scenario,
            small_scenario,
        )

        scenarios = {"small": small_scenario, "paper": paper_scenario,
                     "internet": internet_scenario}
        self.spans: Dict[str, float] = {}
        with self._span("simulation.world"):
            self.world = World(scenarios[scale](seed=seed))
        if trace:
            # World components are built lazily and cached, so timing
            # them here leaves from_world() only the serving layers.
            for name in ("whois", "transfer_ledger",
                         "priced_transactions"):
                with self._span(f"simulation.{name}"):
                    getattr(self.world, name)()
        with self._span("serve.reference"):
            self.engine = QueryEngine.from_world(
                self.world, jobs=JOBS, store_dir=str(store),
                metrics=MetricsRegistry(),
            )

    @contextlib.contextmanager
    def _span(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name] = time.perf_counter() - started

    def answer(self, kind: str, key: str) -> Tuple[int, bytes]:
        """What the server must send for one request: status and body
        bytes (whois: the whole stream up to the close)."""
        from repro.errors import RdapNotFoundError
        from repro.serve.engine import parse_prefix_text
        from repro.serve.protocol import rdap_error_body, render_json

        engine = self.engine
        if kind == "whois":
            return 0, (engine.whois_query(key) + "\n").encode("utf-8")
        if kind == "ip":
            try:
                return 200, render_json(
                    engine.rdap_ip(parse_prefix_text(key)))
            except RdapNotFoundError as exc:
                return 404, render_json(rdap_error_body(
                    404, "not found", f"no object for {exc}"))
        if kind == "delegations":
            return 200, render_json(
                engine.delegations_lookup(parse_prefix_text(key)))
        if kind == "as":
            return 200, render_json(engine.as_history(int(key)))
        if kind == "transfers":
            return 200, render_json(
                engine.transfers_lookup(parse_prefix_text(key)))
        return 200, render_json(engine.market_summary())


def _address(value: int) -> str:
    return ".".join(str((value >> s) & 255) for s in (24, 16, 8, 0))


def draw_pool(ref: Reference, seed: int) -> List[dict]:
    """The seeded request pool with expected answers.

    Hits are drawn from the loaded data (inetnum ranges, delegated
    prefixes and their ASNs, transferred prefixes); misses from
    addresses and ASNs the data does not hold.
    """
    from repro.errors import RdapNotFoundError
    from repro.netbase.prefix import IPv4Prefix

    rng = random.Random(seed)
    engine = ref.engine
    inetnums = sorted(engine.rdap.database.inetnums(),
                      key=lambda o: (o.first, o.last))
    inside = [_address(rng.randint(o.first, o.last))
              for o in rng.sample(inetnums, min(len(inetnums), 3000))]
    outside: List[str] = []
    while len(outside) < 300:
        candidate = _address(rng.randrange(1 << 32) & ~0xFF)
        try:
            engine.rdap_ip(IPv4Prefix.parse(candidate + "/24"))
        except RdapNotFoundError:
            outside.append(candidate)
    delegated: List[str] = []
    asns = set()
    for address in inside:
        found = engine.delegations_lookup(IPv4Prefix.parse(address + "/32"))
        if found["covering"]:
            delegated.append(address)
            for entry in found["covering"]:
                for pair in entry["delegations"]:
                    asns.update((pair["delegatorAsn"], pair["delegateeAsn"]))
    transferred = sorted({
        str(prefix) for record in ref.world.transfer_ledger().records()
        for prefix in record.prefixes
    })
    hits = {
        "ip": inside,
        "whois": inside,
        "delegations": delegated or inside,
        "as": [str(a) for a in sorted(asns)] or ["64512"],
        "transfers": transferred or inside,
    }
    misses = {
        "ip": outside,
        "whois": outside,
        "delegations": outside,
        "as": [str(4200000000 + n) for n in range(100)],
        "transfers": outside,
    }
    pool = []
    for kind in ROUTES:
        for _ in range(POOL_SIZE // len(ROUTES)):
            if kind == "market":
                key = ""
            elif rng.random() < MISS_SHARE:
                key = rng.choice(misses[kind])
            else:
                key = rng.choice(hits[kind])
            if kind == "whois" and rng.random() < WHOIS_L_SHARE:
                key = f"-L {key}"
            status, body = ref.answer(kind, key)
            pool.append({
                "kind": "whois" if kind == "whois" else "http",
                "route": kind,
                "key": key,
                "wire": key if kind == "whois" else _path(kind, key),
                "status": status,
                "sha256": hashlib.sha256(body).hexdigest(),
            })
    rng.shuffle(pool)
    return pool


def _path(kind: str, key: str) -> str:
    if kind == "as":
        return f"/as/{key}/delegations"
    if kind == "market":
        return "/market/summary"
    return f"/{kind}/{key}"


def engine_timings(ref: Reference, pool: List[dict]) -> Dict[str, float]:
    """Median in-process engine time per method over the pool (µs)."""
    from repro.errors import RdapNotFoundError
    from repro.serve.engine import parse_prefix_text

    engine = ref.engine
    calls = {
        "whois": ("whois_query", lambda k: engine.whois_query(k)),
        "ip": ("rdap_ip",
               lambda k: engine.rdap_ip(parse_prefix_text(k))),
        "delegations": ("delegations_lookup",
                        lambda k: engine.delegations_lookup(
                            parse_prefix_text(k))),
        "as": ("as_history", lambda k: engine.as_history(int(k))),
        "transfers": ("transfers_lookup",
                      lambda k: engine.transfers_lookup(
                          parse_prefix_text(k))),
        "market": ("market_summary", lambda k: engine.market_summary()),
    }
    samples: Dict[str, List[float]] = {name: [] for name, _ in calls.values()}
    for entry in pool:
        name, call = calls[entry["route"]]
        started = time.perf_counter()
        try:
            call(entry["key"])
        except RdapNotFoundError:
            pass
        samples[name].append((time.perf_counter() - started) * 1e6)
    return {name: median(values) for name, values in samples.items()}


# -- the server --------------------------------------------------------


class Server:
    """One ``repro serve`` process on ephemeral ports."""

    def __init__(self, argv: List[str], env: Dict[str, str],
                 ready: pathlib.Path, log_path: pathlib.Path):
        self.ready = ready
        self.started = time.perf_counter()
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(argv, env=env, stdout=self.log,
                                     stderr=subprocess.STDOUT,
                                     start_new_session=True)
        self.ports: Optional[Tuple[str, int, int]] = None

    def wait_ready(self) -> Optional[float]:
        """Seconds from launch to the ready file; ``None`` if the
        server exited or never became ready."""
        deadline = self.started + READY_TIMEOUT
        while time.perf_counter() < deadline:
            if self.ready.exists():
                elapsed = time.perf_counter() - self.started
                host, whois, http = self.ready.read_text().split()
                self.ports = (host, int(whois), int(http))
                return elapsed
            if self.proc.poll() is not None:
                return None
            time.sleep(0.005)
        return None

    def hwm_kb(self) -> int:
        return status_kb(self.proc.pid, "VmHWM")

    def stop(self) -> None:
        """SIGTERM and wait for the drain."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            kill_group(self.proc)
            self.proc.wait()
        reap(self.proc.pid)
        self.log.close()


def fetch_metrics(host: str, port: int) -> Optional[dict]:
    """The server's ``/metrics`` JSON document (one plain request)."""
    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n"
                         b"Connection: close\r\n\r\n")
            data = bytearray()
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                data += chunk
        _head, _, body = bytes(data).partition(b"\r\n\r\n")
        return json.loads(body)
    except (OSError, ValueError):
        return None


def histogram_quantile(histogram: Optional[dict], q: float) -> float:
    """Quantile of a registry histogram in ms, interpolated
    geometrically inside the factor-2 bucket that holds it."""
    if not histogram or not histogram.get("count"):
        return 0.0
    rank = max(1.0, q * histogram["count"])
    cumulative = 0
    for index in sorted(int(i) for i in histogram["buckets"]):
        count = histogram["buckets"][str(index)]
        if cumulative + count >= rank:
            upper = 1e-6 * 2.0 ** min(index, 39)
            share = (rank - cumulative) / count
            return upper * 2.0 ** (share - 1.0) * 1000.0
        cumulative += count
    return 0.0


def timer_total(timers: dict, name: str) -> float:
    """Total seconds of timer ``name`` wherever it nests: the server
    records spans opened inside ``serve.load`` as
    ``serve.load.<name>``."""
    return sum(stats.get("total_seconds", 0.0)
               for key, stats in timers.items()
               if key == name or key.endswith("." + name))


def _merged(histograms: List[Optional[dict]]) -> Optional[dict]:
    merged: dict = {"count": 0, "buckets": {}}
    for histogram in histograms:
        if not histogram:
            continue
        merged["count"] += histogram["count"]
        for index, count in histogram["buckets"].items():
            merged["buckets"][index] = merged["buckets"].get(index, 0) + count
    return merged


# -- the workload --------------------------------------------------------


class ServeRun:
    def __init__(self, scale: str, seed: int, seconds: float,
                 workdir: pathlib.Path):
        self.scale = scale
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.env = child_env(workdir)
        self.store = workdir / "store"
        self.store.mkdir()

    def _launch(self, n: int) -> Server:
        ready = self.workdir / f"ready{n}"
        argv = repro_argv(
            self.scale, self.seed, "serve", "--jobs", str(JOBS),
            "--store", str(self.store), "--whois-port", "0",
            "--http-port", "0", "--ready-file", str(ready),
            "--rate-limit", RATE_LIMIT, "--burst", BURST,
        )
        return Server(argv, self.env, ready, self.workdir / f"server{n}.log")

    def _load(self, server: Server, pool: List[dict],
              ladder: bool) -> Optional[dict]:
        host, whois_port, http_port = server.ports
        steps = ([[rate, share * self.seconds] for rate, share in LADDER]
                 if ladder else [])
        plan = {
            "host": host, "http_port": http_port, "whois_port": whois_port,
            "server_pid": server.proc.pid,
            "seed": self.seed, "clients": CLIENTS,
            "warmup": list(WARMUP),
            "rounds": ROUNDS_PER_SERVER,
            "closed_requests": CLOSED_REQUESTS,
            "saturated_requests": SATURATED_REQUESTS,
            "window": WINDOW,
            "steps": steps,
            "gap_seconds": GAP_SECONDS,
            "timeout_seconds": REQUEST_TIMEOUT,
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "late_limit_ms": LATE_LIMIT_MS,
            "requests": pool,
        }
        plan_path = self.workdir / "plan.json"
        result_path = self.workdir / "loadgen.json"
        plan_path.write_text(json.dumps(plan))
        budget = (self.seconds
                  + (ROUNDS_PER_SERVER + len(steps)) * (REQUEST_TIMEOUT + 2)
                  + 30)
        proc = subprocess.Popen([sys.executable, str(LOADGEN),
                                 str(plan_path), str(result_path)],
                                env=self.env, start_new_session=True)
        try:
            proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            kill_group(proc)
            proc.wait()
        reap(proc.pid)
        if proc.returncode != 0 or not result_path.exists():
            return None
        return json.loads(result_path.read_text())

    def run(self, trace: bool) -> dict:
        log("building the reference engine (fills the store)")
        ref = Reference(self.scale, self.seed, self.store, trace)
        pool = draw_pool(ref, self.seed)
        engine_us = engine_timings(ref, pool) if trace else {}
        settle()
        setups: List[float] = []
        loads: List[Optional[dict]] = []
        document: Optional[dict] = None
        hwm_kb = 0
        for n in range(SETUP_LAUNCHES):
            server = self._launch(n)
            try:
                elapsed = server.wait_ready()
                if elapsed is None:
                    log(f"server launch {n} never became ready; see "
                        f"{server.log.name}")
                    return {"attempted": 1, "failed": 1, "correct": False,
                            "metrics": {}}
                setups.append(elapsed)
                log(f"server launch {n}: ready after {elapsed:.2f}s")
                last = n == SETUP_LAUNCHES - 1
                loads.append(self._load(server, pool, ladder=last))
                if last:
                    host, _whois, http_port = server.ports
                    document = fetch_metrics(host, http_port)
                    hwm_kb = server.hwm_kb()
            finally:
                server.stop()
        outcome = None if None in loads else loads[-1]
        rounds = [r for load in loads if load for r in load["rounds"]]
        steps = outcome["steps"] if outcome else []
        closed = [r["closed"] for r in rounds]
        phases = ([load["warmup"] for load in loads] + closed
                  + [r["saturated"] for r in rounds] + steps
                  if outcome else [])
        attempted = sum(s["attempted"] for s in phases) or 1
        failed = sum(s["failed"] for s in phases) if phases else 1
        for n, entry in enumerate(rounds):
            log(f"round {n + 1}: {entry['wall_s']:.3f}s wall, server "
                f"{entry['server_cpu_s']:.3f}s CPU; closed "
                f"{entry['closed']['achieved_rps']:.0f} req/s, saturated "
                f"{entry['saturated']['achieved_rps']:.0f} req/s")
        for step in phases:
            if step["failed"]:
                log(f"failed {step['failed']}: {step['failures'][:2]}")
        for step in steps:
            log(f"{step['rate']:>5} req/s, {step['samples']} answered: "
                f"p50 {step['p50_ms']:.3f} ms, "
                f"p99 {step['p99_ms']:.3f} ms, late p99 "
                f"{step['late_p99_ms']:.3f} ms, backlog max "
                f"{step['backlog_max']}")
        correct = bool(phases) and failed == 0 and document is not None
        if trace:
            metrics = self._layer_metrics(ref, closed, steps, document,
                                          engine_us)
            round_requests = CLOSED_REQUESTS + SATURATED_REQUESTS
            metrics["serve.cpu_us_per_request"] = (
                median([r["server_cpu_s"] for r in rounds])
                / round_requests * 1e6, "us")
        else:
            metrics = {
                "setup_s": (median(setups), "s"),
                "run_s": (median([r["wall_s"] for r in rounds]), "s"),
                "cpu_s": (median([r["server_cpu_s"] for r in rounds]), "s"),
                "peak_rss_mb": (hwm_kb / 1024.0, "MB"),
            }
        return {"attempted": attempted, "failed": failed,
                "correct": correct, "metrics": metrics}

    def _layer_metrics(self, ref: Reference, closed: List[dict],
                       steps: List[dict], document: Optional[dict],
                       engine_us: Dict[str, float]) -> Dict[str, tuple]:
        doc = document or {"counters": {}, "timers": {}, "histograms": {}}
        timers = doc.get("timers", {})
        histograms = doc.get("histograms", {})
        counters = doc.get("counters", {})
        metrics: Dict[str, tuple] = {}
        for name in ("whois", "transfer_ledger", "priced_transactions"):
            metrics[f"simulation.{name}_s"] = (
                ref.spans.get(f"simulation.{name}", 0.0), "s")
        metrics["simulation.world_s"] = (ref.spans["simulation.world"], "s")
        # The served server's own warm inference load, from /metrics.
        metrics["delegation.run_inference_s"] = (
            timer_total(timers, "serve.load.infer"), "s")
        for name in ("fan_in", "consistency", "cache_probe"):
            metrics[f"delegation.{name}_s"] = (
                timer_total(timers, f"runner.{name}"), "s")
        metrics["delegation.pairs_seen"] = (
            counters.get("pipeline.pairs_seen", 0), "count")
        metrics["delegation.delegations"] = (
            counters.get("pipeline.delegations", 0), "count")
        metrics["store.result_hits"] = (
            counters.get("store.result_hits", 0), "count")
        for part in ("whois", "infer", "transfers", "market"):
            metrics[f"serve.load.{part}_s"] = (
                timer_total(timers, f"serve.load.{part}"), "s")
        for route in ("ip", "delegations", "as", "transfers", "market"):
            histogram = histograms.get(f"serve.http.route.{route}")
            metrics[f"serve.route.{route}.p50_ms"] = (
                histogram_quantile(histogram, 0.50), "ms")
            metrics[f"serve.route.{route}.p99_ms"] = (
                histogram_quantile(histogram, 0.99), "ms")
        whois = histograms.get("serve.whois.request")
        metrics["serve.whois.p50_ms"] = (histogram_quantile(whois, 0.5), "ms")
        metrics["serve.whois.p99_ms"] = (histogram_quantile(whois, 0.99),
                                         "ms")
        for name, value in engine_us.items():
            metrics[f"serve.engine.{name}_us"] = (value, "us")
        client = [x for s in closed for x in s["latencies_ms"]]
        for q in (50, 99):
            metrics[f"serve.closed.p{q}_ms"] = (percentile(client, q), "ms")
        server_p50 = histogram_quantile(_merged([
            histograms.get("serve.http.request"), whois]), 0.5)
        metrics["serve.residual_p50_ms"] = (
            percentile(client, 50) - server_p50 if client else 0.0, "ms")
        metrics["serve.throttled"] = (
            counters.get("serve.http.throttled", 0)
            + counters.get("serve.whois.throttled", 0), "count")
        metrics["serve.status_5xx"] = (
            counters.get("serve.http.status_class.5xx", 0), "count")
        reference = next((s for s in steps if s["rate"] == REFERENCE_RATE),
                         None)
        for q in ("p50", "p99"):
            metrics[f"serve.{q}_ms"] = (
                reference[f"{q}_ms"] if reference else 0.0, "ms")
        passing = [s for s in steps if s["valid"] and s["sustained"]]
        metrics["serve.max_rps"] = (
            max(s["achieved_rps"] for s in passing) if passing else 0.0,
            "1/s")
        for step in steps:
            tag = f"r{step['rate']}"
            metrics[f"serve.{tag}.p99_ms"] = (step["p99_ms"], "ms")
            metrics[f"loadgen.{tag}.late_p99_ms"] = (step["late_p99_ms"],
                                                     "ms")
            metrics[f"loadgen.{tag}.backlog_max"] = (step["backlog_max"],
                                                     "count")
        return metrics
