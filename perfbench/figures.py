"""The ``figures-cold`` and ``figures-warm`` workloads.

Both drive ``repro --scale S figures OUT --jobs 2 --store STORE`` as a
child process and time it from launch to exit.  ``figures-cold`` gives
every command a fresh, empty store; ``figures-warm`` fills one store in
set-up and re-runs the command against it.  Every command's outputs
pass the gates in :func:`check_outputs`.

The traced run (``--trace 1``) additionally runs ``traced_figures.py``,
which makes the same calls into the program's layers as the CLI, with
a span around each one, and splits the wall time by layer.
"""

from __future__ import annotations

import csv
import json
import pathlib
import shutil
import sys
import time
from typing import Dict, List, Optional

from common import (
    BenchError,
    DigestLedger,
    child_env,
    log,
    median,
    repro_argv,
    run_command,
    sha256_file,
    source_digest,
)

FIGURES = ("fig1", "fig2", "fig4", "fig5", "fig6")
JOBS = 2
COMMAND_TIMEOUT = 170.0
#: Days of the Fig. 6 window, extended plus baseline, per scale.
EXPECTED_DAYS = {"paper": 1764}
#: How many empty stores ``figures-cold`` brings up to time its set-up,
#: before and again after the measured commands.
COLD_SETUP_REPEATS = 4
#: One cold set-up, as ``repro figures --store`` does it from process
#: start: import the store layer, create the directory, open it.
OPEN_EMPTY_STORE = (
    "import pathlib, sys\n"
    "from repro.store import ShardStore\n"
    "store = pathlib.Path(sys.argv[1])\n"
    "store.mkdir()\n"
    "ShardStore(store, 'perfbench')\n"
)
PINS_PATH = pathlib.Path(__file__).with_name("pins.json")
TRACER = pathlib.Path(__file__).with_name("traced_figures.py")


def pinned_digests(scale: str, seed: int) -> Optional[Dict[str, str]]:
    pins = json.loads(PINS_PATH.read_text())
    return pins.get(scale, {}).get(str(seed))


class Gate:
    """Checks every figures command of one run; counts failures."""

    def __init__(self, scale: str, seed: int):
        self.scale = scale
        self.seed = seed
        self.pinned = pinned_digests(scale, seed)
        self.ledger = DigestLedger()
        self.seen: Optional[Dict[str, str]] = None
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, label: str, returncode: int, stderr: str,
              outdir: pathlib.Path, warm: bool) -> bool:
        self.attempted += 1
        reason = check_outputs(returncode, stderr, outdir, warm,
                               EXPECTED_DAYS.get(self.scale))
        digests: Dict[str, str] = {}
        if reason is None:
            digests = {name: sha256_file(outdir / f"{name}.csv")
                       for name in FIGURES}
            reason = self._compare(digests)
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{label}: {reason}")
            log(f"FAILED {label}: {reason}")
            return False
        return True

    def _compare(self, digests: Dict[str, str]) -> Optional[str]:
        if self.pinned is not None:
            differing = [n for n in FIGURES if digests[n] != self.pinned[n]]
            if differing:
                return f"{', '.join(differing)} differ from the pinned digests"
        if self.seen is None:
            self.seen = digests
        elif digests != self.seen:
            return "CSV bytes differ between runs of this invocation"
        return self.ledger.check(
            f"{source_digest()}/{self.scale}/{self.seed}", digests)


def check_outputs(returncode: int, stderr: str, outdir: pathlib.Path,
                  warm: bool, expected_days: Optional[int]) -> Optional[str]:
    """The premise and output checks for one figures command."""
    if returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return f"exit code {returncode}: {tail[0]}"
    missing = [n for n in FIGURES + ("fig6_runner",)
               if not (outdir / f"{n}.csv").is_file()]
    if missing:
        return f"missing outputs: {', '.join(missing)}"
    total = computed = from_store = 0
    with open(outdir / "fig6_runner.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            total += int(row["days_total"])
            computed += int(row["days_computed"])
            from_store += int(row["days_from_cache"])
    if expected_days is not None and total != expected_days:
        return f"fig6_runner.csv covers {total} days, not {expected_days}"
    if warm and (from_store != total or computed != 0):
        return (f"warm run computed {computed} of {total} days "
                f"({from_store} from the store)")
    if not warm and (computed != total or from_store != 0):
        return (f"cold run served {from_store} of {total} days "
                f"from an empty store")
    return None


def figures_argv(scale: str, seed: int, outdir: pathlib.Path,
                 store: pathlib.Path) -> List[str]:
    return repro_argv(scale, seed, "figures", str(outdir),
                      "--jobs", str(JOBS), "--store", str(store))


class FiguresRun:
    """One invocation of a figures workload."""

    def __init__(self, workload: str, scale: str, seed: int,
                 seconds: float, workdir: pathlib.Path):
        self.workload = workload
        self.warm = workload == "figures-warm"
        self.scale = scale
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.env = child_env(workdir)
        self.gate = Gate(scale, seed)
        self._serial = 0

    def _fresh(self, kind: str) -> pathlib.Path:
        self._serial += 1
        return self.workdir / f"{kind}{self._serial}"

    # -- set-up -----------------------------------------------------

    def _cold_setup(self) -> List[float]:
        """An empty store is the cold start state; time bringing one up
        in a fresh interpreter, launch to exit (the store layer's
        import, ``mkdir``, then :class:`ShardStore`, whose open sweeps
        stale temporaries).  Timing the directory calls alone gave
        tens of microseconds whose median moved by a quarter between
        sets of runs of the same code."""
        times = []
        for _ in range(COLD_SETUP_REPEATS):
            store = self._fresh("probe")
            result = run_command([sys.executable, "-c", OPEN_EMPTY_STORE,
                                  str(store)], self.env, COMMAND_TIMEOUT)
            if result.returncode != 0:
                raise BenchError("cannot open an empty store: "
                                 + result.stderr.strip()[-500:])
            times.append(result.wall_s)
            shutil.rmtree(store)
        return times

    def _warm_setup(self, store: pathlib.Path) -> Optional[float]:
        """Fill ``store`` with a cold run; ``None`` when it failed."""
        outdir = self._fresh("fill")
        result = run_command(figures_argv(self.scale, self.seed, outdir,
                                          store),
                             self.env, COMMAND_TIMEOUT)
        ok = self.gate.check("set-up fill", result.returncode,
                             result.stderr, outdir, warm=False)
        return result.wall_s if ok else None

    # -- measurement ------------------------------------------------

    def _measure(self, warm_store: Optional[pathlib.Path]):
        """Repeat the command until ``seconds`` have passed (at least
        once); return per-command walls and peaks of passing runs."""
        walls: List[float] = []
        cpus: List[float] = []
        peaks: List[float] = []
        deadline = time.perf_counter() + self.seconds
        while True:
            outdir = self._fresh("out")
            store = warm_store or self._fresh("store")
            if warm_store is None:
                store.mkdir()
            result = run_command(
                figures_argv(self.scale, self.seed, outdir, store),
                self.env, COMMAND_TIMEOUT,
            )
            label = f"{self.workload} run {len(walls) + 1}"
            if self.gate.check(label, result.returncode, result.stderr,
                               outdir, warm=self.warm):
                walls.append(result.wall_s)
                cpus.append(result.cpu_s)
                peaks.append(result.peak_mb)
            log(f"{label}: {result.wall_s:.2f}s wall, {result.cpu_s:.2f}s "
                f"CPU, {result.peak_mb:.0f} MB peak")
            if warm_store is None:
                shutil.rmtree(store, ignore_errors=True)
            shutil.rmtree(outdir, ignore_errors=True)
            if time.perf_counter() >= deadline:
                return walls, cpus, peaks

    def run(self, trace: bool) -> dict:
        warm_store = None
        if self.warm:
            warm_store = self.workdir / "warm-store"
            warm_store.mkdir()
            setup_s = self._warm_setup(warm_store)
        else:
            probes = self._cold_setup()
            setup_s = 0.0
        walls, cpus, peaks = (self._measure(warm_store)
                              if setup_s is not None else ([], [], []))
        if not self.warm:
            # Timing half the set-ups after the commands makes the
            # median describe the host over the whole run, not one
            # instant of it.
            setup_s = median(probes + self._cold_setup())
        metrics: Dict[str, tuple] = {}
        if trace:
            if walls:
                metrics = self._traced(warm_store, median(walls))
        elif walls:
            metrics = {
                "setup_s": (setup_s, "s"),
                "run_s": (median(walls), "s"),
                "cpu_s": (median(cpus), "s"),
                "peak_rss_mb": (median(peaks), "MB"),
            }
        return {
            "attempted": self.gate.attempted,
            "failed": self.gate.failed,
            "correct": self.gate.failed == 0 and bool(walls),
            "metrics": metrics,
        }

    # -- the traced run ---------------------------------------------

    def _traced(self, warm_store: Optional[pathlib.Path],
                untraced_run_s: float) -> Dict[str, tuple]:
        outdir = self._fresh("traced")
        store = warm_store or self._fresh("store")
        store.mkdir(exist_ok=True)
        report = self._fresh("spans")
        argv = [sys.executable, str(TRACER), "--scale", self.scale,
                "--seed", str(self.seed), "--jobs", str(JOBS),
                "--store", str(store), "--out", str(outdir),
                "--report", str(report)]
        result = run_command(argv, self.env, COMMAND_TIMEOUT)
        if not self.gate.check("traced run", result.returncode,
                               result.stderr, outdir, warm=self.warm):
            return {}
        data = json.loads(report.read_text())
        return layer_metrics(data, result.wall_s, untraced_run_s, store)


def _timer(metrics: dict, name: str, field: str = "total_seconds") -> float:
    return float(metrics["timers"].get(name, {}).get(field, 0.0))


def _count(metrics: dict, name: str) -> int:
    return int(metrics["counters"].get(name, 0))


def _bytes_on_disk(path: pathlib.Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def layer_metrics(data: dict, traced_wall: float, untraced_run_s: float,
                  store: pathlib.Path) -> Dict[str, tuple]:
    """Per-layer metrics from the traced child's report.

    ``spans`` are the benchmark's own top-level spans (wall, in call
    order, no overlap); ``registry`` is the program's metrics registry
    (worker timers summed over workers, so busy time, not wall).
    """
    spans: Dict[str, float] = {}
    for name, seconds in data["spans"]:
        spans[name] = spans.get(name, 0.0) + seconds
    reg = data["registry"]
    stats = data["runner_stats"]
    total = sum(s["days_total"] for s in stats)
    from_store = sum(s["days_from_cache"] for s in stats)
    malformed = sum(v for k, v in reg["counters"].items()
                    if k.endswith(".malformed"))
    gauges = reg["gauges"]
    return {
        "startup_s": (spans.get("startup", 0.0) + spans.get("import", 0.0),
                      "s"),
        "simulation.world_s": (spans.get("simulation.world", 0.0), "s"),
        "simulation.priced_transactions_s": (
            spans.get("simulation.priced_transactions", 0.0), "s"),
        "simulation.transfer_ledger_s": (
            spans.get("simulation.transfer_ledger", 0.0), "s"),
        "simulation.rpki_s": (spans.get("simulation.rpki", 0.0), "s"),
        "simulation.whois_s": (0.0, "s"),
        "simulation.other_s": (
            spans.get("simulation.scrape_log", 0.0)
            + spans.get("simulation.as2org", 0.0), "s"),
        "bgp.pairs_on_busy_s": (
            _timer(reg, "runner.compute.day.stream.pairs_on"), "s"),
        "bgp.pairs_aggregated": (
            _count(reg, "stream.pairs_aggregated"), "count"),
        "bgp.days_synthesized": (
            int(reg["timers"].get("runner.compute.day.stream.pairs_on",
                                  {}).get("count", 0)), "count"),
        "delegation.kernel_filter_busy_s": (
            _timer(reg, "runner.compute.day.kernel.columnar.filter"), "s"),
        "delegation.kernel_cover_busy_s": (
            _timer(reg, "runner.compute.day.kernel.columnar.cover"), "s"),
        "delegation.run_inference_s": (
            spans.get("delegation.run_inference", 0.0), "s"),
        "delegation.fan_in_s": (_timer(reg, "runner.fan_in"), "s"),
        "delegation.consistency_s": (_timer(reg, "runner.consistency"), "s"),
        "delegation.cache_probe_s": (_timer(reg, "runner.cache_probe"), "s"),
        "delegation.days_computed": (
            sum(s["days_computed"] for s in stats), "count"),
        "delegation.days_from_store": (from_store, "count"),
        "delegation.store_hit_ratio": (
            from_store / total if total else 0.0, "ratio"),
        "delegation.pairs_seen": (_count(reg, "pipeline.pairs_seen"), "count"),
        "delegation.delegations": (
            _count(reg, "pipeline.delegations"), "count"),
        "delegation.rpki_eval_s": (
            spans.get("delegation.rpki_eval", 0.0), "s"),
        "store.writes": (
            _count(reg, "store.writes") + _count(reg, "store.result_writes"),
            "count"),
        "store.hits": (_count(reg, "store.hits"), "count"),
        "store.result_hits": (_count(reg, "store.result_hits"), "count"),
        "store.malformed": (malformed, "count"),
        "store.bytes_on_disk": (_bytes_on_disk(store), "bytes"),
        "fanin.shm_kb": (float(gauges.get("fanin.shm_kb", 0)), "kB"),
        "fanin.pickled_kb": (float(gauges.get("fanin.pickled_kb", 0)), "kB"),
        "analysis.fig6_s": (spans.get("analysis.fig6", 0.0), "s"),
        "analysis.fig1_5_s": (
            sum(spans.get(f"analysis.{n}", 0.0)
                for n in ("fig1", "fig2", "fig4", "fig5")), "s"),
        "unattributed_s": (traced_wall - sum(spans.values()), "s"),
        "trace_overhead_ratio": (
            traced_wall / untraced_run_s if untraced_run_s else 0.0,
            "ratio"),
    }
