"""Helpers shared by every workload: the checkout layout, timed child
processes with process-tree memory sampling, quantiles, and the
result record the benchmark prints."""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import pathlib
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

#: The checkout this benchmark sits in; the program lives in ``src/``.
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes lives here (and is removed when it ends).
WORK_ROOT = ROOT / ".perfbench_work"
#: Cross-run state: CSV digests per (scale, seed), see DigestLedger.
LEDGER_PATH = WORK_ROOT / "digests.json"

MEMORY_SAMPLE_SECONDS = 0.05


class BenchError(Exception):
    """The benchmark cannot run at all (not a failed operation)."""


def require_program() -> None:
    """Fail before any work when the checkout holds no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program to measure: {SRC / 'repro'} is missing "
            "(run from the root of a checkout)"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(workdir: pathlib.Path) -> Dict[str, str]:
    """Environment for every child: the checkout's ``src`` on the
    path and temporary files kept inside the run's work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def make_workdir(workload: str) -> pathlib.Path:
    path = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def repro_argv(scale: str, seed: int, *args: str) -> List[str]:
    return [sys.executable, "-m", "repro", "--seed", str(seed),
            "--scale", scale, *args]


# -- process-tree memory ----------------------------------------------


def _tree(pid: int) -> List[int]:
    """``pid`` and every live descendant (via /proc children lists)."""
    found = [pid]
    index = 0
    while index < len(found):
        current = found[index]
        index += 1
        try:
            text = pathlib.Path(
                f"/proc/{current}/task/{current}/children"
            ).read_text()
        except OSError:
            continue
        found.extend(int(child) for child in text.split())
    return found


def _pss_kb(pid: int) -> int:
    """Proportional set size: shared pages (fork copy-on-write, the
    shared-memory fan-in segments) are split between their users, so
    summing over a tree counts each page once."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def process_cpu_s(pid: int) -> float:
    """CPU seconds a live process's threads have run so far (scheduler
    run time in ns, summed over ``/proc/<pid>/task/*/schedstat``)."""
    total = 0
    for stat in pathlib.Path(f"/proc/{pid}/task").glob("*/schedstat"):
        try:
            total += int(stat.read_text().split()[0])
        except (OSError, ValueError, IndexError):
            continue
    return total / 1e9


def status_kb(pid: int, field: str) -> int:
    """One ``/proc/<pid>/status`` field in kB (``VmHWM``, ``VmRSS``)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeMemorySampler:
    """Samples the summed PSS of a process tree until stopped; the
    peak is the command's memory metric."""

    def __init__(self, pid: int):
        self._pid = pid
        self._stop = threading.Event()
        self.peak_kb = 0
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            total = sum(_pss_kb(pid) for pid in _tree(self._pid))
            self.peak_kb = max(self.peak_kb, total)
            self._stop.wait(MEMORY_SAMPLE_SECONDS)

    def stop(self) -> int:
        self._stop.set()
        self._thread.join()
        return self.peak_kb


def settle() -> None:
    """Flush dirty pages left by earlier steps (a store just written,
    a work directory just removed), so the next timed step does not
    pay for their writeback."""
    os.sync()


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL a child started with ``start_new_session`` and every
    process it started (its pool workers)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# -- leaving no process behind ------------------------------------------

PR_SET_CHILD_SUBREAPER = 36
#: How long a leftover process (a resource tracker reading the end of
#: its pipe) may take to exit on its own before it is killed.
REAP_GRACE_SECONDS = 10.0


def become_subreaper() -> None:
    """Make this process the parent of every orphaned descendant:
    a command's multiprocessing resource tracker outlives the command
    by a moment, and as our child it can be waited for."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise BenchError("prctl(PR_SET_CHILD_SUBREAPER) failed: "
                         f"{os.strerror(ctypes.get_errno())}")


def _children() -> List[int]:
    """This process's children, zombies included."""
    found: List[int] = []
    for task in pathlib.Path(f"/proc/{os.getpid()}/task").iterdir():
        try:
            found.extend(int(pid) for pid in
                         (task / "children").read_text().split())
        except OSError:
            continue
    return found


def _in_group(pid: int, pgid: Optional[int]) -> bool:
    if pgid is None:
        return True
    try:
        return os.getpgid(pid) == pgid
    except ProcessLookupError:
        return False


def reap(pgid: Optional[int] = None,
         grace: float = REAP_GRACE_SECONDS) -> None:
    """Wait until every child of this process — of process group
    ``pgid`` only, when given — has exited, SIGKILLing what is still
    running after ``grace`` seconds, and reap them all.  Call it once
    the command that started them has been waited for."""
    deadline = time.monotonic() + grace
    while True:
        pids = [pid for pid in _children() if _in_group(pid, pgid)]
        if not pids:
            return
        for pid in pids:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        if time.monotonic() > deadline:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def stop_all() -> None:
    """Leave no process behind: stop this process's own resource
    tracker (started by in-process inference with a worker pool),
    then wait for every remaining child."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    reap()


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class CommandResult:
    def __init__(self, returncode: int, wall_s: float, cpu_s: float,
                 peak_kb: int, stderr: str):
        self.returncode = returncode
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.peak_mb = peak_kb / 1024.0
        self.stderr = stderr


def run_command(argv: Sequence[str], env: Dict[str, str],
                timeout: float) -> CommandResult:
    """Run one command to completion: wall time from launch to exit,
    CPU time of its process tree (user + system, reaped descendants
    included) and the tree's peak PSS."""
    settle()
    cpu_before = _children_cpu()
    started = time.perf_counter()
    proc = subprocess.Popen(
        list(argv), cwd=str(ROOT), env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    sampler = TreeMemorySampler(proc.pid)
    try:
        _stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        _stdout, stderr = proc.communicate()
        stderr += f"\n[perfbench] killed after {timeout:.0f}s"
    wall = time.perf_counter() - started
    reap(proc.pid)
    return CommandResult(proc.returncode, wall, _children_cpu() - cpu_before,
                         sampler.stop(), stderr)


# -- statistics and results -----------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of raw samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return float(ordered[rank - 1])


def sha256_file(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, tuple]) -> str:
    """The benchmark's last stdout line."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }, sort_keys=False)


def log(message: str) -> None:
    """Progress goes to stderr; stdout carries only the result."""
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def source_digest() -> str:
    """Digest of the program's source, so cross-run comparisons only
    ever compare runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class DigestLedger:
    """Figure CSV digests per (program source, scale, seed), kept
    across runs in the checkout, so every run of either figures
    workload on a seed must reproduce the bytes of the first one."""

    def __init__(self, path: pathlib.Path = LEDGER_PATH):
        self._path = path

    def _load(self) -> dict:
        try:
            return json.loads(self._path.read_text())
        except (OSError, ValueError):
            return {}

    def check(self, key: str, digests: Dict[str, str]) -> Optional[str]:
        """Record ``digests`` under ``key`` or compare with the record;
        returns a mismatch description or ``None``."""
        ledger = self._load()
        known = ledger.get(key)
        if known is None:
            ledger[key] = digests
            self._path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self._path.with_name(f"{self._path.name}.{os.getpid()}")
            tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
            os.replace(tmp, self._path)
            return None
        differing = sorted(
            name for name in digests if known.get(name) != digests[name]
        )
        if differing:
            return f"{', '.join(differing)} differ from an earlier run"
        return None
