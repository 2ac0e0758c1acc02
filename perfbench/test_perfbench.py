"""Self-tests of the benchmark, on the ``small`` world preset.

    python3 -m pytest perfbench -q

Every workload runs end to end in seconds, and injected faults — a
flipped CSV byte, a wrong response body, a server killed mid-step —
are counted as failed operations without crashing the benchmark.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import threading

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import figures  # noqa: E402
import serve_mixed  # noqa: E402

common.require_program()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: pathlib.Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_readme_names_every_metric_and_workload():
    readme = (HERE / "README.md").read_text()
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer")
             for entry in SPEC[key]]
    missing = [n for n in names if f"`{n}`" not in readme]
    assert not missing


@pytest.mark.parametrize("workload", ["figures-cold", "figures-warm",
                                      "serve-mixed"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_end_to_end(workload, trace):
    result = result_of(run_bench("--workload", workload, "--scale",
                                 "small", "--seconds", "1", "--trace",
                                 trace, "--seed", "7"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = [m["name"] for m in
              SPEC["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(wanted)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "figures-cold", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_no_process_outlives_a_run():
    # The run is the child of a subreaper, so a process it leaves
    # behind (even one that exits a moment later) is re-parented to the
    # subreaper instead of vanishing under init.
    watcher = (
        "import subprocess, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import common\n"
        "common.become_subreaper()\n"
        "proc = subprocess.run(sys.argv[2:], capture_output=True)\n"
        "left = common._children()\n"
        "common.reap()\n"
        "print(proc.returncode, len(left))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", watcher, str(HERE), sys.executable,
         str(HERE / "run.py"), "--workload", "serve-mixed", "--scale",
         "small", "--seconds", "1", "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
    )
    assert proc.stdout.split() == ["0", "0"], proc.stderr[-2000:]


@pytest.fixture(scope="module")
def small_figures(tmp_path_factory):
    base = tmp_path_factory.mktemp("figs")
    proc = subprocess.run(
        figures.figures_argv("small", 42, base / "out", base / "store"),
        env=common.child_env(base), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return base / "out"


def test_gate_passes_pinned_output(small_figures):
    gate = figures.Gate("small", 42)
    assert gate.check("clean", 0, "", small_figures, warm=False)
    assert (gate.attempted, gate.failed) == (1, 0)


def test_flipped_csv_byte_counts_as_failure(small_figures, tmp_path):
    tampered = tmp_path / "out"
    shutil.copytree(small_figures, tampered)
    data = bytearray((tampered / "fig6.csv").read_bytes())
    data[-2] ^= 0x01
    (tampered / "fig6.csv").write_bytes(bytes(data))
    gate = figures.Gate("small", 42)
    assert not gate.check("tampered", 0, "", tampered, warm=False)
    assert (gate.attempted, gate.failed) == (1, 1)
    assert "fig6" in gate.reasons[0]


def test_premise_break_counts_as_failure(small_figures):
    # A cold store's output read as a warm run: 0 days from the store.
    gate = figures.Gate("small", 42)
    assert not gate.check("premise", 0, "", small_figures, warm=True)
    assert gate.failed == 1


def _serve_run(tmp_path, monkeypatch, ladder):
    monkeypatch.setattr(serve_mixed, "SETUP_LAUNCHES", 1)
    monkeypatch.setattr(serve_mixed, "ROUNDS_PER_SERVER", 1)
    monkeypatch.setattr(serve_mixed, "CLOSED_REQUESTS", 200)
    monkeypatch.setattr(serve_mixed, "SATURATED_REQUESTS", 500)
    monkeypatch.setattr(serve_mixed, "LADDER", ladder)
    return serve_mixed.ServeRun("small", 42, 2.0, tmp_path)


def test_wrong_response_body_counts_as_failure(tmp_path, monkeypatch):
    real_draw = serve_mixed.draw_pool

    def tampered(ref, seed):
        pool = real_draw(ref, seed)
        for entry in pool:
            if entry["route"] == "ip":
                entry["sha256"] = "0" * 64
        return pool

    monkeypatch.setattr(serve_mixed, "draw_pool", tampered)
    run = _serve_run(tmp_path, monkeypatch, ((500, 1.0),))
    outcome = run.run(trace=False)
    assert outcome["correct"] is False
    assert 0 < outcome["failed"] < outcome["attempted"]


def test_server_killed_mid_step_counts_as_failure(tmp_path, monkeypatch):
    real_load = serve_mixed.ServeRun._load

    def killing(self, server, pool, ladder):
        timer = threading.Timer(1.5, server.proc.kill)
        timer.start()
        try:
            return real_load(self, server, pool, ladder)
        finally:
            timer.cancel()

    monkeypatch.setattr(serve_mixed.ServeRun, "_load", killing)
    run = _serve_run(tmp_path, monkeypatch, ((500, 3.0),))
    outcome = run.run(trace=False)
    assert outcome["correct"] is False
    assert outcome["failed"] > 0
