"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures from
the paper-scale world, asserts its shape matches the paper's reported
numbers, and writes a paper-vs-measured comparison table under
``benchmarks/results/`` (the source for ``EXPERIMENTS.md``).
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time
from typing import Any, Callable, Dict, Tuple

import pytest

from repro.simulation import World, paper_scenario

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _measure(
    fn: Callable[[], Any], repeats: int = 5
) -> Tuple[Any, Dict[str, float]]:
    """Call ``fn`` ``repeats`` (>= 3) times back to back.

    Returns the last call's result and the wall-clock spread in
    seconds: ``{"median", "min", "max", "n"}``.  Timing gates compare
    medians, so one slow or lucky sample does not decide them.
    """
    if repeats < 3:
        raise ValueError("a timing needs at least 3 samples")
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return result, {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": repeats,
    }


@pytest.fixture(scope="session")
def measure():
    """The repeated-sample timer, ``measure(fn, repeats)``."""
    return _measure


@pytest.fixture(scope="session")
def world() -> World:
    """The paper-scale world, shared across all benchmarks."""
    return World(paper_scenario())


@pytest.fixture(scope="session")
def record_result():
    """Write a named result file and echo it to stdout."""

    def _record(name: str, text: str) -> str:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[written to {path}]")
        return str(path)

    return _record


@pytest.fixture(scope="session")
def record_bench_json():
    """Write machine-readable timings as ``BENCH_<name>.json``.

    Sits next to the human-readable ``.txt`` table; CI uploads these
    as artifacts so wall-clock history (cold/warm, before/after
    speedups) survives across runs without parsing prose.
    """

    def _record(name: str, payload: dict) -> str:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIR / f"BENCH_{name}.json"
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"[bench json written to {path}]")
        return str(path)

    return _record
