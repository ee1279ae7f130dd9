"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper (see DESIGN.md's
per-experiment index).  Each bench both:

* times the experiment via ``pytest-benchmark`` (one round — these are
  experiments, not micro-benchmarks), and
* attaches the regenerated rows/series to ``benchmark.extra_info`` and prints
  them, so running ``pytest benchmarks/ --benchmark-only -s`` reproduces the
  paper's artefacts directly in the terminal.

Scaled-down problem sizes are used by default so the whole harness finishes
in a few minutes; the paper-scale variants are marked ``slow`` and can be
selected with ``-m slow``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The hand-written scalar loops the throughput floors time live with the
# tests, as the ``oracles`` package.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark timer."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


@pytest.fixture
def bench_seed() -> int:
    """Root seed shared by the benchmark experiments."""
    return 20110606  # PODC 2011
