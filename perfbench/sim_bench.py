"""The ``sim_grid`` workload: ``repro.api.simulate`` over paper-grid cells.

Eight specs at ``n_bins = TABLE1_N`` run in this process with ``engine=
"auto"`` and ``REPRO_KERNEL`` unset, so the kernels do all the work and no
serve layer runs.  Six are Table 1 cells; ``kd_4_9_heavy`` is the Theorem 2
heavy case (``n_balls = 16 n``); ``stale_4_9_r8`` is the stale-information
variant, whose cost grows faster than linearly in ``n`` today.  ``kd_1_49``
and ``kd_16_193`` sit in the large-``d`` regime.

An untimed first pass over the grid runs at :data:`PIN_SEED` and must
reproduce the ``max_load`` and ``loads_sha256`` pinned in ``pins.json``;
the timed passes run at seeds derived from the benchmark seed and are
checked for exact ball and message counts.  Each cell's time is the median
of its timed passes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import common

#: (cell, scheme, params besides n_bins).
CELLS: Tuple[Tuple[str, str, Dict[str, int]], ...] = (
    ("kd_1_2", "kd_choice", {"k": 1, "d": 2}),
    ("kd_2_5", "kd_choice", {"k": 2, "d": 5}),
    ("kd_8_17", "kd_choice", {"k": 8, "d": 17}),
    ("kd_64_65", "kd_choice", {"k": 64, "d": 65}),
    ("kd_1_49", "kd_choice", {"k": 1, "d": 49}),
    ("kd_16_193", "kd_choice", {"k": 16, "d": 193}),
    ("kd_4_9_heavy", "kd_choice", {"k": 4, "d": 9, "heavy": 16}),
    ("stale_4_9_r8", "stale_kd_choice", {"k": 4, "d": 9, "stale_rounds": 8}),
)
PIN_SEED = 0
PINS = Path(__file__).resolve().parent / "pins.json"
#: Launches of ``python3 -c "import repro"`` per run (plus one unmeasured).
SETUP_REPEATS = 5


def n_bins() -> int:
    from repro.experiments import TABLE1_N

    return TABLE1_N


def spec_for(cell: str, seed: int) -> Any:
    from repro.api import SchemeSpec

    _, scheme, params = next(entry for entry in CELLS if entry[0] == cell)
    params = dict(params, n_bins=n_bins())
    heavy = params.pop("heavy", None)
    if heavy is not None:
        params["n_balls"] = heavy * params["n_bins"]
    return SchemeSpec(scheme=scheme, params=params, seed=seed)


def sizes() -> Dict[str, Dict[str, int]]:
    """Each cell's parameters as run, for the results record."""
    return {cell: dict(spec_for(cell, PIN_SEED).params) for cell, _, _ in CELLS}


def loads_sha256(loads: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(loads, dtype=np.int64).tobytes()).hexdigest()


def check(cell: str, spec: Any, result: Any, pins: Optional[Dict[str, Any]]) -> List[str]:
    """Exact counts always; max_load and loads_sha256 against the pins."""
    params = spec.params
    n_balls = params.get("n_balls", params["n_bins"])
    problems = []
    if int(result.loads.sum()) != n_balls or len(result.loads) != params["n_bins"]:
        problems.append(f"{cell}: loads do not hold {n_balls} balls in {params['n_bins']} bins")
    if result.messages * params["k"] != params["d"] * n_balls:
        problems.append(f"{cell}: {result.messages} messages, expected d/k per ball")
    if pins is not None:
        got = {"max_load": int(result.max_load), "loads_sha256": loads_sha256(result.loads)}
        if got != pins[cell]:
            problems.append(f"{cell}: {got} differs from the pinned {pins[cell]}")
    return problems


def measure_setup() -> float:
    """Median wall time of interpreter start plus ``import repro``."""
    argv = [sys.executable, "-c", "import repro"]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        started = time.monotonic()
        subprocess.run(argv, cwd=common.ROOT, env=common.child_env(), check=True)
        if attempt:
            times.append(time.monotonic() - started)
    return statistics.median(times)


def verify_pins() -> List[str]:
    """One untimed pass at PIN_SEED, checked against ``pins.json``.

    It also warms the process (allocator arenas, page tables) at full size,
    so the timed passes that follow do not pay first-touch costs.
    """
    from repro.api import simulate

    pins = json.loads(PINS.read_text())
    problems = []
    for cell, _, _ in CELLS:
        spec = spec_for(cell, PIN_SEED)
        problems.extend(check(cell, spec, simulate(spec), pins))
    return problems


class RunnerSpans:
    """Times the registered runner inside ``simulate``.

    The traced run swaps each cell's registry record for a copy whose
    runners record their wall time, so ``simulate()`` minus its runner is
    the api layer's own time and the runner alone is the kernel's.
    """

    def __init__(self) -> None:
        self.last = 0.0

    def install(self) -> None:
        from repro.api import registry

        records = registry.REGISTRY._schemes
        for _, scheme, _ in CELLS:
            info = records[scheme]
            fields = {
                name: self._timed(getattr(info, name))
                for name in ("runner", "vectorized", "compiled")
                if getattr(info, name) is not None
            }
            records[scheme] = dataclasses.replace(info, **fields)

    def _timed(self, runner: Callable) -> Callable:
        def timed(**kwargs: Any) -> Any:
            started = time.monotonic()
            try:
                return runner(**kwargs)
            finally:
                self.last = time.monotonic() - started

        return timed


def measure(seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """Cycle through the cells, at seeds derived from ``seed``, until
    ``seconds`` pass (at least one whole pass)."""
    from repro.api import simulate

    spans = RunnerSpans() if traced else None
    if spans is not None:
        spans.install()
    walls: Dict[str, List[float]] = {cell: [] for cell, _, _ in CELLS}
    runner: Dict[str, List[float]] = {cell: [] for cell, _, _ in CELLS}
    probes: Dict[str, List[float]] = {cell: [] for cell, _, _ in CELLS}
    problems: List[str] = []
    attempted = failed = 0
    messages: Dict[str, float] = {}
    deadline = time.monotonic() + seconds
    for word in np.random.SeedSequence(seed).generate_state(1000):
        if attempted and time.monotonic() >= deadline:
            break
        for cell, _, _ in CELLS:
            spec = spec_for(cell, int(word))
            probes[cell].append(common.speed_probe())
            started = time.monotonic()
            result = simulate(spec)
            walls[cell].append(time.monotonic() - started)
            if spans is not None:
                runner[cell].append(spans.last)
            attempted += 1
            found = check(cell, spec, result, None)
            failed += bool(found)
            problems.extend(found)
            messages[cell] = result.messages / result.n_balls
    return {
        "walls": walls,
        "runner": runner,
        "probes": probes,
        "messages_per_ball": messages,
        "balls": {
            cell: spec_for(cell, PIN_SEED).params.get("n_balls", n_bins())
            for cell in walls
        },
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def end_to_end(result: Dict[str, Any], setup_s: float, scaled: bool = True) -> Dict[str, float]:
    """The grid's metrics; ``scaled`` multiplies each cell time by the
    reference over the speed probe taken just before it.

    One operation is one ``simulate()`` call.  ``ops_per_s`` is the cells
    over the sum of their median times; ``latency_p50_ms`` is the median
    over passes of a pass's mean call time.
    """
    scaled_times = {}
    for cell, times in result["walls"].items():
        factors = (
            [common.PROBE_REFERENCE_S / probe for probe in result["probes"][cell]]
            if scaled else [1.0] * len(times)
        )
        scaled_times[cell] = [t * f for t, f in zip(times, factors)]
    medians = {cell: statistics.median(times) for cell, times in scaled_times.items()}
    rates = [result["balls"][cell] / medians[cell] for cell in medians]
    passes = [statistics.mean(call) for call in zip(*scaled_times.values())]
    return {
        "ops_per_s": len(medians) / sum(medians.values()),
        "latency_p50_ms": statistics.median(passes) * 1e3,
        "balls_per_s": math.exp(sum(math.log(rate) for rate in rates) / len(rates)),
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: Dict[str, Any]) -> Tuple[Dict[str, float], List[str]]:
    """Kernel rates and message counts per cell, the api layer's own time,
    and the trace summary lines."""
    metrics: Dict[str, float] = {}
    overheads = []
    lines = ["self time per simulate() call, median over passes:"]
    for cell, walls in result["walls"].items():
        runner = result["runner"][cell]
        kernel = statistics.median(runner)
        metrics[f"kernels.{cell}.balls_per_s"] = result["balls"][cell] / kernel
        metrics[f"kernels.{cell}.messages_per_ball"] = result["messages_per_ball"][cell]
        own = [wall - inner for wall, inner in zip(walls, runner)]
        overheads.extend(own)
        lines.append(
            f"  {cell:<14} repro.api {statistics.median(own) * 1e3:8.3f} ms   "
            f"repro.core.kernels {kernel * 1e3:9.1f} ms"
        )
    metrics["api.simulate_overhead_ms"] = statistics.median(overheads) * 1e3
    return metrics, lines


def write_pins() -> None:
    """Regenerate ``pins.json`` from the current code at PIN_SEED."""
    from repro.api import simulate

    pins = {}
    for cell, _, _ in CELLS:
        result = simulate(spec_for(cell, PIN_SEED))
        pins[cell] = {"max_load": int(result.max_load), "loads_sha256": loads_sha256(result.loads)}
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
