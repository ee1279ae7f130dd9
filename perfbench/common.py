"""Paths, child-process environment and /proc readings shared by the workloads."""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

#: The checkout the benchmark runs in, and the sources it measures.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (logs, port files, spans, results) goes here.
OUT = ROOT / ".perfbench"

_TICK = os.sysconf("SC_CLK_TCK")

#: Seconds one speed probe takes on the reference machine.  Scaled times
#: read as if measured on a machine this fast.
PROBE_REFERENCE_S = 0.002


def speed_probe(repeats: int = 5) -> float:
    """Median wall seconds of a fixed mix of interpreter and NumPy work.

    Shared hosts change speed by a third within tens of seconds (time
    stolen by the hypervisor, busy neighbours on the same cores).  The
    in-process ``sim_grid`` cells are scaled by a probe taken just before
    each, so that drift cancels instead of landing in the run-to-run
    spread.
    """
    times = []
    data = np.arange(20_000, dtype=np.int64)
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(12_000):
            total += i & 7
        np.sort(data[::-1] % 9973)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def cpu_ticks() -> Tuple[int, int]:
    """Machine-wide (stolen, total) CPU ticks so far, from /proc/stat.

    On a shared virtual machine the hypervisor runs other guests on our
    CPUs; the share of ticks stolen over a phase says how much of its wall
    time the machine was not ours.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal (guest time is
    # already counted in user and nice).
    return fields[7], sum(fields[:8])


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def child_env() -> Dict[str, str]:
    """The environment of every process the benchmark starts.

    ``REPRO_KERNEL`` is removed so ``engine="auto"`` makes its default
    choice, and the compiled backend's build cache stays in the checkout.
    """
    env = dict(os.environ)
    env.pop("REPRO_KERNEL", None)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_COMPILED_CACHE"] = str(OUT / "compiled-cache")
    return env


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name may contain spaces; fields resume after its ')'.
        return handle.read().rsplit(")", 1)[1].split()


def children(pid: int) -> List[int]:
    """Direct children of ``pid`` (the server's shard processes)."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if int(_stat_fields(int(entry))[1]) == pid:
                    found.append(int(entry))
            except (OSError, IndexError):
                continue
    return found


def _cpu_seconds(pid: int) -> float:
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _TICK


def tree_cpu(pid: int) -> Tuple[float, float]:
    """CPU seconds used so far by ``pid`` and by its children together."""
    return _cpu_seconds(pid), sum(_cpu_seconds(child) for child in children(pid))


def _peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def tree_peak_rss_mb(pid: int) -> float:
    """Peak resident memory of ``pid`` plus that of each child, in MiB."""
    return sum(_peak_rss_kb(p) for p in [pid, *children(pid)]) / 1024.0


def environment() -> Dict[str, object]:
    """What a result depends on besides the code: compared before metrics."""
    import numpy

    from repro.core.compiled import backend_unavailable_reason

    os.environ["REPRO_COMPILED_CACHE"] = str(OUT / "compiled-cache")
    reason = backend_unavailable_reason()
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiled_backend": "available" if reason is None else f"unavailable: {reason}",
    }
