"""The one ``BENCH_*.json`` envelope every artifact writer emits.

Version 2 unifies the snapshot schema across ``bench_report.py`` (online +
core), ``bench_serve.py`` and ``bench_substrates.py``::

    {
      "artifact":  "BENCH_<NAME>",
      "version":   2,
      "cpus":      <os.cpu_count()>,
      "python":    "<platform.python_version()>",
      "numpy":     "<np.__version__>",
      "items":     <workload size>,
      "series":    {"<name>": {... "*items_per_sec": <rate> ...}}
    }

Each file holds only its own series.  No snapshot is committed: the
run-to-run trajectory lives in the uploaded CI artifacts, and cross-run
comparison is ``perfbench/run.py --compare``, which refuses records taken
on different machines, software or sizes.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Any, Dict

import numpy as np

ENVELOPE_VERSION = 2


def write_envelope(
    output: Path,
    artifact: str,
    items: int,
    series: Dict[str, Dict[str, Any]],
    **extra: Any,
) -> Dict[str, Any]:
    """Write one version-2 envelope to ``output``; return the payload.

    ``extra`` keys (e.g. ``compiled_backend``) land at the top level next
    to the standard fields — they are annotations, not rate series.
    """
    report: Dict[str, Any] = {
        "artifact": artifact,
        "version": ENVELOPE_VERSION,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count() or 1,
        "items": items,
        "series": {name: dict(line) for name, line in series.items()},
    }
    report.update(extra)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report
