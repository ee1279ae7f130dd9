"""Live load telemetry for the streaming allocator.

The allocator calls :meth:`LoadTelemetry.record_place` /
:meth:`~LoadTelemetry.record_remove` on every event and
:meth:`~LoadTelemetry.record_block` per bulk ingestion; those updates are
O(1) counter bumps.  The statistics — max load, load percentiles, gap to
mean — are computed only when a *sample* is taken, every ``sample_every``
events, and appended to a fixed-capacity ring (:class:`collections.deque`),
so a stream of millions of placements carries a bounded, recent window of
its own history.

The clock is injectable so tests (and the CLI's deterministic summaries)
can freeze wall time; ``placements_per_sec`` is the only wall-clock-derived
field and is excluded from deterministic output paths.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["TelemetrySample", "LoadTelemetry"]

#: Percentiles reported by every sample.
DEFAULT_PERCENTILES: Tuple[int, ...] = (50, 95, 99)

#: Zeroed topology counters (probe relations + placement locality).
_TOPOLOGY_ZERO: Dict[str, int] = {
    "rack_probes": 0,
    "zone_probes": 0,
    "cross_probes": 0,
    "local_places": 0,
    "cross_places": 0,
}


@dataclass(frozen=True)
class TelemetrySample:
    """One point-in-time reading of the allocator's load state."""

    index: int  #: sample sequence number (0-based)
    events: int  #: placements + removals seen when the sample was taken
    placements: int
    removals: int
    max_load: int
    mean_load: float
    gap: float  #: max_load - mean_load
    percentiles: Dict[int, float]
    wall_time: float  #: seconds since telemetry start (clock-dependent)
    placements_per_sec: float  #: realized rate since the previous sample

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "events": self.events,
            "placements": self.placements,
            "removals": self.removals,
            "max_load": self.max_load,
            "mean_load": self.mean_load,
            "gap": self.gap,
            "percentiles": {str(p): v for p, v in self.percentiles.items()},
            "wall_time": self.wall_time,
            "placements_per_sec": self.placements_per_sec,
        }


class LoadTelemetry:
    """O(1)-update metrics with a bounded ring of periodic samples.

    Parameters
    ----------
    sample_every:
        Events (placements + removals) between automatic samples; the
        allocator triggers them via :meth:`maybe_sample`.
    capacity:
        Ring size — only the most recent ``capacity`` samples are kept.
    percentiles:
        Load percentiles computed per sample.
    clock:
        Wall-clock source (``time.perf_counter`` by default); injectable
        for deterministic tests.
    """

    def __init__(
        self,
        sample_every: int = 4096,
        capacity: int = 256,
        percentiles: Tuple[int, ...] = DEFAULT_PERCENTILES,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sample_every = sample_every
        self.percentiles = tuple(percentiles)
        self.samples: Deque[TelemetrySample] = deque(maxlen=capacity)
        self._clock = clock
        self._start = clock()
        self._last_sample_time = self._start
        self._last_sample_placements = 0
        self.placements = 0
        self.removals = 0
        self._events_since_sample = 0
        self._samples_taken = 0
        # Per-tenant counters (multi-tenant workloads only): tenant label ->
        # {"placements", "removals", "bins": {bin -> live count}}.  Labels
        # are normalized to strings so the counters survive a JSON snapshot
        # round-trip unchanged.
        self._tenants: Dict[str, Dict[str, object]] = {}
        # Topology counters (topology-aware streams only): probe relations
        # come off the stepper's kernel tallies, placement locality from the
        # drivers' zone attribution.  All zero ⇒ absent from snapshots.
        self._topology: Dict[str, int] = dict(_TOPOLOGY_ZERO)

    # ------------------------------------------------------------------
    # O(1) event updates
    # ------------------------------------------------------------------
    def record_place(self, bin_index: int) -> None:
        self.placements += 1
        self._events_since_sample += 1

    def record_remove(self, bin_index: int) -> None:
        self.removals += 1
        self._events_since_sample += 1

    def record_block(self, count: int) -> None:
        """Account ``count`` placements ingested through a batch kernel."""
        self.placements += count
        self._events_since_sample += count

    # ------------------------------------------------------------------
    # Per-tenant attribution (multi-tenant workloads)
    # ------------------------------------------------------------------
    def record_tenant_place(self, tenant: object, bin_index: int) -> None:
        """Attribute one placement to ``tenant`` landing in ``bin_index``.

        Called by the event drivers (which see the workload's tenant
        labels and the chosen destinations), not by the allocator — the
        global counters above stay tenancy-agnostic.
        """
        stats = self._tenants.get(str(tenant))
        if stats is None:
            stats = self._tenants[str(tenant)] = {
                "placements": 0, "removals": 0, "bins": {},
            }
        stats["placements"] = int(stats["placements"]) + 1
        bins = stats["bins"]
        bins[int(bin_index)] = bins.get(int(bin_index), 0) + 1  # type: ignore[union-attr]

    def record_tenant_remove(self, tenant: object, bin_index: int) -> None:
        """Attribute one removal from ``bin_index`` to ``tenant``."""
        stats = self._tenants.get(str(tenant))
        if stats is None:
            stats = self._tenants[str(tenant)] = {
                "placements": 0, "removals": 0, "bins": {},
            }
        stats["removals"] = int(stats["removals"]) + 1
        bins = stats["bins"]
        key = int(bin_index)
        remaining = bins.get(key, 0) - 1  # type: ignore[union-attr]
        if remaining > 0:
            bins[key] = remaining  # type: ignore[index]
        else:
            bins.pop(key, None)  # type: ignore[union-attr]

    @property
    def has_tenants(self) -> bool:
        return bool(self._tenants)

    # ------------------------------------------------------------------
    # Topology attribution (topology-aware workloads)
    # ------------------------------------------------------------------
    def record_zone_probes(
        self, rack: int = 0, zone: int = 0, cross: int = 0
    ) -> None:
        """Accumulate probe-relation deltas (same rack / same zone / cross).

        Called by the event drivers with the difference of the stepper's
        kernel tallies across a run of placements — the telemetry layer
        never re-derives probe relations itself.
        """
        self._topology["rack_probes"] += int(rack)
        self._topology["zone_probes"] += int(zone)
        self._topology["cross_probes"] += int(cross)

    def record_zone_place(self, local: bool) -> None:
        """Attribute one placement as same-zone (``local``) or cross-zone."""
        if local:
            self._topology["local_places"] += 1
        else:
            self._topology["cross_places"] += 1

    @property
    def has_topology(self) -> bool:
        return any(self._topology.values())

    def topology_summary(self) -> "Dict[str, int | float]":
        """Topology counters plus cross-zone fractions."""
        counters = dict(self._topology)
        probes = (
            counters["rack_probes"]
            + counters["zone_probes"]
            + counters["cross_probes"]
        )
        places = counters["local_places"] + counters["cross_places"]
        counters["cross_probe_fraction"] = (
            counters["cross_probes"] / probes if probes else 0.0
        )
        counters["cross_place_fraction"] = (
            counters["cross_places"] / places if places else 0.0
        )
        return counters  # type: ignore[return-value]

    def tenant_summary(self) -> "Dict[str, Dict[str, int]]":
        """Per-tenant counters, sorted by label: placements, removals,
        live balls, and the tenant's own max load over the bins."""
        summary: Dict[str, Dict[str, int]] = {}
        for tenant in sorted(self._tenants):
            stats = self._tenants[tenant]
            bins: Dict[int, int] = stats["bins"]  # type: ignore[assignment]
            summary[tenant] = {
                "placements": int(stats["placements"]),
                "removals": int(stats["removals"]),
                "live": int(stats["placements"]) - int(stats["removals"]),
                "max_load": max(bins.values()) if bins else 0,
            }
        return summary

    def tenant_fairness(self) -> float:
        """Jain's fairness index over per-tenant live ball counts.

        1.0 means every tenant holds the same number of live balls; the
        lower bound ``1/len(tenants)`` means one tenant holds everything.
        An empty system is vacuously fair.
        """
        lives = [
            int(stats["placements"]) - int(stats["removals"])
            for stats in self._tenants.values()
        ]
        total = sum(lives)
        if not lives or total == 0:
            return 1.0
        return (total * total) / (len(lives) * sum(x * x for x in lives))

    # ------------------------------------------------------------------
    # Reads and sampling
    # ------------------------------------------------------------------
    def due(self) -> bool:
        return self._events_since_sample >= self.sample_every

    def events_until_due(self) -> int:
        """Events until the next sample is due (0 = due now).

        Bulk ingestion drivers chunk their event runs at this boundary so a
        batched replay takes samples at exactly the same event counts as a
        per-event one (a single bulk call samples at most once).
        """
        return max(0, self.sample_every - self._events_since_sample)

    def maybe_sample(self, loads: np.ndarray) -> Optional[TelemetrySample]:
        """Take a sample when one is due; returns it (or ``None``)."""
        if not self.due():
            return None
        return self.sample_now(loads)

    def sample_now(self, loads: np.ndarray) -> TelemetrySample:
        """Compute a full sample (O(n) percentiles) and append it."""
        now = self._clock()
        elapsed = max(now - self._last_sample_time, 1e-12)
        rate = (self.placements - self._last_sample_placements) / elapsed
        mean = float(loads.mean()) if loads.size else 0.0
        maximum = int(loads.max()) if loads.size else 0
        values = (
            np.percentile(loads, self.percentiles) if loads.size else
            np.zeros(len(self.percentiles))
        )
        sample = TelemetrySample(
            index=self._samples_taken,
            events=self.placements + self.removals,
            placements=self.placements,
            removals=self.removals,
            max_load=maximum,
            mean_load=mean,
            gap=maximum - mean,
            percentiles={
                int(p): float(v) for p, v in zip(self.percentiles, values)
            },
            wall_time=now - self._start,
            placements_per_sec=rate,
        )
        self.samples.append(sample)
        self._samples_taken += 1
        self._events_since_sample = 0
        self._last_sample_time = now
        self._last_sample_placements = self.placements
        return sample

    @property
    def samples_taken(self) -> int:
        return self._samples_taken

    def latest(self) -> Optional[TelemetrySample]:
        return self.samples[-1] if self.samples else None

    def history(self) -> List[TelemetrySample]:
        return list(self.samples)

    # ------------------------------------------------------------------
    # Snapshot support (counters only; the sample ring is not persisted)
    # ------------------------------------------------------------------
    def counters(self) -> "Dict[str, int | float]":
        data: Dict[str, object] = {
            "placements": self.placements,
            "removals": self.removals,
            "samples_taken": self._samples_taken,
            # The sampling phase: without it a restored stream would reset
            # its cadence and take samples at different event counts than
            # the unbroken one.
            "events_since_sample": self._events_since_sample,
            # Elapsed stream time at snapshot, so a restored stream's
            # sample ``wall_time`` continues from where the original left
            # off instead of restarting at zero.
            "wall_time": self._clock() - self._start,
        }
        if self._tenants:
            # Only present for multi-tenant streams: tenancy-free snapshots
            # (and their digests) are unchanged by the feature's existence.
            data["tenants"] = {
                tenant: {
                    "placements": int(stats["placements"]),
                    "removals": int(stats["removals"]),
                    "bins": {
                        str(b): int(c)
                        for b, c in stats["bins"].items()  # type: ignore[union-attr]
                    },
                }
                for tenant, stats in self._tenants.items()
            }
        if self.has_topology:
            # Only present for topology-aware streams: topology-free
            # snapshots (and their digests) are unchanged by the feature's
            # existence.
            data["topology"] = dict(self._topology)
        return data  # type: ignore[return-value]

    def restore_counters(self, counters: "Dict[str, int | float]") -> None:
        self.placements = int(counters.get("placements", 0))
        self.removals = int(counters.get("removals", 0))
        self._samples_taken = int(counters.get("samples_taken", 0))
        self._events_since_sample = int(counters.get("events_since_sample", 0))
        # Re-anchor the clocks: back-date the start so elapsed time resumes
        # at the snapshot's wall_time, and reset the rate window to "now"
        # (the downtime between snapshot and restore must not be billed to
        # the next sample's placements_per_sec).
        now = self._clock()
        self._start = now - float(counters.get("wall_time", 0.0))
        self._last_sample_time = now
        self._last_sample_placements = self.placements
        self._tenants = {
            str(tenant): {
                "placements": int(stats.get("placements", 0)),
                "removals": int(stats.get("removals", 0)),
                "bins": {
                    int(b): int(c)
                    for b, c in (stats.get("bins") or {}).items()
                },
            }
            for tenant, stats in (counters.get("tenants") or {}).items()
        }
        restored = counters.get("topology") or {}
        self._topology = {
            key: int(restored.get(key, 0)) for key in _TOPOLOGY_ZERO
        }
