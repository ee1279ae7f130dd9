"""The frozen ``Topology`` record: zone → rack → bin trees with edge costs.

Real deployments do not probe a flat bin array: bins live in racks inside
zones, and a probe (or a ball transfer) that crosses a rack or zone
boundary costs more than a local one.  A :class:`Topology` freezes that
tree once — per-zone rack sizes, bins numbered contiguously zone by zone
and rack by rack — plus two cost tables keyed by the *relation* of a bin
to the caller's home rack/zone:

``"rack"``
    the bin shares the caller's rack (the cheapest edge),
``"zone"``
    same zone, different rack,
``"cross"``
    a different zone (the expensive edge).

Costs are monotone (``rack <= zone <= cross``) and purely observational:
they never perturb a scheme's random stream, so :meth:`Topology.flat`
(one zone, one rack, zero cost) reproduces the flat schemes' results
bit for bit — the parity the acceptance pins lock down.

The JSON contract (``format="repro-topology"``, ``version=1``) round-trips
through :meth:`Topology.to_dict` / :meth:`Topology.from_dict`, and the
named layout registry (:data:`TOPOLOGY_LAYOUTS`) provides bin-count
independent templates the CLI's ``--topology`` flag resolves by name.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "TOPOLOGY_FORMAT",
    "TOPOLOGY_VERSION",
    "TopologyError",
    "Topology",
    "TopologyLayout",
    "TOPOLOGY_LAYOUTS",
    "as_topology",
    "load_topology",
    "save_topology",
    "topology_registry_dump",
    "zone_counter_extra",
]

TOPOLOGY_FORMAT = "repro-topology"
TOPOLOGY_VERSION = 1

#: The three relations a probed/target bin can have to the caller's home.
RELATIONS = ("rack", "zone", "cross")

#: Default edge costs for the non-trivial named layouts (arbitrary units;
#: only ratios matter).  Probing across a zone is modelled as 4x a
#: same-zone hop; moving a ball costs twice what probing does.
DEFAULT_PROBE_COSTS: Dict[str, float] = {"rack": 0.0, "zone": 1.0, "cross": 4.0}
DEFAULT_TRANSFER_COSTS: Dict[str, float] = {"rack": 0.0, "zone": 2.0, "cross": 8.0}

ZERO_COSTS: Dict[str, float] = {"rack": 0.0, "zone": 0.0, "cross": 0.0}


class TopologyError(ValueError):
    """Raised for malformed topology trees, costs or JSON documents."""


def _validate_costs(label: str, costs: Mapping[str, float]) -> Dict[str, float]:
    if set(costs) != set(RELATIONS):
        raise TopologyError(
            f"{label} must map exactly the relations {RELATIONS}, "
            f"got {sorted(costs)}"
        )
    normalized = {}
    for relation in RELATIONS:
        value = float(costs[relation])
        if not np.isfinite(value) or value < 0.0:
            raise TopologyError(
                f"{label}[{relation!r}] must be a finite non-negative "
                f"number, got {costs[relation]!r}"
            )
        normalized[relation] = value
    if not normalized["rack"] <= normalized["zone"] <= normalized["cross"]:
        raise TopologyError(
            f"{label} must be monotone (rack <= zone <= cross), got "
            f"rack={normalized['rack']:g}, zone={normalized['zone']:g}, "
            f"cross={normalized['cross']:g}"
        )
    return normalized


@dataclass(frozen=True)
class Topology:
    """A frozen zone → rack → bin tree with per-edge probe/transfer costs.

    ``zones[z][r]`` is the bin count of rack ``r`` in zone ``z``; bins are
    numbered contiguously zone by zone, rack by rack, so zone/rack
    membership is a pure function of the bin index.  The derived lookup
    arrays (``bin_zone``, ``bin_rack``, the rack/zone boundary vectors)
    are computed once at construction and shared read-only.

    The *home* of ball ``i`` interleaves round-robin over zones (zone
    ``i % n_zones``) and then round-robin over that zone's racks — a pure
    function of the ball index, so every surface (steppers, the scalar
    references, the event drivers) attributes the same ball to the same
    home without coordination.
    """

    name: str
    zones: Tuple[Tuple[int, ...], ...]
    probe_costs: Dict[str, float] = field(default_factory=lambda: dict(ZERO_COSTS))
    transfer_costs: Dict[str, float] = field(default_factory=lambda: dict(ZERO_COSTS))

    def __post_init__(self) -> None:
        zones = tuple(
            tuple(int(size) for size in zone) for zone in self.zones
        )
        if not zones:
            raise TopologyError("a topology needs at least one zone")
        for z, zone in enumerate(zones):
            if not zone:
                raise TopologyError(f"zone {z} has no racks")
            for r, size in enumerate(zone):
                if size <= 0:
                    raise TopologyError(
                        f"rack {r} of zone {z} must hold at least one bin, "
                        f"got {size}"
                    )
        object.__setattr__(self, "zones", zones)
        object.__setattr__(
            self, "probe_costs", _validate_costs("probe_costs", self.probe_costs)
        )
        object.__setattr__(
            self,
            "transfer_costs",
            _validate_costs("transfer_costs", self.transfer_costs),
        )

        rack_sizes = np.asarray(
            [size for zone in zones for size in zone], dtype=np.int64
        )
        rack_zone = np.asarray(
            [z for z, zone in enumerate(zones) for _ in zone], dtype=np.int64
        )
        rack_starts = np.concatenate(
            ([0], np.cumsum(rack_sizes))
        ).astype(np.int64)
        zone_sizes = np.asarray([sum(zone) for zone in zones], dtype=np.int64)
        zone_starts = np.concatenate(
            ([0], np.cumsum(zone_sizes))
        ).astype(np.int64)
        zone_rack_count = np.asarray([len(zone) for zone in zones], dtype=np.int64)
        zone_rack_start = np.concatenate(
            ([0], np.cumsum(zone_rack_count))
        )[:-1].astype(np.int64)
        n_racks = int(len(rack_sizes))
        object.__setattr__(self, "rack_sizes", rack_sizes)
        object.__setattr__(self, "rack_zone", rack_zone)
        object.__setattr__(self, "rack_starts", rack_starts)
        object.__setattr__(self, "zone_sizes", zone_sizes)
        object.__setattr__(self, "zone_starts", zone_starts)
        object.__setattr__(self, "zone_rack_count", zone_rack_count)
        object.__setattr__(self, "zone_rack_start", zone_rack_start)
        object.__setattr__(
            self, "bin_zone", np.repeat(rack_zone, rack_sizes)
        )
        object.__setattr__(
            self, "bin_rack", np.repeat(np.arange(n_racks), rack_sizes)
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_zones(self) -> int:
        return len(self.zones)

    @property
    def n_racks(self) -> int:
        return int(self.rack_sizes.size)

    @property
    def n_bins(self) -> int:
        return int(self.rack_sizes.sum())

    @property
    def is_flat(self) -> bool:
        """One zone, one rack: the paper's undifferentiated bin array."""
        return self.n_zones == 1 and self.n_racks == 1

    @property
    def zero_cost(self) -> bool:
        return not any(self.probe_costs.values()) and not any(
            self.transfer_costs.values()
        )

    # ------------------------------------------------------------------
    # Home assignment (pure functions of the ball index)
    # ------------------------------------------------------------------
    def home_zone(self, ball_index: int) -> int:
        return int(ball_index) % self.n_zones

    def home_rack(self, ball_index: int) -> int:
        """The global rack id of ball ``ball_index``'s home rack."""
        zone = int(ball_index) % self.n_zones
        within = (int(ball_index) // self.n_zones) % int(
            self.zone_rack_count[zone]
        )
        return int(self.zone_rack_start[zone]) + within

    def home_zones(self, ball_indices: np.ndarray) -> np.ndarray:
        return ball_indices % self.n_zones

    def home_racks(self, ball_indices: np.ndarray) -> np.ndarray:
        zones = ball_indices % self.n_zones
        within = (ball_indices // self.n_zones) % self.zone_rack_count[zones]
        return self.zone_rack_start[zones] + within

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def grid(
        cls,
        n_bins: int,
        zones: int,
        racks_per_zone: int = 1,
        name: Optional[str] = None,
        probe_costs: Optional[Mapping[str, float]] = None,
        transfer_costs: Optional[Mapping[str, float]] = None,
    ) -> "Topology":
        """A regular ``zones x racks_per_zone`` grid over ``n_bins`` bins.

        Rack boundaries are the *global* ``linspace(0, n_bins, n_racks+1)``
        split — the exact group boundaries Always-Go-Left draws its ``d``
        probes from — so a grid whose total rack count equals ``d``
        reproduces the flat scheme's probe ranges bin for bin.
        """
        if zones < 1 or racks_per_zone < 1:
            raise TopologyError(
                f"need at least one zone and one rack per zone, got "
                f"zones={zones}, racks_per_zone={racks_per_zone}"
            )
        n_racks = zones * racks_per_zone
        if n_bins < n_racks:
            raise TopologyError(
                f"need n_bins >= {n_racks} racks, got n_bins={n_bins}"
            )
        boundaries = np.linspace(0, n_bins, n_racks + 1).astype(np.int64)
        sizes = np.diff(boundaries)
        zone_tuple = tuple(
            tuple(int(s) for s in sizes[z * racks_per_zone:(z + 1) * racks_per_zone])
            for z in range(zones)
        )
        return cls(
            name=name or f"grid-{zones}x{racks_per_zone}",
            zones=zone_tuple,
            probe_costs=dict(
                DEFAULT_PROBE_COSTS if probe_costs is None else probe_costs
            ),
            transfer_costs=dict(
                DEFAULT_TRANSFER_COSTS if transfer_costs is None else transfer_costs
            ),
        )

    @classmethod
    def flat(cls, n_bins: int) -> "Topology":
        """One zone, one rack, zero cost: the paper's flat bin array."""
        return cls.grid(
            n_bins, 1, 1, name="flat",
            probe_costs=ZERO_COSTS, transfer_costs=ZERO_COSTS,
        )

    # ------------------------------------------------------------------
    # JSON round-trip (format "repro-topology", version 1)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": TOPOLOGY_FORMAT,
            "version": TOPOLOGY_VERSION,
            "name": self.name,
            "zones": [list(zone) for zone in self.zones],
            "probe_costs": dict(self.probe_costs),
            "transfer_costs": dict(self.transfer_costs),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Topology":
        if payload.get("format") != TOPOLOGY_FORMAT:
            raise TopologyError(
                f"not a {TOPOLOGY_FORMAT} document "
                f"(format={payload.get('format')!r})"
            )
        if payload.get("version") != TOPOLOGY_VERSION:
            raise TopologyError(
                f"topology version {payload.get('version')!r} is not "
                f"supported (this build reads version {TOPOLOGY_VERSION})"
            )
        zones = payload.get("zones")
        if not isinstance(zones, (list, tuple)):
            raise TopologyError("topology document is missing its zones tree")
        return cls(
            name=str(payload.get("name") or "custom"),
            zones=tuple(tuple(zone) for zone in zones),
            probe_costs=dict(payload.get("probe_costs") or ZERO_COSTS),
            transfer_costs=dict(payload.get("transfer_costs") or ZERO_COSTS),
        )


def save_topology(path: "str | os.PathLike[str]", topology: Topology) -> None:
    """Write a topology document as canonical JSON (byte-stable)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(topology.to_dict(), handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_topology(path: "str | os.PathLike[str]") -> Topology:
    """Read and validate a topology document from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TopologyError(
                f"{os.fspath(path)}: invalid JSON ({exc.msg} at line "
                f"{exc.lineno})"
            ) from None
    if not isinstance(payload, dict):
        raise TopologyError(
            f"{os.fspath(path)}: not a topology document "
            f"(got {type(payload).__name__})"
        )
    return Topology.from_dict(payload)


# ----------------------------------------------------------------------
# Named layouts: bin-count independent templates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TopologyLayout:
    """A named, ``n_bins``-independent topology template.

    ``bind(n_bins)`` materializes the layout as a :class:`Topology.grid`
    over a concrete bin count — how the CLI's ``--topology NAME`` flag and
    the ``topology_aware`` workload derive a tree from the spec's
    ``n_bins`` without baking a bin count into the registry.
    """

    name: str
    zones: int
    racks_per_zone: int
    probe_costs: Dict[str, float]
    transfer_costs: Dict[str, float]
    summary: str

    def bind(self, n_bins: int) -> Topology:
        return Topology.grid(
            n_bins,
            self.zones,
            self.racks_per_zone,
            name=self.name,
            probe_costs=self.probe_costs,
            transfer_costs=self.transfer_costs,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "zones": self.zones,
            "racks_per_zone": self.racks_per_zone,
            "probe_costs": dict(self.probe_costs),
            "transfer_costs": dict(self.transfer_costs),
            "summary": self.summary,
        }


TOPOLOGY_LAYOUTS: Dict[str, TopologyLayout] = {
    layout.name: layout
    for layout in (
        TopologyLayout(
            name="flat",
            zones=1,
            racks_per_zone=1,
            probe_costs=dict(ZERO_COSTS),
            transfer_costs=dict(ZERO_COSTS),
            summary="one zone, one rack, zero cost — the paper's flat array",
        ),
        TopologyLayout(
            name="dual_zone",
            zones=2,
            racks_per_zone=1,
            probe_costs=dict(DEFAULT_PROBE_COSTS),
            transfer_costs=dict(DEFAULT_TRANSFER_COSTS),
            summary="two zones of one rack each (the minimal cross-zone split)",
        ),
        TopologyLayout(
            name="quad_rack",
            zones=2,
            racks_per_zone=2,
            probe_costs=dict(DEFAULT_PROBE_COSTS),
            transfer_costs=dict(DEFAULT_TRANSFER_COSTS),
            summary="two zones x two racks (four go-left groups)",
        ),
        TopologyLayout(
            name="wide",
            zones=4,
            racks_per_zone=2,
            probe_costs=dict(DEFAULT_PROBE_COSTS),
            transfer_costs=dict(DEFAULT_TRANSFER_COSTS),
            summary="four zones x two racks (datacenter-shaped fan-out)",
        ),
    )
}


def as_topology(value: Any, n_bins: int) -> Topology:
    """Resolve any accepted ``topology=`` parameter spelling.

    ``None`` means the flat default; a string names a registered layout
    (bound to ``n_bins``); a mapping is a :meth:`Topology.from_dict`
    document (its bin total must match); a :class:`Topology` passes
    through after the same bin check.
    """
    if value is None:
        return Topology.flat(n_bins)
    if isinstance(value, Topology):
        topology = value
    elif isinstance(value, str):
        layout = TOPOLOGY_LAYOUTS.get(value)
        if layout is None:
            raise TopologyError(
                f"unknown topology layout {value!r}; choose from "
                f"{sorted(TOPOLOGY_LAYOUTS)} or pass a topology document"
            )
        return layout.bind(n_bins)
    elif isinstance(value, Mapping):
        topology = Topology.from_dict(value)
    else:
        raise TopologyError(
            f"topology must be None, a layout name, a topology document or "
            f"a Topology, got {type(value).__name__}"
        )
    if topology.n_bins != int(n_bins):
        raise TopologyError(
            f"topology {topology.name!r} covers {topology.n_bins} bins but "
            f"the spec has n_bins={n_bins}"
        )
    return topology


def topology_registry_dump() -> Dict[str, Any]:
    """The layout registry as one JSON document (the CLI's ``--json``)."""
    return {
        "format": "repro-topology-registry",
        "version": 1,
        "count": len(TOPOLOGY_LAYOUTS),
        "layouts": {
            name: TOPOLOGY_LAYOUTS[name].to_dict()
            for name in sorted(TOPOLOGY_LAYOUTS)
        },
    }


# ----------------------------------------------------------------------
# Shared result decoration
# ----------------------------------------------------------------------
def zone_counter_extra(
    topology: Topology, counters: Mapping[str, int]
) -> Dict[str, Any]:
    """Decorate zone counters with fractions and modelled costs.

    ``counters`` carries ``{rack,zone,cross}_probes`` and
    ``{rack,zone,cross}_places``; every engine (and the test oracles)
    reports its results through this one helper so the ``extra``
    payloads cannot drift.
    """
    probes = {r: int(counters[f"{r}_probes"]) for r in RELATIONS}
    places = {r: int(counters[f"{r}_places"]) for r in RELATIONS}
    total_probes = sum(probes.values())
    total_places = sum(places.values())
    return {
        **{f"{r}_probes": probes[r] for r in RELATIONS},
        **{f"{r}_places": places[r] for r in RELATIONS},
        "cross_probe_fraction": (
            probes["cross"] / total_probes if total_probes else 0.0
        ),
        "cross_place_fraction": (
            places["cross"] / total_places if total_places else 0.0
        ),
        "probe_cost": float(
            sum(probes[r] * topology.probe_costs[r] for r in RELATIONS)
        ),
        "transfer_cost": float(
            sum(places[r] * topology.transfer_costs[r] for r in RELATIONS)
        ),
        "topology": topology.name,
    }
