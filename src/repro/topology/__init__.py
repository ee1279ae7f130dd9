"""Rack/zone topologies with cross-zone probe costs.

The :class:`~repro.topology.records.Topology` record freezes a
zone → rack → bin tree plus per-edge probe/transfer costs;
:mod:`repro.topology.schemes` holds the helpers of the topology-aware
kernels (``hierarchical_always_go_left``, ``locality_two_choice``)
registered in :mod:`repro.core.kernels.table`.
"""

from .records import (
    DEFAULT_PROBE_COSTS,
    DEFAULT_TRANSFER_COSTS,
    TOPOLOGY_FORMAT,
    TOPOLOGY_LAYOUTS,
    TOPOLOGY_VERSION,
    Topology,
    TopologyError,
    TopologyLayout,
    as_topology,
    load_topology,
    save_topology,
    topology_registry_dump,
    zone_counter_extra,
)
from .schemes import (
    ZoneCounters,
    local_probe_slots,
    locality_select,
)

__all__ = [
    "DEFAULT_PROBE_COSTS",
    "DEFAULT_TRANSFER_COSTS",
    "TOPOLOGY_FORMAT",
    "TOPOLOGY_LAYOUTS",
    "TOPOLOGY_VERSION",
    "Topology",
    "TopologyError",
    "TopologyLayout",
    "ZoneCounters",
    "as_topology",
    "load_topology",
    "local_probe_slots",
    "locality_select",
    "save_topology",
    "topology_registry_dump",
    "zone_counter_extra",
]
