"""Reconfigurable-fabric abstraction: partitions, logic cells, damage, and
differently-routed configuration variants. A variant is its footprint: the
set of cells it occupies, which the trace names by index. Every partition,
the shared region included, has the same variants.

Two damage flavors exist. True silicon damage ("dd") is permanent and can
only be routed around; corrupt configuration memory ("config") behaves
the same until the partition is rewritten, which any reconfiguration does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

DD = "dd"
CONFIG = "config"

SHARED = "shared"


# logic cells in every partition, the shared region included
CELLS = 64

# three variants over distinct thirds of the cells, plus anchor cell 0,
# which every variant occupies
VARIANTS = [frozenset(range(1 + i * (CELLS // 3), 1 + (i + 1) * (CELLS // 3))) | {0}
            for i in range(3)]


@dataclass
class Partition:
    partition_id: str
    hosted_tile: Optional[str] = None
    active_variant: int = 0


def free_partition_ids(count: int) -> list[str]:
    """Ids of the `count` extra partitions, which host no tile at boot."""
    return [f"free{i}" for i in range(count)]


def reserved_partition_id(partition_id: str, extra_partitions: int) -> bool:
    """Whether the fabric itself names a partition `partition_id`: the shared
    region, or one of `free_partition_ids(extra_partitions)`."""
    free = re.fullmatch(r"free(0|[1-9][0-9]*)", partition_id)
    return partition_id == SHARED or (free is not None and int(free[1]) < extra_partitions)


class Fabric:
    def __init__(self, partitions: list[Partition]):
        self.partitions = {p.partition_id: p for p in partitions}
        if len(self.partitions) != len(partitions):
            raise ValueError("duplicate partition ids")
        self.shared = Partition(SHARED)
        # (partition_id, cell) -> flavor; dd entries never leave this map
        self.damage: dict[tuple[str, int], str] = {}

    # -- damage bookkeeping -------------------------------------------------

    def add_damage(self, partition_id: str, cell: int, flavor: str = DD):
        self._part(partition_id)    # raises KeyError for an unknown partition
        if not 0 <= cell < CELLS:
            raise ValueError(f"cell {cell} outside partition {partition_id}")
        key = (partition_id, cell)
        # dd dominates: permanent damage is never downgraded
        if self.damage.get(key) != DD:
            self.damage[key] = flavor

    def damaged_cells(self, partition_id: str) -> set[int]:
        return {c for (p, c) in self.damage if p == partition_id}

    def dd_cells(self, partition_id: str) -> set[int]:
        return {c for (p, c), fl in self.damage.items() if p == partition_id and fl == DD}

    def _part(self, partition_id: str) -> Partition:
        if partition_id == SHARED:
            return self.shared
        return self.partitions[partition_id]

    # -- reconfiguration ----------------------------------------------------

    def footprint_overlap(self, partition_id: str, variant_index: int) -> set[int]:
        return self.damaged_cells(partition_id) & VARIANTS[variant_index]

    def partial_reconfigure(self, partition_id: str, variant_index: int) -> bool:
        """Rewrite one partition with the given variant.

        Rewriting clears corrupt configuration memory as a side effect;
        success then depends on the variant's footprint avoiding permanent
        damage. Returns True on success, False on a fabric fault.
        """
        part = self._part(partition_id)
        for key in [k for k, fl in self.damage.items() if k[0] == partition_id and fl == CONFIG]:
            del self.damage[key]
        if VARIANTS[variant_index] & self.dd_cells(partition_id):
            return False
        part.active_variant = variant_index
        return True

    def validate_partition(self, partition_id: str) -> tuple[bool, set[int]]:
        """Boot-time and post-reconfiguration check of the active variant;
        failure returns the offending cells."""
        part = self._part(partition_id)
        overlap = self.footprint_overlap(partition_id, part.active_variant)
        return (not overlap, overlap)

    def viable_variants(self, partition_id: str) -> list[int]:
        """Variant indices whose footprints avoid all permanent damage."""
        dd = self.dd_cells(partition_id)
        return [i for i, v in enumerate(VARIANTS) if not (v & dd)]

    def free_partitions(self) -> list[str]:
        return sorted(p.partition_id for p in self.partitions.values() if p.hosted_tile is None)

    def rebind(self, tile_id: str, new_partition: str):
        for p in self.partitions.values():
            if p.hosted_tile == tile_id:
                p.hosted_tile = None
        self.partitions[new_partition].hosted_tile = tile_id
