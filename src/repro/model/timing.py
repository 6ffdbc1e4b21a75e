"""Double-buffered pipeline latency model.

The simple latency estimate in :mod:`repro.model.cost` takes the maximum of
the compute-bound and per-level bandwidth-bound cycle counts — the
steady-state limit when double buffering hides every transfer perfectly
(the assumption the paper adopts from Timeloop, §V-A).

This module adds a *refined* recursive model that accounts for the pipeline
fill: a level's pass cannot start before its first tile arrives, so

``T(level) = fill(first tile) + (passes - 1) * max(T(below), refill) +
T(below_last)``

per level, composed bottom-up.  It brackets reality more tightly:

* it equals the simple model when transfers are fully hidden;
* it exceeds it by the (usually negligible) pipeline-fill term otherwise;
* it never exceeds the no-overlap upper bound (compute + all transfers
  serialised).

Tests assert those bracket properties; the scheduler can optionally rank by
the refined number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..mapping.mapping import Mapping
from ..mapping.placement import placement_table
from .accesses import AccessCounts, count_accesses


@dataclass
class TimingResult:
    """Latency decomposition of one mapping."""

    steady_state_cycles: float  # the simple max-of-bounds estimate
    refined_cycles: float  # with pipeline-fill terms
    serialized_cycles: float  # no-overlap upper bound
    compute_cycles: float
    per_level_transfer_cycles: dict[str, float]

    @property
    def overlap_efficiency(self) -> float:
        """1.0 = perfect double buffering, lower = fill-dominated."""
        if self.refined_cycles == 0:
            return 1.0
        return self.steady_state_cycles / self.refined_cycles


def analyze_timing(mapping: Mapping, partial_reuse: bool = True,
                   counts: AccessCounts | None = None) -> TimingResult:
    """Compute the latency bracket for ``mapping``."""
    arch = mapping.arch
    if counts is None:
        counts = count_accesses(mapping, partial_reuse=partial_reuse)

    used_lanes = mapping.used_lanes() * arch.mac_width
    compute_cycles = counts.total_ops / max(used_lanes, 1)

    transfer_cycles: dict[str, float] = {}
    steady = compute_cycles
    serialized = compute_cycles
    for i, level in enumerate(arch.levels):
        instances = math.prod(
            mapping.levels[j].spatial_size for j in range(i, arch.num_levels)
        ) or 1
        acc = counts.levels[i]
        cycles = max(acc.reads / instances / level.read_bandwidth,
                     acc.writes / instances / level.write_bandwidth)
        transfer_cycles[level.name] = cycles
        steady = max(steady, cycles)
        serialized += cycles

    # Pipeline fill: the first tile of every level must arrive before any
    # compute below it can start.  The fill of level i's first tile moves
    # footprint-at-(i-1) words through level i's read port.
    table = placement_table(mapping.workload, arch)
    fill = 0.0
    for i in range(1, arch.num_levels):
        first_tile = table.usage(i, mapping.cumulative_sizes(i - 1))
        fill += sum(first_tile) / arch.levels[i].read_bandwidth

    refined = min(steady + fill, serialized)
    return TimingResult(
        steady_state_cycles=steady,
        refined_cycles=refined,
        serialized_cycles=serialized,
        compute_cycles=compute_cycles,
        per_level_transfer_cycles=transfer_cycles,
    )
