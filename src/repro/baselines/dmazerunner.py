"""dMazeRunner-like directed search with utilisation thresholds (§V, Table V).

dMazeRunner prunes the mapping space with empirically-chosen minimum
utilisation thresholds: candidate tiles must fill at least a configured
fraction of the L1 and L2 buffers, and spatial unrollings must occupy at
least a fraction of the PE array.  Spatial reduction (unrolling a reduction
dimension) can be disallowed.  Two published configurations are exposed
(fast/aggressive and slow/conservative, paper Table V).

Two documented limitations are reproduced:

* the thresholds do not generalise — light layers that cannot fill 40-60 %
  of a large L2 yield **no valid mapping** (Fig. 7's "invalid" bars);
* symmetric-convolution assumption — workloads with unequal window extents
  (Inception's 1x7 / 3x1 layers) are rejected outright.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from ..arch.spec import Architecture
from ..core.scheduler import (
    SchedulerOptions,
    SchedulerStats,
    SunstoneScheduler,
    _State,
)
from ..core.tiling_tree import divisors
from ..core.unrolling import enumerate_unrollings, unroll_size
from ..sparse.spec import SparsitySpec
from ..workloads.expression import Workload
from .common import SearchResult, from_schedule


@dataclass(frozen=True)
class DMazeConfig:
    """Utilisation thresholds (paper Table V)."""

    l1_utilization: float = 0.8
    l2_utilization: float = 0.5
    pe_utilization: float = 0.8
    spatial_reduction_allowed: bool = False
    beam_width: int = 8
    max_tilings_per_state: int = 400
    objective: str = "edp"


DMAZE_FAST = DMazeConfig(
    l1_utilization=0.8, l2_utilization=0.5, pe_utilization=0.8,
    spatial_reduction_allowed=False,
)
DMAZE_SLOW = DMazeConfig(
    l1_utilization=0.6, l2_utilization=0.4, pe_utilization=0.8,
    spatial_reduction_allowed=True,
)


def _is_asymmetric_convolution(workload: Workload) -> bool:
    """dMazeRunner assumes convolutions are symmetric (R == S)."""
    window_sizes = []
    for tensor in workload.tensors:
        for expr in tensor.indices:
            if expr.is_window:
                inner = expr.dims[1:]
                window_sizes.extend(workload.dims[d] for d in inner)
    if len(window_sizes) < 2:
        return False
    return len(set(window_sizes)) > 1


class _DMazeSearch(SunstoneScheduler):
    """Level sweep with dMazeRunner's candidate generation.

    Tilings enumerate *all* dimensions (no Tiling Principle) but are
    filtered by minimum buffer utilisation; unrollings must meet the PE
    utilisation threshold and may exclude reduction dimensions.
    """

    def __init__(self, workload: Workload, arch: Architecture,
                 config: DMazeConfig, options, engine=None) -> None:
        super().__init__(workload, arch, options, engine=engine)
        self.config = config

    def _utilization(self, level_index: int, sizes: dict[str, int]) -> float:
        """Buffer fill fraction at a level: the words held over the summed
        capacity of the slots holding them, each slot counted once (1.0
        at an unbounded level or one that stores nothing)."""
        table = self._placement
        slots = table.slots[level_index]
        if not slots or slots[0].capacity is None:
            return 1.0
        used = sum(table.usage(level_index, sizes))
        return used / sum(slot.capacity for slot in slots)

    def _threshold_for(self, level_index: int) -> float:
        # Innermost bounded level plays the L1 role; the next one the L2
        # role; anything further up is unconstrained.
        bounded = [i for i, lvl in enumerate(self.arch.levels)
                   if lvl.capacity_words is not None]
        if not bounded:
            return 0.0
        if level_index == bounded[0]:
            return self.config.l1_utilization
        if len(bounded) > 1 and level_index == bounded[1]:
            return self.config.l2_utilization
        return 0.0

    def _children_bottom_up(self, state: _State, level: int, orderings,
                            stats: SchedulerStats) -> Iterator[tuple]:
        base = self._base_sizes(state, level)
        remaining = dict(state.frontier)
        fanout = self.arch.levels[level].fanout
        threshold = self._threshold_for(level)

        if self.config.spatial_reduction_allowed:
            unroll_dims = self.workload.dim_names
        else:
            output_dims: set[str] = set()
            for tensor in self.workload.outputs:
                output_dims |= set(tensor.indexing_dims)
            unroll_dims = tuple(d for d in self.workload.dim_names
                                if d in output_dims)

        def admitted_tilings() -> Iterator[dict[str, int]]:
            """The raw divisor grid in row-major order, every tile
            counted, kept inside the buffer-utilisation band; the grid
            is not pulled past the ``max_tilings_per_state``-th admitted
            tile, so node accounting matches the historical break."""
            dims = [d for d in self.workload.dim_names
                    if remaining.get(d, 1) > 1]
            admitted = 0
            for combo in itertools.product(*(divisors(remaining[d])
                                             for d in dims)):
                if admitted >= self.config.max_tilings_per_state:
                    return
                tiling = {d: f for d, f in zip(dims, combo) if f > 1}
                stats.tiling.nodes_visited += 1
                sizes = {
                    d: base.get(d, 1) * tiling.get(d, 1)
                    for d in self.workload.dims
                }
                if threshold <= self._utilization(level, sizes) <= 1.0:
                    admitted += 1
                    yield tiling

        def unrolls_for(tiling: dict[str, int]) -> list[dict[str, int]]:
            rem_after = {
                d: remaining[d] // tiling.get(d, 1) for d in remaining
            }
            unrolls = enumerate_unrollings(
                self.workload, fanout, rem_after, unroll_dims,
                stats=stats.unrolling,
                utilization_threshold=self.config.pe_utilization,
                max_unrolled_dims=2,
            )
            # The PE-utilisation floor (vacuous without a fanout).
            floor = self.config.pe_utilization * fanout
            return [u for u in unrolls
                    if fanout <= 1 or unroll_size(u) >= floor]

        return (
            (order, tiling, unroll)
            for tiling in admitted_tilings()
            for unroll in unrolls_for(tiling)
            for order in orderings
        )


def dmazerunner_search(
    workload: Workload,
    arch: Architecture,
    config: DMazeConfig = DMAZE_FAST,
    partial_reuse: bool = True,
    engine=None,
    cache: bool = True,
    sparsity: SparsitySpec | None = None,
    cache_size: int | None = None,
    shard: tuple[int, int] | None = None,
) -> SearchResult:
    """Run the dMazeRunner-like search.

    Found results carry the scheduler's optimality certificate.
    """
    if _is_asymmetric_convolution(workload):
        return SearchResult(
            mapper="dmazerunner-like",
            mapping=None,
            cost=None,
            invalid_reason="asymmetric convolution not supported",
        )
    # dMazeRunner has no alpha-beta; rank candidates purely by estimate and
    # keep a beam for tractability.
    options = SchedulerOptions(
        alpha_beta=False,
        beam_width=config.beam_width,
        objective=config.objective,
        partial_reuse=partial_reuse,
        cache=cache,
        sparsity=sparsity,
        cache_size=cache_size,
        shard=shard,
    )
    search = _DMazeSearch(workload, arch, config, options, engine=engine)
    return from_schedule("dmazerunner-like", search.schedule(),
                         invalid_reason="no mapping meets the minimum "
                                        "utilization constraints")
