"""Interstellar-like mapper: preset CK spatial unrolling (§V, "INTER").

Interstellar restricts spatial unrolling to the input- and output-channel
dimensions (C and K) as prescribed in the paper, falling back to other
dimensions only when CK cannot fully utilise the PE grid.  Tiling considers
all dimensions, pruned by a high-throughput requirement.  The restriction
shrinks the search space dramatically but sometimes excludes better
mappings (e.g. it may reuse the output both temporally and spatially,
against the Unrolling Principle) — reproduced here by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterator

from ..arch.spec import Architecture
from ..core.scheduler import (
    SchedulerOptions,
    SchedulerStats,
    SunstoneScheduler,
    _State,
)
from ..core.tiling_tree import enumerate_tilings
from ..core.unrolling import unroll_candidates
from ..sparse.spec import SparsitySpec
from ..workloads.expression import Workload
from .common import SearchResult, from_schedule


@dataclass(frozen=True)
class InterstellarConfig:
    """Interstellar's (fixed) strategy knobs."""

    preferred_spatial_dims: tuple[str, ...] = ("C", "K")
    full_utilization: float = 1.0  # CK must fully utilise the grid, else relax
    beam_width: int = 32
    objective: str = "edp"


class _InterstellarSearch(SunstoneScheduler):
    """Level sweep with CK-preset unrolling and all-dims tiling growth."""

    def __init__(self, workload: Workload, arch: Architecture,
                 config: InterstellarConfig, options: SchedulerOptions,
                 engine=None) -> None:
        super().__init__(workload, arch, options, engine=engine)
        self.config = config
        # The all-dimension tiling tree of a (level, base, remaining)
        # and the unroll list of a (level, residual) do not depend on
        # the ordering: each is built once per search.
        self._tilings_memo: dict = {}
        self._unrolls_memo: dict = {}

    def _children_bottom_up(self, state: _State, level: int, orderings,
                            stats: SchedulerStats) -> Iterator[tuple]:
        base = self._base_sizes(state, level)
        remaining = dict(state.frontier)
        fanout = self.arch.levels[level].fanout
        tree_key = (level, tuple(sorted(base.items())),
                    tuple(sorted(remaining.items())))

        preferred = tuple(
            d for d in self.config.preferred_spatial_dims
            if d in self.workload.dims
        )

        def tilings() -> list[dict[str, int]]:
            # Interstellar tiles over every dimension (no Tiling
            # Principle), with its tiling tree counted once per ordering.
            return _replayed(
                self._tilings_memo, tree_key, stats.tiling,
                lambda delta: enumerate_tilings(
                    self.workload, self.arch, level, base, remaining,
                    self.workload.dim_names, stats=delta))

        def unrolls_for(tiling: dict[str, int]) -> list[dict[str, int]]:
            rem_after = {
                d: remaining[d] // tiling.get(d, 1) for d in remaining
            }
            # Preset CK unrolling with the "replace" fallback: when CK
            # cannot fill the grid, allow the other dimensions.
            return _replayed(
                self._unrolls_memo, (level, tuple(sorted(rem_after.items()))),
                stats.unrolling,
                lambda delta: unroll_candidates(
                    self.workload, fanout, rem_after, preferred,
                    utilization_threshold=1.0,
                    fallback="replace",
                    stats=delta,
                ))

        return (
            (order, tiling, unroll)
            for order in orderings
            for tiling in tilings()
            for unroll in unrolls_for(tiling)
        )


def _replayed(memo: dict, key, counters, build: Callable) -> list:
    """``build``'s result for ``key``, built once per ``memo``.

    The first call passes ``build`` a fresh counter record of
    ``counters``' type and keeps what it counted; every call adds that
    record to ``counters``, so they read as if each call had built its
    own result."""
    entry = memo.get(key)
    if entry is None:
        delta = type(counters)()
        entry = memo[key] = (build(delta), delta)
    result, delta = entry
    for f in fields(delta):
        setattr(counters, f.name,
                getattr(counters, f.name) + getattr(delta, f.name))
    return result


def interstellar_search(
    workload: Workload,
    arch: Architecture,
    config: InterstellarConfig = InterstellarConfig(),
    partial_reuse: bool = True,
    engine=None,
    cache: bool = True,
    sparsity: SparsitySpec | None = None,
    cache_size: int | None = None,
    shard: tuple[int, int] | None = None,
) -> SearchResult:
    """Run the Interstellar-like search.

    Found results carry the scheduler's optimality certificate.
    """
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
    search = _InterstellarSearch(workload, arch, config, options,
                                 engine=engine)
    return from_schedule("interstellar-like", search.schedule(),
                         invalid_reason="no mapping can use the preset "
                                        "unrolling")
