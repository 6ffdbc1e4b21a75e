"""Tile spaces: per-level temporal factor candidates.

Three declarative forms cover every tiling strategy in the repo:

* :class:`TileSpace` — the Tiling-Principle tree of maximal fitting
  tiles (:func:`repro.core.tiling_tree.enumerate_tilings`), with the
  footprint-corner cap policy Sunstone's bottom-up sweep applies when
  the frontier is wide;
* :class:`ExhaustiveTileSpace` — every fitting divisor combination
  (:func:`repro.core.tiling_tree.enumerate_all_tilings`), used by the
  top-down sweep where maximality pruning is unsound;
* :class:`DivisorGridSpace` — the raw, unfiltered divisor grid, which
  baselines constrain with their own pruning passes (dMazeRunner's
  utilisation band).

All three yield per-dimension multiplier dicts in a deterministic
order.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Sequence

from ..arch.spec import Architecture
from ..core.tiling_tree import (
    TilingStats,
    divisors,
    enumerate_all_tilings,
    enumerate_tilings,
)
from ..mapping.placement import PlacementTable, placement_table
from ..workloads.expression import Workload
from .spaces import LazySpace, Space


def cap_tilings_by_footprint(
    tilings: list[dict[str, int]],
    cap: int,
    table: PlacementTable,
    base: Mapping[str, int],
    growth: Sequence[str],
) -> list[dict[str, int]]:
    """Keep at most ``cap`` tiles: the *corners* of the maximal frontier
    (per growth dimension, the fattest and leanest max-``d`` tiles) are
    admitted first, then the largest footprints (summed over every
    tensor of ``table``'s workload) fill the budget.  The corners
    preserve e.g. the P-heavy tile that best exploits sliding-window
    overlap; the footprint fill keeps the most temporal reuse."""
    dims = table.workload.dims
    indices = range(len(table.workload.tensors))

    def footprint(tiling: dict[str, int]) -> int:
        sizes = {d: base.get(d, 1) * tiling.get(d, 1) for d in dims}
        return sum(table.footprint(i, sizes) for i in indices)

    chosen: list[dict[str, int]] = []
    chosen_keys: set = set()

    def admit(tiling: dict[str, int]) -> None:
        key = tuple(sorted(tiling.items()))
        if key not in chosen_keys:
            chosen_keys.add(key)
            chosen.append(tiling)

    for dim in growth:
        admit(max(tilings,
                  key=lambda t: (t.get(dim, 1), footprint(t))))
        admit(max(tilings,
                  key=lambda t: (t.get(dim, 1), -footprint(t))))
    for tiling in sorted(tilings, key=footprint, reverse=True):
        if len(chosen) >= cap:
            break
        admit(tiling)
    return chosen


class TileSpace(LazySpace):
    """Maximal tiles per the Tiling Principle, optionally capped to the
    frontier's corners plus the largest footprints."""

    def __init__(
        self,
        workload: Workload,
        arch: Architecture,
        level: int,
        base: Mapping[str, int],
        remaining: Mapping[str, int],
        growth: Sequence[str],
        cap: int | None = None,
        stats: TilingStats | None = None,
    ) -> None:
        self.workload = workload
        self.growth = tuple(growth)

        def build() -> list[dict[str, int]]:
            tilings = enumerate_tilings(
                workload, arch, level, base, remaining, self.growth,
                stats=stats,
            )
            if cap is not None and len(tilings) > cap:
                tilings = cap_tilings_by_footprint(
                    tilings, cap, placement_table(workload, arch), base,
                    self.growth)
            return tilings

        super().__init__(build)


class ExhaustiveTileSpace(LazySpace):
    """Every fitting divisor combination (no maximality pruning)."""

    def __init__(
        self,
        workload: Workload,
        arch: Architecture,
        level: int,
        base: Mapping[str, int],
        remaining: Mapping[str, int],
        dims: Sequence[str] | None = None,
        stats: TilingStats | None = None,
    ) -> None:
        super().__init__(lambda: enumerate_all_tilings(
            workload, arch, level, base, remaining,
            stats=stats, dims=dims,
        ))


class DivisorGridSpace(Space):
    """The raw divisor grid: every combination of per-dimension divisor
    multipliers of ``remaining``, unfiltered, in row-major
    :func:`itertools.product` order over ``dims``.  Trivial factors are
    omitted from the yielded dicts."""

    def __init__(self, remaining: Mapping[str, int],
                 dims: Sequence[str]) -> None:
        self.dims = tuple(d for d in dims if remaining.get(d, 1) > 1)
        self.remaining = {d: remaining[d] for d in self.dims}

    def size(self) -> int:
        total = 1
        for d in self.dims:
            total *= len(divisors(self.remaining[d]))
        return total

    def _generate(self) -> Iterator[dict[str, int]]:
        choice_lists = [divisors(self.remaining[d]) for d in self.dims]
        for combo in itertools.product(*choice_lists):
            yield {d: f for d, f in zip(self.dims, combo) if f > 1}
