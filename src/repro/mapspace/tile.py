"""The tile cap of Sunstone's bottom-up sweep.

The sweeps take their tile candidates straight from
:mod:`repro.core.tiling_tree` (the Tiling-Principle tree of maximal
fitting tiles, or every fitting divisor combination for the top-down
sweep); :func:`cap_tilings_by_footprint` is the policy that trims a
wide frontier to ``max_tilings_per_step`` tiles.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..mapping.placement import PlacementTable


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

    footprints = [footprint(t) for t in tilings]
    order = range(len(tilings))
    chosen: list[dict[str, int]] = []
    chosen_keys: set = set()

    def admit(i: int) -> None:
        key = tuple(sorted(tilings[i].items()))
        if key not in chosen_keys:
            chosen_keys.add(key)
            chosen.append(tilings[i])

    for dim in growth:
        admit(max(order, key=lambda i: (tilings[i].get(dim, 1),
                                        footprints[i])))
        admit(max(order, key=lambda i: (tilings[i].get(dim, 1),
                                        -footprints[i])))
    for i in sorted(order, key=footprints.__getitem__, reverse=True):
        if len(chosen) >= cap:
            break
        admit(i)
    return chosen
