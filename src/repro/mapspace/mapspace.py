"""Whole-mapping space builders.

``assignment_slots`` fixes the canonical slot order every strategy
shares (temporal slot per level, spatial slot at fanout boundaries);
``assemble_mapping`` is the one decode from per-level factor dicts plus
loop orders to a :class:`~repro.mapping.mapping.Mapping`; and the
complete mapping space the exhaustive and sampling baselines are
defined over crosses per-dimension :class:`FactorLattice` splits
(``full_space_lattices``) with per-level orderings
(``order_permutations``), with ``full_space_size`` its closed-form size.
:class:`~repro.mapspace.batch.SpaceDecoder` owns its enumeration order.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Mapping as MappingT, Sequence

from ..arch.spec import Architecture
from ..mapping.mapping import LevelMapping, Mapping
from ..workloads.expression import Workload
from .factor import FactorLattice

Slot = "tuple[str, int]"


def spatial_boundaries(arch: Architecture) -> list[int]:
    """Levels with a usable fanout boundary (spatial slots)."""
    return [i for i, level in enumerate(arch.levels) if level.fanout > 1]


def assignment_slots(
    arch: Architecture,
    constraints: Any = None,
    dim: str | None = None,
) -> list[tuple[str, int]]:
    """The canonical ordered slot list factors are distributed over:
    ``("t", level)`` for every level, ``("s", level)`` at each fanout
    boundary, innermost level first.

    ``constraints`` (an object with ``allows_temporal(level, dim)`` /
    ``allows_spatial(level, dim)``, e.g. Timeloop's
    :class:`~repro.baselines.random_search.MappingConstraints`) filters
    the slots for ``dim``; a fully constrained dimension falls back to
    the outermost temporal slot so every factor has a home.
    """
    num = arch.num_levels
    boundaries = set(spatial_boundaries(arch))
    slots: list[tuple[str, int]] = []
    for level in range(num):
        if (constraints is None or dim is None
                or constraints.allows_temporal(level, dim)):
            slots.append(("t", level))
        if level in boundaries and (
            constraints is None or dim is None
            or constraints.allows_spatial(level, dim)
        ):
            slots.append(("s", level))
    if not slots:
        slots = [("t", num - 1)]
    return slots


def stores_from_splits(
    dims: Sequence[str],
    splits: Sequence[Sequence[int]],
    slots: Sequence[tuple[str, int]],
    num_levels: int,
) -> tuple[list[dict[str, int]], list[dict[str, int]]]:
    """Scatter per-dimension slot splits into per-level temporal and
    spatial factor dicts (trivial factors omitted)."""
    temporal = [dict[str, int]() for _ in range(num_levels)]
    spatial = [dict[str, int]() for _ in range(num_levels)]
    for dim, split in zip(dims, splits):
        for (kind, level), factor in zip(slots, split):
            if factor == 1:
                continue
            store = temporal if kind == "t" else spatial
            store[level][dim] = store[level].get(dim, 1) * factor
    return temporal, spatial


def assemble_mapping(
    workload: Workload,
    arch: Architecture,
    temporal: Sequence[MappingT[str, int]],
    spatial: Sequence[MappingT[str, int]],
    orders: Sequence[Sequence[str]],
) -> Mapping:
    """Build a :class:`Mapping` from per-level factor dicts and loop
    orders.  Every dimension appears in each level's temporal nest (with
    factor 1 when absent from the dict); spatial factors are stored
    sorted, as everywhere else in the repo."""
    levels = []
    for i in range(arch.num_levels):
        nest = tuple((d, temporal[i].get(d, 1)) for d in orders[i])
        levels.append(LevelMapping(
            temporal=nest,
            spatial=tuple(sorted(spatial[i].items())),
        ))
    return Mapping(workload, arch, levels)


def full_space_lattices(workload: Workload, arch: Architecture
                        ) -> list[FactorLattice]:
    """One factor lattice per workload dimension (workload order) over
    the canonical assignment slots: the tiling axes of the full space."""
    slots = assignment_slots(arch)
    return [FactorLattice(d, workload.dims[d], slots)
            for d in workload.dim_names]


def order_permutations(dims: Sequence[str],
                       orders_per_level: int | None = None
                       ) -> list[tuple[str, ...]]:
    """The loop orders every level of the full space ranges over: the
    first ``orders_per_level`` permutations of ``dims`` (all when None),
    in :func:`itertools.permutations` order."""
    return list(itertools.islice(itertools.permutations(dims),
                                 orders_per_level))


def full_space_size(
    workload: Workload,
    arch: Architecture,
    orders_per_level: int | None = None,
) -> int:
    """Closed-form size of the full mapping space: the product of the
    lattice sizes times ``min(orders_per_level, n!)`` per level."""
    if orders_per_level is not None and orders_per_level < 0:
        raise ValueError("orders_per_level must be >= 0")
    orders = math.factorial(len(workload.dim_names))
    if orders_per_level is not None:
        orders = min(orders, orders_per_level)
    size = orders ** arch.num_levels
    for lattice in full_space_lattices(workload, arch):
        size *= lattice.size()
    return size
