"""The :class:`Mapspace` facade and whole-mapping space builders.

``assignment_slots`` fixes the canonical slot order every strategy
shares (temporal slot per level, spatial slot at fanout boundaries);
``assemble_mapping`` is the one decode from per-level factor dicts plus
loop orders to a :class:`~repro.mapping.mapping.Mapping`; and
``full_mapping_space`` composes per-dimension :class:`FactorLattice`
axes with per-level orderings into the complete mapping space the
exhaustive and sampling baselines are defined over — with an analytic
``size()`` and the exact historical enumeration order.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping as MappingT, Sequence

from ..arch.spec import Architecture
from ..mapping.mapping import LevelMapping, Mapping
from ..workloads.expression import Workload
from .factor import FactorLattice
from .order import PermutationSpace
from .spaces import ProductSpace, Space

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


class Mapspace(Space):
    """A composed mapping space with named axes.

    ``root`` is the composed :class:`Space` that yields the candidates;
    ``axes`` names the constituent axis spaces (the exhaustive walker
    reads its split and ordering axes from here).
    """

    def __init__(self, root: Space,
                 axes: MappingT[str, Space] | None = None) -> None:
        self.root = root
        self.axes = dict(axes) if axes else {}

    def size(self) -> int:
        return self.root.size()

    def _generate(self) -> Iterator:
        return self.root.enumerate()


def full_mapping_space(
    workload: Workload,
    arch: Architecture,
    orders_per_level: int | None = None,
) -> Mapspace:
    """The complete mapping space: per-dimension factor lattices over the
    canonical assignment slots, crossed with per-level loop orderings.

    Enumeration order is the historical exhaustive-search order: the
    per-dimension splits form the outer product (first workload dimension
    outermost), the per-level orderings the inner product (innermost
    level's ordering varying slowest of the order axes).  ``size()`` is
    analytic — no enumeration happens until the space is walked.
    """
    num = arch.num_levels
    dims = workload.dim_names
    slots = assignment_slots(arch)
    lattices = [FactorLattice(d, workload.dims[d], slots) for d in dims]
    orderings = PermutationSpace(dims).head(orders_per_level)

    def build(*parts):
        splits = parts[:len(dims)]
        level_orders = parts[len(dims):]
        temporal, spatial = stores_from_splits(dims, splits, slots, num)
        return assemble_mapping(workload, arch, temporal, spatial,
                                level_orders)

    root = ProductSpace(list(lattices) + [orderings] * num, combine=build)
    axes: dict[str, Space] = {
        f"tiling[{d}]": lattice for d, lattice in zip(dims, lattices)
    }
    axes["ordering"] = orderings
    return Mapspace(root, axes=axes)
