"""Mapping (dataflow) representation.

A :class:`Mapping` assigns, to every memory level of an architecture, a
*temporal* loop nest (an ordered list of ``(dimension, factor)`` loops,
outermost first) and a *spatial* unrolling (``dimension -> factor``) across
the level's fanout.  Together these encode tiling, loop ordering and spatial
unrolling — the three degrees of freedom of dataflow mapping (paper §II-C).

Conventions
-----------
* Levels are indexed innermost (0) to outermost, matching
  :class:`repro.arch.spec.Architecture`.
* The spatial factors attached to level ``i`` distribute work across the
  ``fanout`` instances of level ``i`` beneath its parent.
* The product over all levels of (temporal x spatial) factors of a dimension
  must equal the problem size of that dimension.
* The tile resident in one instance of level ``L`` spans, per dimension, the
  product of temporal factors at levels ``<= L`` and spatial factors at
  levels ``< L``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping as TMapping, Sequence

from ..arch.spec import Architecture
from ..workloads.expression import Workload
from .placement import placement_table


class MappingError(ValueError):
    """Raised when a mapping is structurally malformed."""


@dataclass(frozen=True)
class LevelMapping:
    """Per-level loops: temporal nest (outermost first) + spatial unrolling."""

    temporal: tuple[tuple[str, int], ...] = ()
    spatial: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        for name, loops in (("temporal", self.temporal),
                            ("spatial", self.spatial)):
            seen = set()
            for dim, factor in loops:
                if factor < 1:
                    raise MappingError(f"{name} factor for {dim} must be >= 1")
                if dim in seen:
                    raise MappingError(f"duplicate {name} dim {dim}")
                seen.add(dim)
        # Frozen dataclass: pre-compute the hot lookups once.
        object.__setattr__(self, "_temporal_factors", dict(self.temporal))
        object.__setattr__(self, "_spatial_factors", dict(self.spatial))
        object.__setattr__(
            self, "_spatial_size",
            math.prod(factor for _, factor in self.spatial) or 1,
        )
        object.__setattr__(
            self, "_nontrivial_temporal",
            tuple((d, f) for d, f in self.temporal if f > 1),
        )
        object.__setattr__(
            self, "_nontrivial_spatial",
            tuple((d, f) for d, f in self.spatial if f > 1),
        )
        object.__setattr__(
            self, "_temporal_product",
            math.prod(factor for _, factor in self.temporal) or 1,
        )

    @property
    def temporal_factors(self) -> dict[str, int]:
        return self._temporal_factors

    @property
    def spatial_factors(self) -> dict[str, int]:
        return self._spatial_factors

    @property
    def spatial_size(self) -> int:
        """Number of child instances this level's unrolling occupies."""
        return self._spatial_size

    def temporal_factor(self, dim: str) -> int:
        return self._temporal_factors.get(dim, 1)

    def spatial_factor(self, dim: str) -> int:
        return self._spatial_factors.get(dim, 1)

    def nontrivial_temporal(self) -> tuple[tuple[str, int], ...]:
        """Temporal loops with bound > 1, in nest order."""
        return self._nontrivial_temporal


class Mapping:
    """A complete mapping of a workload onto an architecture."""

    def __init__(
        self,
        workload: Workload,
        arch: Architecture,
        levels: Sequence[LevelMapping],
    ) -> None:
        if len(levels) != arch.num_levels:
            raise MappingError(
                f"mapping has {len(levels)} levels, architecture "
                f"{arch.num_levels}"
            )
        self.workload = workload
        self.arch = arch
        self.levels: tuple[LevelMapping, ...] = tuple(levels)
        self._cumulative_cache: dict[int, dict[str, int]] = {}
        self._check_factor_products()

    def _check_factor_products(self) -> None:
        for dim, size in self.workload.dims.items():
            product = 1
            for lvl in self.levels:
                product *= lvl.temporal_factor(dim) * lvl.spatial_factor(dim)
            if product != size:
                raise MappingError(
                    f"factors of {dim} multiply to {product}, expected {size}"
                )

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def cumulative_sizes(self, level: int) -> dict[str, int]:
        """Per-dimension span of the tile held by one level-``level`` instance.

        Includes temporal factors of levels ``<= level`` and spatial factors
        of levels ``< level``; ``level == arch.num_levels`` yields the full
        problem.  Cached: mappings are immutable.
        """
        cached = self._cumulative_cache.get(level)
        if cached is not None:
            return cached
        sizes = {dim: 1 for dim in self.workload.dims}
        for i in range(min(level + 1, self.arch.num_levels)):
            temporal = self.levels[i].temporal_factors
            spatial = self.levels[i].spatial_factors if i < level else None
            for dim in sizes:
                sizes[dim] *= temporal.get(dim, 1)
                if spatial:
                    sizes[dim] *= spatial.get(dim, 1)
        self._cumulative_cache[level] = sizes
        return sizes

    def footprint(self, level: int, tensor_name: str) -> int:
        """Words of ``tensor_name`` resident in one level-``level`` instance."""
        sizes = self.cumulative_sizes(level)
        return self.workload.tensor(tensor_name).footprint(sizes)

    def occupancy(self, level: int) -> dict[str, int]:
        """Words per datatype role buffered at one level-``level`` instance.

        Only tensors the level actually stores are counted (bypassed roles
        occupy no space).
        """
        table = placement_table(self.workload, self.arch)
        sizes = self.cumulative_sizes(level)
        tensors = self.workload.tensors
        usage: dict[str, int] = {}
        for slot in table.slots[level]:
            for i in slot.tensors:
                role = tensors[i].role
                usage[role] = usage.get(role, 0) + table.footprint(i, sizes)
        return usage

    def used_lanes(self) -> int:
        """Total spatial parallelism exploited by this mapping."""
        return math.prod(lvl.spatial_size for lvl in self.levels)

    def spatial_utilization(self) -> float:
        return self.used_lanes() / self.arch.total_fanout

    # ------------------------------------------------------------------
    # validity
    # ------------------------------------------------------------------
    def validate(self) -> list[str]:
        """Return a list of violation descriptions (empty = valid)."""
        table = placement_table(self.workload, self.arch)
        problems: list[str] = []
        for i, lvl in enumerate(self.levels):
            problems.extend(table.problems(
                i, lvl.spatial_size, len(lvl._nontrivial_spatial),
                self.cumulative_sizes(i)))
        return problems

    @property
    def is_valid(self) -> bool:
        return not self.validate()

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        parts = []
        for i in reversed(range(len(self.levels))):
            lvl = self.levels[i]
            loops = " ".join(
                f"{d}{'=' + str(f) if f > 1 else ''}"
                for d, f in lvl.temporal if f > 1
            )
            spatial = " ".join(f"{d}x{f}" for d, f in lvl.spatial if f > 1)
            chunk = self.arch.levels[i].name + "["
            chunk += loops or "-"
            if spatial:
                chunk += f" | spatial {spatial}"
            chunk += "]"
            parts.append(chunk)
        return f"Mapping({self.workload.name}: " + " ".join(parts) + ")"


def build_mapping(
    workload: Workload,
    arch: Architecture,
    temporal: Sequence[TMapping[str, int] | Sequence[tuple[str, int]]],
    spatial: Sequence[TMapping[str, int]] | None = None,
    orders: Sequence[Sequence[str]] | None = None,
) -> Mapping:
    """Assemble a mapping from per-level factor dictionaries.

    ``temporal[i]`` gives the temporal factors at level ``i`` (missing dims
    default to 1); ``orders[i]``, when given, fixes the loop order at level
    ``i`` (outermost first; dims absent from the order are appended with
    their factors).  Residual factors (problem size not covered by any
    level) are pushed to the outermost level automatically.
    """
    num = arch.num_levels
    spatial = list(spatial or [{} for _ in range(num)])
    temporal_dicts: list[dict[str, int]] = []
    for entry in temporal:
        if isinstance(entry, TMapping):
            temporal_dicts.append(dict(entry))
        else:
            temporal_dicts.append({d: f for d, f in entry})
    while len(temporal_dicts) < num:
        temporal_dicts.append({})
    while len(spatial) < num:
        spatial.append({})

    # Push residual factors to the top level.
    for dim, size in workload.dims.items():
        covered = 1
        for i in range(num):
            covered *= temporal_dicts[i].get(dim, 1)
            covered *= spatial[i].get(dim, 1)
        if size % covered != 0:
            raise MappingError(
                f"factors of {dim} ({covered}) do not divide size {size}"
            )
        residual = size // covered
        if residual > 1:
            top = temporal_dicts[num - 1]
            top[dim] = top.get(dim, 1) * residual

    levels = []
    for i in range(num):
        factors = temporal_dicts[i]
        if orders is not None and i < len(orders) and orders[i]:
            order = list(orders[i])
            missing = [d for d in factors if d not in order]
            nest = [(d, factors.get(d, 1)) for d in order + missing]
        else:
            nest = [(d, f) for d, f in factors.items()]
        levels.append(
            LevelMapping(
                temporal=tuple(nest),
                spatial=tuple(sorted(spatial[i].items())),
            )
        )
    return Mapping(workload, arch, levels)
