"""Constraint predicates applied to mapspaces as pruning passes.

Each factory returns a named predicate suitable for
``Space.filter(predicate, name, stats)``, so composed spaces report
per-pass drop counters through :class:`~repro.mapspace.spaces.PruneStats`.

Every predicate also carries a ``.batch`` attribute — a bulk form
``batch(items) -> sequence[bool]`` that the batch generation path
(:meth:`FilteredSpace.enumerate_batch`) applies as one vectorized mask
per cohort.  The bulk form must agree elementwise with the scalar
predicate; where the check reduces to integer arithmetic over factor
dicts (divisibility, utilization bands) it is computed with numpy when
available, otherwise it degrades to a tight scalar sweep.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

from .. import optional_numpy
from ..arch.spec import Architecture
from ..core.tiling_tree import placement_fits, tile_fits
from ..workloads.expression import Workload


def _with_batch(predicate, batch_fn):
    """Attach the bulk mask form to a scalar predicate."""
    predicate.batch = batch_fn
    return predicate


def capacity_fits(
    workload: Workload,
    arch: Architecture,
    level: int,
) -> Callable[[tuple[Mapping[str, int], Mapping[str, int]]], bool]:
    """Predicate over ``(sizes, spatial)`` pairs: the tile spanning
    ``sizes`` with boundary unrolling ``spatial`` fits every tensor's
    innermost storage home at or above ``level``."""

    def predicate(candidate: tuple[Mapping[str, int], Mapping[str, int]],
                  ) -> bool:
        sizes, spatial = candidate
        return placement_fits(workload, arch, level, sizes, spatial)

    def batch(candidates: Sequence) -> list[bool]:
        return [placement_fits(workload, arch, level, sizes, spatial)
                for sizes, spatial in candidates]

    return _with_batch(predicate, batch)


def tile_capacity_fits(
    workload: Workload,
    arch: Architecture,
    level: int,
    base: Mapping[str, int],
) -> Callable[[Mapping[str, int]], bool]:
    """Predicate over tile multiplier dicts: the implied tile fits."""

    def predicate(tiling: Mapping[str, int]) -> bool:
        sizes = {
            d: base.get(d, 1) * tiling.get(d, 1) for d in workload.dims
        }
        return tile_fits(workload, arch, level, sizes)

    def batch(tilings: Sequence[Mapping[str, int]]) -> list[bool]:
        return [predicate(tiling) for tiling in tilings]

    return _with_batch(predicate, batch)


def divisibility(
    remaining: Mapping[str, int],
) -> Callable[[Mapping[str, int]], bool]:
    """Predicate over factor dicts: every factor divides the residual
    extent of its dimension."""

    def predicate(factors: Mapping[str, int]) -> bool:
        for dim, factor in factors.items():
            if factor < 1 or remaining.get(dim, 1) % factor != 0:
                return False
        return True

    def batch(items: Sequence[Mapping[str, int]]) -> list[bool]:
        np = optional_numpy.np
        if np is None or len(items) < 8:
            return [predicate(factors) for factors in items]
        dims = sorted({dim for factors in items for dim in factors})
        if not dims:
            return [True] * len(items)
        mat = np.ones((len(items), len(dims)), dtype=np.int64)
        pos = {dim: j for j, dim in enumerate(dims)}
        for i, factors in enumerate(items):
            for dim, factor in factors.items():
                mat[i, pos[dim]] = factor
        rem = np.array([remaining.get(dim, 1) for dim in dims],
                       dtype=np.int64)
        ok = (mat >= 1) & (rem[None, :] % np.maximum(mat, 1) == 0)
        # A dim absent from an item's dict contributes factor 1, which
        # always passes — the ones-initialised matrix encodes that.
        return np.all(ok, axis=1).tolist()

    return _with_batch(predicate, batch)


def utilization_floor(
    fanout: int,
    floor: float,
) -> Callable[[Mapping[str, int]], bool]:
    """Predicate over unroll dicts: occupied lanes reach at least
    ``floor * fanout`` (always true for fanout <= 1)."""

    def predicate(unroll: Mapping[str, int]) -> bool:
        if fanout <= 1:
            return True
        used = math.prod(unroll.values()) if unroll else 1
        return used >= floor * fanout

    def batch(items: Sequence[Mapping[str, int]]) -> list[bool]:
        if fanout <= 1:
            return [True] * len(items)
        threshold = floor * fanout
        return [(math.prod(u.values()) if u else 1) >= threshold
                for u in items]

    return _with_batch(predicate, batch)


def utilization_band(
    floor: float,
    ceiling: float,
    measure: Callable[[Mapping[str, int]], float],
) -> Callable[[Mapping[str, int]], bool]:
    """Predicate keeping candidates whose ``measure`` lies in
    ``[floor, ceiling]`` — dMazeRunner's buffer-utilisation band."""

    def predicate(candidate: Mapping[str, int]) -> bool:
        utilization = measure(candidate)
        return floor <= utilization <= ceiling

    def batch(items: Sequence[Mapping[str, int]]) -> list[bool]:
        return [floor <= measure(candidate) <= ceiling
                for candidate in items]

    return _with_batch(predicate, batch)
