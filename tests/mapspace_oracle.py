"""Test-only oracles: the pre-mapspace inline candidate generators.

These are **verbatim** copies of the generator code the searches used
before they were refactored onto the declarative mapspace IR, and of
the tiling tree before it stepped along divisor ladders
(:func:`oracle_enumerate_tilings`).  The generators yield their
``(ordering, tiling, unrolling)`` decisions; the live search attaches
them.  They exist solely so the equivalence tests can prove the
refactor preserved behaviour bit-for-bit — same candidate streams, same
best mapping, same cost — without depending on git history.  Nothing
outside ``tests/`` may import this module.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Iterator, Sequence

from repro.arch.spec import Architecture
from repro.core.scheduler import SunstoneScheduler
from repro.core.tiling_tree import (
    TilingStats,
    divisors,
    enumerate_all_tilings,
    enumerate_tilings,
    next_divisor,
)
from repro.core.unrolling import enumerate_unrollings
from repro.mapping.mapping import LevelMapping, Mapping
from repro.mapping.placement import placement_table
from repro.workloads.expression import Workload


def oracle_enumerate_tilings(
    workload: Workload,
    arch: Architecture,
    level_index: int,
    base_sizes: Mapping[str, int],
    remaining: Mapping[str, int],
    growth_dims: Iterable[str],
    stats: TilingStats | None = None,
) -> list[dict[str, int]]:
    """Enumerate maximal tile candidates for one memory level.

    Parameters
    ----------
    base_sizes:
        Per-dimension cumulative tile span already fixed by the levels below
        (the root tile).
    remaining:
        Per-dimension residual extent still to be tiled at this level and
        above; this level's multiplier for a dimension must divide it.
    growth_dims:
        The dimensions the Tiling Principle allows to grow (indexing
        dimensions of the reused operand); all others keep multiplier 1.

    Returns a list of per-dimension *multipliers* (this level's temporal
    factors).  If even the minimal tile does not fit, the list is empty.
    """
    stats = stats if stats is not None else TilingStats()
    fits = placement_table(workload, arch).fits
    growth = tuple(d for d in growth_dims if remaining.get(d, 1) > 1)

    def sizes_for(multipliers: Mapping[str, int]) -> dict[str, int]:
        return {
            d: base_sizes.get(d, 1) * multipliers.get(d, 1)
            for d in workload.dims
        }

    root = {d: 1 for d in growth}
    stats.nodes_visited += 1
    if not fits(level_index, sizes_for(root), {}):
        stats.nodes_over_capacity += 1
        return []

    candidates: list[dict[str, int]] = []
    seen: set[tuple[tuple[str, int], ...]] = set()
    stack = [root]
    seen.add(tuple(sorted(root.items())))
    while stack:
        node = stack.pop()
        has_fitting_child = False
        for dim in growth:
            bumped = next_divisor(remaining[dim], node[dim])
            if bumped is None:
                continue
            child = dict(node)
            child[dim] = bumped
            key = tuple(sorted(child.items()))
            fresh = key not in seen
            if fresh:
                stats.nodes_visited += 1
            if fits(level_index, sizes_for(child), {}):
                has_fitting_child = True
                if fresh:
                    seen.add(key)
                    stack.append(child)
            elif fresh:
                seen.add(key)
                stats.nodes_over_capacity += 1
        if has_fitting_child:
            # The Tiling Principle: a larger fitting tile strictly
            # dominates this one.
            stats.nodes_pruned_dominated += 1
            continue
        candidates.append(node)

    stats.candidates += len(candidates)
    return candidates



class OracleSunstoneScheduler(SunstoneScheduler):
    """Sunstone with the historical inline candidate generators."""

    def _unroll_candidates(self, order, level, fanout, remaining, stats):
        allowed = self._allowed_unroll(order, level)
        cache_key = (level, fanout, tuple(sorted(remaining.items())), allowed)
        cached = self._unroll_cache.get(cache_key)
        if cached is not None:
            return cached
        unrolls = enumerate_unrollings(
            self.workload, fanout, remaining, allowed,
            stats=stats.unrolling,
            utilization_threshold=self.options.utilization_threshold,
            max_unrolled_dims=self.options.max_unrolled_dims,
        )
        best = max(
            (math.prod(u.values()) if u else 1 for u in unrolls), default=1,
        )
        if fanout > 1 and best < fanout and len(allowed) < len(
                self.workload.dim_names):
            fallback = enumerate_unrollings(
                self.workload, fanout, remaining, self.workload.dim_names,
                stats=stats.unrolling,
                utilization_threshold=self.options.utilization_threshold,
                max_unrolled_dims=self.options.max_unrolled_dims,
            )
            seen = {tuple(sorted(u.items())) for u in unrolls}
            unrolls += [u for u in fallback
                        if tuple(sorted(u.items())) not in seen]
        cap = self.options.max_unrolls_per_step
        if cap is not None and len(unrolls) > cap:
            unrolls.sort(
                key=lambda u: math.prod(u.values()) if u else 1, reverse=True,
            )
            unrolls = unrolls[:cap]
        self._unroll_cache[cache_key] = unrolls
        return unrolls

    def _tiling_candidates(self, level, base, remaining, growth, stats):
        cache_key = (
            level,
            tuple(sorted(base.items())),
            tuple(sorted(remaining.items())),
            tuple(growth),
        )
        cached = self._tiling_cache.get(cache_key)
        if cached is not None:
            return cached
        tilings = enumerate_tilings(
            self.workload, self.arch, level, base, remaining, growth,
            stats=stats.tiling,
        )
        cap = self.options.max_tilings_per_step
        if cap is not None and len(tilings) > cap:
            def footprint(tiling: dict[str, int]) -> int:
                sizes = {
                    d: base.get(d, 1) * tiling.get(d, 1)
                    for d in self.workload.dims
                }
                return sum(t.footprint(sizes) for t in self.workload.tensors)

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
            tilings = chosen
        self._tiling_cache[cache_key] = tilings
        return tilings

    def _children_bottom_up(self, state, level, orderings, stats):
        base = self._base_sizes(state, level)
        remaining = dict(state.frontier)
        fanout = self.arch.levels[level].fanout
        mode = self.options.intra_level_order

        def extend(order, tiling, unroll):
            return order, tiling, unroll

        union_growth_all = tuple(dict.fromkeys(
            d for order in orderings for d in self._growth_dims(order, level)
        ))
        if mode == "ordering-tiling-unrolling":
            for order in orderings:
                growth = self._growth_dims(order, level)
                tilings = self._tiling_candidates(level, base, remaining,
                                                  growth, stats)
                if set(union_growth_all) - set(growth):
                    extra = self._tiling_candidates(
                        level, base, remaining, union_growth_all, stats)
                    seen = {tuple(sorted(t.items())) for t in tilings}
                    tilings = tilings + [
                        t for t in extra
                        if tuple(sorted(t.items())) not in seen
                    ]
                for tiling in tilings:
                    rem_after = {
                        d: remaining[d] // tiling.get(d, 1) for d in remaining
                    }
                    unrolls = self._unroll_candidates(
                        order, level, fanout, rem_after, stats)
                    for unroll in unrolls:
                        child = extend(order, tiling, unroll)
                        if child is not None:
                            yield child
            return

        union_growth = tuple(dict.fromkeys(
            d for order in orderings for d in self._growth_dims(order, level)
        ))
        union_allowed = tuple(dict.fromkeys(
            d for order in orderings for d in self._allowed_unroll(order, level)
        ))
        if mode == "tiling-unrolling-ordering":
            tilings = self._tiling_candidates(level, base, remaining,
                                              union_growth, stats)
            for tiling in tilings:
                rem_after = {
                    d: remaining[d] // tiling.get(d, 1) for d in remaining
                }
                unrolls = enumerate_unrollings(
                    self.workload, fanout, rem_after, union_allowed,
                    stats=stats.unrolling,
                    utilization_threshold=self.options.utilization_threshold,
                    max_unrolled_dims=self.options.max_unrolled_dims,
                )
                for unroll in unrolls:
                    for order in orderings:
                        child = extend(order, tiling, unroll)
                        if child is not None:
                            yield child
            return

        unrolls = enumerate_unrollings(
            self.workload, fanout, remaining, union_allowed,
            stats=stats.unrolling,
            utilization_threshold=self.options.utilization_threshold,
            max_unrolled_dims=self.options.max_unrolled_dims,
        )
        for unroll in unrolls:
            rem_after = {
                d: remaining[d] // unroll.get(d, 1) for d in remaining
            }
            tilings = self._tiling_candidates(level, base, rem_after,
                                              union_growth, stats)
            for tiling in tilings:
                for order in orderings:
                    child = extend(order, tiling, unroll)
                    if child is not None:
                        yield child

    def _children_top_down(self, state, level, orderings, stats):
        remaining = dict(state.frontier)
        base = {d: 1 for d in self.workload.dims}
        fanout = self.arch.levels[level].fanout

        for order in orderings:
            growth = self._growth_dims(order, level)
            tilings = enumerate_all_tilings(
                self.workload, self.arch, level, base, remaining,
                stats=stats.tiling, dims=growth,
            )
            for tiling in tilings:
                quotient = {
                    d: remaining[d] // tiling.get(d, 1) for d in remaining
                }
                unrolls = self._unroll_candidates(
                    order, level, fanout, quotient, stats)
                for unroll in unrolls:
                    yield order, tiling, unroll


def make_oracle_interstellar(base_cls):
    """Subclass ``base_cls`` (the live _InterstellarSearch) with the
    historical inline child generator."""

    class OracleInterstellarSearch(base_cls):
        def _children_bottom_up(self, state, level, orderings, stats):
            base = self._base_sizes(state, level)
            remaining = dict(state.frontier)
            fanout = self.arch.levels[level].fanout

            preferred = tuple(
                d for d in self.config.preferred_spatial_dims
                if d in self.workload.dims
            )
            for order in orderings:
                tilings = enumerate_tilings(
                    self.workload, self.arch, level, base, remaining,
                    self.workload.dim_names, stats=stats.tiling,
                )
                for tiling in tilings:
                    rem_after = {
                        d: remaining[d] // tiling.get(d, 1) for d in remaining
                    }
                    unrolls = enumerate_unrollings(
                        self.workload, fanout, rem_after, preferred,
                        stats=stats.unrolling,
                        utilization_threshold=1.0,
                    )
                    best_pref = max(
                        (math.prod(u.values()) if u else 1 for u in unrolls),
                        default=1,
                    )
                    if fanout > 1 and best_pref < fanout:
                        unrolls = enumerate_unrollings(
                            self.workload, fanout, rem_after,
                            self.workload.dim_names,
                            stats=stats.unrolling,
                            utilization_threshold=1.0,
                        )
                    for unroll in unrolls:
                        child = (order, tiling, unroll)
                        if child is not None:
                            yield child

    return OracleInterstellarSearch


def make_oracle_dmaze(base_cls):
    """Subclass ``base_cls`` (the live _DMazeSearch) with the historical
    inline child generator."""

    class OracleDMazeSearch(base_cls):
        def _children_bottom_up(self, state, level, orderings, stats):
            base = self._base_sizes(state, level)
            remaining = dict(state.frontier)
            fanout = self.arch.levels[level].fanout
            threshold = self._threshold_for(level)

            dims = [d for d in self.workload.dim_names
                    if remaining.get(d, 1) > 1]
            choice_lists = [divisors(remaining[d]) for d in dims]

            if self.config.spatial_reduction_allowed:
                unroll_dims = self.workload.dim_names
            else:
                output_dims: set[str] = set()
                for tensor in self.workload.outputs:
                    output_dims |= set(tensor.indexing_dims)
                unroll_dims = tuple(d for d in self.workload.dim_names
                                    if d in output_dims)

            emitted_tilings = 0
            for combo in itertools.product(*choice_lists):
                if emitted_tilings >= self.config.max_tilings_per_state:
                    break
                tiling = {d: f for d, f in zip(dims, combo) if f > 1}
                sizes = {
                    d: base.get(d, 1) * tiling.get(d, 1)
                    for d in self.workload.dims
                }
                stats.tiling.nodes_visited += 1
                utilization = self._utilization(level, sizes)
                if utilization > 1.0 or utilization < threshold:
                    continue
                emitted_tilings += 1
                rem_after = {
                    d: remaining[d] // tiling.get(d, 1) for d in remaining
                }
                unrolls = enumerate_unrollings(
                    self.workload, fanout, rem_after, unroll_dims,
                    stats=stats.unrolling,
                    utilization_threshold=self.config.pe_utilization,
                    max_unrolled_dims=2,
                )
                for unroll in unrolls:
                    used = 1
                    for f in unroll.values():
                        used *= f
                    if (fanout > 1
                            and used < self.config.pe_utilization * fanout):
                        continue
                    for order in orderings:
                        child = (order, tiling, unroll)
                        if child is not None:
                            yield child

    return OracleDMazeSearch


def oracle_prime_factors(n: int) -> list[int]:
    factors: list[int] = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def oracle_spatial_slots(arch: Architecture) -> list[int]:
    return [i for i, level in enumerate(arch.levels) if level.fanout > 1]


def oracle_factor_assignments(size: int, slots: int
                              ) -> Iterator[tuple[int, ...]]:
    """Historical exhaustive-search per-dimension split enumeration."""
    primes = oracle_prime_factors(size)
    if not primes:
        yield (1,) * slots
        return
    seen: set[tuple[int, ...]] = set()
    for placement in itertools.product(range(slots), repeat=len(primes)):
        split = [1] * slots
        for prime, slot in zip(primes, placement):
            split[slot] *= prime
        key = tuple(split)
        if key not in seen:
            seen.add(key)
            yield key


def oracle_full_space_stream(
    workload: Workload,
    arch: Architecture,
    orders_per_level: int | None = None,
) -> Iterator[Mapping]:
    """Historical exhaustive-search mapping stream (enumeration order)."""
    num = arch.num_levels
    boundaries = set(oracle_spatial_slots(arch))
    dims = workload.dim_names

    slots: list[tuple[str, int]] = []
    for level in range(num):
        slots.append(("t", level))
        if level in boundaries:
            slots.append(("s", level))

    per_dim_assignments = [
        list(oracle_factor_assignments(workload.dims[d], len(slots)))
        for d in dims
    ]
    orderings = list(itertools.permutations(dims))
    if orders_per_level is not None:
        orderings = orderings[:orders_per_level]

    for combo in itertools.product(*per_dim_assignments):
        temporal = [dict[str, int]() for _ in range(num)]
        spatial = [dict[str, int]() for _ in range(num)]
        for dim, split in zip(dims, combo):
            for (kind, level), factor in zip(slots, split):
                if factor == 1:
                    continue
                store = temporal if kind == "t" else spatial
                store[level][dim] = store[level].get(dim, 1) * factor
        for level_orders in itertools.product(orderings, repeat=num):
            levels = []
            for i in range(num):
                nest = tuple(
                    (d, temporal[i].get(d, 1)) for d in level_orders[i]
                )
                levels.append(LevelMapping(
                    temporal=nest,
                    spatial=tuple(sorted(spatial[i].items())),
                ))
            yield Mapping(workload, arch, levels)


def oracle_sample_random_mapping(
    workload: Workload,
    arch: Architecture,
    rng: random.Random,
    constraints=None,
) -> Mapping:
    """Historical Timeloop-like uniform sampler."""
    num = arch.num_levels
    boundaries = set(oracle_spatial_slots(arch))
    temporal = [dict[str, int]() for _ in range(num)]
    spatial = [dict[str, int]() for _ in range(num)]

    for dim, size in workload.dims.items():
        slots: list[tuple[str, int]] = []
        for level in range(num):
            if constraints is None or constraints.allows_temporal(level, dim):
                slots.append(("t", level))
            if level in boundaries and (
                constraints is None or constraints.allows_spatial(level, dim)
            ):
                slots.append(("s", level))
        if not slots:
            slots = [("t", num - 1)]
        for p in oracle_prime_factors(size):
            kind, level = rng.choice(slots)
            store = temporal if kind == "t" else spatial
            store[level][dim] = store[level].get(dim, 1) * p

    levels = []
    for i in range(num):
        order = list(workload.dim_names)
        rng.shuffle(order)
        nest = tuple((d, temporal[i].get(d, 1)) for d in order)
        levels.append(LevelMapping(
            temporal=nest,
            spatial=tuple(sorted(spatial[i].items())),
        ))
    return Mapping(workload, arch, levels)


def oracle_gamma_decode(workload: Workload, arch: Architecture,
                        primes: dict[str, list[int]],
                        placements: dict[str, list[tuple[str, int]]],
                        orders: Sequence[tuple[str, ...]]) -> Mapping:
    """Historical GAMMA genome decode."""
    num = arch.num_levels
    temporal = [dict[str, int]() for _ in range(num)]
    spatial = [dict[str, int]() for _ in range(num)]
    for dim, placement in placements.items():
        for prime, (kind, level) in zip(primes[dim], placement):
            store = temporal if kind == "t" else spatial
            store[level][dim] = store[level].get(dim, 1) * prime
    levels = []
    for i in range(num):
        nest = tuple((d, temporal[i].get(d, 1)) for d in orders[i])
        levels.append(LevelMapping(
            temporal=nest, spatial=tuple(sorted(spatial[i].items())),
        ))
    return Mapping(workload, arch, levels)
