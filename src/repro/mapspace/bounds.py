"""Closed-form lower bounds over mapspace regions (branch-and-bound).

A *region* is a rectangular sub-space of mappings: some per-level
temporal/spatial factors are **decided**, the rest of each dimension's
extent is **free** — not yet distributed across levels.  From the
decided factors alone, :class:`BoundModel` derives a provable lower
bound on the energy / EDP of *every valid mapping in the region*,
without enumerating any of them:

* **compute energy** is mapping-invariant (``energy_ops x mac_energy``),
  so it is counted exactly;
* **innermost accesses**: each tensor is touched at least
  ``energy_ops / share_cap`` times at its innermost storage level, where
  ``share_cap`` caps the broadcast/reduction sharing across lanes by the
  machine fanout below that level and by the problem extents of the
  tensor's non-indexing dimensions;
* **compulsory traffic per (tensor, storage pair)**: every fill sequence
  moves at least one minimal tile — ``t_rel_min x scaled_words(fp_min)``
  where ``fp_min`` is the footprint of the decided tile sizes at the
  child (footprints are monotone in tile sizes) and ``t_rel_min`` the
  decided relevant temporal product above it.  The exact model then
  multiplies each side by spatial products — ``between`` across
  ``[child, parent)`` (all dims on the child side, indexing dims on the
  parent side) and the parent's machine instances above — which are
  floored by the products of the *decided* spatial factors (free dims
  contribute at least 1).  For dense, non-windowed tensors each side
  additionally moves the tensor's whole extent at least once per parent
  instance (``rel_total / instances_of(parent)``).  Sliding-window
  tensors may overlap their fills, so only the footprint term is kept
  for them.  Sparse tiles keep the traffic scale *inside* the floor
  (``scaled_words(n) = n x traffic_scale(n)`` is nondecreasing in
  ``n``; pinned by ``tests/test_bounds.py``);
* **cycles**: compute-bound cycles are floored by the maximum spatial
  parallelism the region can still reach (decided unrolls x remaining
  slack across fanout boundaries), and each level's bandwidth-bound
  cycles by its floored traffic over the maximal instance count.

Every floor is a term of the exact model of :mod:`repro.model` with the
mapping-dependent multipliers replaced by their provable minima, so
``bound(region) <= evaluate(m)`` for every *valid* ``m`` in the region
(invalid mappings are never returned by a search, so they need no
bound).  The final bound is scaled by ``1 - 1e-9`` so that exact-equality
edge cases can never flip a strict comparison against the incumbent;
searches prune only when ``bound > incumbent``, which preserves the
first-attainer tie-break of every scan (docs/MAPSPACE.md).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping as TMapping, Sequence

from ..model.terms import model_info
from ..sparse.saf import compute_scales, traffic_scale

if TYPE_CHECKING:
    from ..arch.spec import Architecture
    from ..mapping.mapping import Mapping
    from ..sparse.spec import SparsitySpec
    from ..workloads.expression import Workload

NEG_INF = float("-inf")

# Slack applied to every finite bound: large enough to swallow any
# floating-point reordering between the floor expressions and the exact
# model (relative error ~1e-15), small enough to be irrelevant to
# pruning power.
_SAFETY = 1.0 - 1e-9


class Region:
    """A rectangular sub-space of mappings.

    ``t_factors[i]`` / ``s_factors[i]`` hold the decided temporal /
    spatial factors of level ``i`` (dim -> factor; trivial factors may
    be omitted).  ``free`` maps each dimension to the residual extent
    not yet placed anywhere; free factors may land at any level.  A
    fully decided mapping is a region with ``free`` empty.
    """

    __slots__ = ("t_factors", "s_factors", "free")

    def __init__(
        self,
        t_factors: Sequence[TMapping[str, int]],
        s_factors: Sequence[TMapping[str, int]],
        free: TMapping[str, int],
    ) -> None:
        self.t_factors = tuple(t_factors)
        self.s_factors = tuple(s_factors)
        self.free = {d: e for d, e in free.items() if e > 1}

    @staticmethod
    def whole(workload: "Workload", num_levels: int) -> "Region":
        """The region containing every mapping of the workload."""
        empty = [{} for _ in range(num_levels)]
        return Region(empty, list(empty), dict(workload.dims))

    @staticmethod
    def from_splits(
        workload: "Workload",
        arch: "Architecture",
        decided: TMapping[str, Sequence[int]],
    ) -> "Region":
        """Region from full per-slot factor assignments of a subset of
        dimensions (the exhaustive walker's prefix), slots as in
        :func:`repro.mapspace.mapspace.assignment_slots`."""
        from .mapspace import assignment_slots, stores_from_splits

        slots = assignment_slots(arch)
        dims = list(decided)
        splits = [tuple(decided[d]) for d in dims]
        temporal, spatial = stores_from_splits(dims, splits, slots,
                                               arch.num_levels)
        free = {d: e for d, e in workload.dims.items() if d not in decided}
        return Region(temporal, spatial, free)

    @staticmethod
    def from_mapping(mapping: "Mapping") -> "Region":
        """The single-point region containing exactly ``mapping``."""
        return Region(
            [lvl.temporal_factors for lvl in mapping.levels],
            [lvl.spatial_factors for lvl in mapping.levels],
            {},
        )


class BoundModel:
    """Analytic lower bounds for one (workload, arch, objective) triple."""

    def __init__(
        self,
        workload: "Workload",
        arch: "Architecture",
        objective: str = "edp",
        partial_reuse: bool = True,
        sparsity: "SparsitySpec | None" = None,
    ) -> None:
        self.workload = workload
        self.arch = arch
        self.objective = objective
        self.partial_reuse = partial_reuse
        self.sparsity = sparsity
        self.info = info = model_info(workload, arch)
        op_scale = cycle_scale = 1.0
        if sparsity is not None:
            op_scale, cycle_scale = compute_scales(sparsity,
                                                   info.tensor_names)
        self.energy_ops = info.total_ops * op_scale
        self.cycle_ops = info.total_ops * cycle_scale
        num = arch.num_levels
        self._instances = [arch.instances_of(i) for i in range(num)]
        dims_product = math.prod(workload.dims.values())
        self._lanes_cap = min(arch.total_fanout, dims_product)
        # fanout product strictly below each level (sharing cap).
        below = [1] * (num + 1)
        for i in range(num):
            below[i + 1] = below[i] * arch.levels[i].fanout
        self._tensors = []
        for tinfo in info.tensors:
            ts = sparsity.get(tinfo.name) if sparsity is not None else None
            windowed = bool(partial_reuse and not tinfo.is_output
                            and tinfo.windows)
            nonidx = math.prod(e for d, e in workload.dims.items()
                               if d not in tinfo.indexing)
            share_cap = min(below[tinfo.innermost], nonidx)
            self._tensors.append((tinfo, ts, windowed, max(1, share_cap)))
        self._whole: float | None = None

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def space_bound(self) -> float:
        """Lower bound over the *entire* mapping space (the certificate
        denominator)."""
        if self._whole is None:
            self._whole = self.region_bound(
                Region.whole(self.workload, self.arch.num_levels))
        return self._whole

    def mapping_bound(self, mapping: "Mapping") -> float:
        """Point bound: a cheap underestimate of ``evaluate(mapping)``."""
        return self.region_bound(Region.from_mapping(mapping))

    def region_bound(self, region: Region) -> float:
        """Provable lower bound of the objective over ``region``."""
        info = self.info
        arch = self.arch
        num = info.num_levels
        reads = [0.0] * num
        writes = [0.0] * num
        # All per-access energies below come from the resolved technology
        # tables hoisted on ModelInfo — the identical floats the exact
        # model multiplies, so the floors stay exact under any pack.
        energy = self.energy_ops * info.mac_energy
        sizes_cache: dict[int, dict[str, int]] = {}
        above_cache: dict[int, dict[str, int]] = {}
        # Decided spatial prefix products: the exact model multiplies
        # every pair's fill words by the spatial products across
        # [child, parent) (``between``) and at levels >= parent
        # (``inst_above``).  Decided dims contribute their exact factors,
        # free dims at least 1, so these prefix products floor all three
        # multipliers.
        sp_below = [1] * (num + 1)
        for i in range(num):
            lvl = 1
            for f in region.s_factors[i].values():
                lvl *= f
            sp_below[i + 1] = sp_below[i] * lvl
        total_sp = sp_below[num]
        idx_below_cache: dict[int, list[int]] = {}
        for tinfo, ts, windowed, share_cap in self._tensors:
            acc = self.energy_ops / share_cap
            reads[tinfo.innermost] += acc
            if tinfo.is_output:
                writes[tinfo.innermost] += acc
            idx_below = idx_below_cache.get(tinfo.index)
            if idx_below is None:
                idx_below = [1] * (num + 1)
                for i in range(num):
                    lvl = 1
                    for d, f in region.s_factors[i].items():
                        if d in tinfo.indexing:
                            lvl *= f
                    idx_below[i + 1] = idx_below[i] * lvl
                idx_below_cache[tinfo.index] = idx_below
            for child, parent in tinfo.pairs:
                sizes = self._sizes_at(region, child, sizes_cache)
                sizes_key = tuple(sizes[d] for d in tinfo.rel_dims)
                fp = info.placement.footprint(tinfo.index, sizes, sizes_key)
                vol = float(fp) if ts is None else fp * traffic_scale(ts, fp)
                if not windowed:
                    t_rel = 1.0
                    t_above = self._t_above(region, child, above_cache)
                    for d in tinfo.rel_dims:
                        t_rel *= t_above.get(d, 1)
                    vol *= t_rel
                above_min = total_sp // sp_below[parent]
                child_vol = (vol * above_min
                             * (sp_below[parent] // sp_below[child]))
                parent_vol = (vol * above_min
                              * (idx_below[parent] // idx_below[child]))
                if ts is None and not windowed:
                    # Compulsory: the whole tensor crosses this pair at
                    # least once per parent instance (child side moves
                    # at least as much: between_all >= between_idx).
                    cover = tinfo.rel_total / self._instances[parent]
                    if cover > parent_vol:
                        parent_vol = cover
                    if cover > child_vol:
                        child_vol = cover
                if tinfo.is_output:
                    reads[child] += child_vol
                    writes[parent] += parent_vol
                else:
                    writes[child] += child_vol
                    reads[parent] += parent_vol
                for j in range(child, parent):
                    if j in info.fanout_set:
                        energy += parent_vol * info.network_energies[j]
        for i in range(num):
            energy += (reads[i] * info.read_energies[i]
                       + writes[i] * info.write_energies[i])
        if self.objective == "energy":
            return energy * _SAFETY
        lanes = self._max_lanes(region) * arch.mac_width
        cycles = float(self.cycle_ops) / float(max(lanes, 1))
        for i, arch_level in enumerate(arch.levels):
            inst = self._instances[i]
            if arch_level.read_bandwidth != math.inf:
                cycles = max(cycles,
                             reads[i] / inst / arch_level.read_bandwidth)
            if arch_level.write_bandwidth != math.inf:
                cycles = max(cycles,
                             writes[i] / inst / arch_level.write_bandwidth)
        # The exact model adds a further latency floor for finite
        # chip2chip link bandwidths; omitting it here only makes the
        # bound smaller, so it stays a sound lower bound.
        return energy * cycles * _SAFETY

    # ------------------------------------------------------------------
    # region geometry
    # ------------------------------------------------------------------
    def _sizes_at(self, region: Region, child: int,
                  cache: dict[int, dict[str, int]]) -> dict[str, int]:
        """Minimal tile sizes at ``child``: decided factors only (free
        factors can always be placed above, and footprints are monotone
        in sizes)."""
        sizes = cache.get(child)
        if sizes is None:
            sizes = dict.fromkeys(self.info.dim_names, 1)
            for i in range(child + 1):
                for d, f in region.t_factors[i].items():
                    sizes[d] *= f
            for i in range(child):
                for d, f in region.s_factors[i].items():
                    sizes[d] *= f
            cache[child] = sizes
        return sizes

    def _t_above(self, region: Region, child: int,
                 cache: dict[int, dict[str, int]]) -> dict[str, int]:
        """Decided temporal factor product per dim, strictly above
        ``child``."""
        above = cache.get(child)
        if above is None:
            above = {}
            for i in range(child + 1, self.info.num_levels):
                for d, f in region.t_factors[i].items():
                    above[d] = above.get(d, 1) * f
            cache[child] = above
        return above

    def _spatial_slack(self, region: Region) -> float:
        """Upper bound on the spatial factor product the free extents
        can still claim (room left at fanout boundaries the free factors
        may use), >= 1."""
        slack = 1.0
        for b in self.info.fanout_levels:
            used = 1
            for f in region.s_factors[b].values():
                used *= f
            slack *= self.arch.levels[b].fanout / max(1, used)
        return max(1.0, slack)

    def _max_lanes(self, region: Region) -> float:
        """Upper bound on ``used_lanes()`` over the region."""
        decided = 1
        for level in region.s_factors:
            for f in level.values():
                decided *= f
        if not region.free:
            return min(self._lanes_cap, decided)
        slack = self._spatial_slack(region)
        free_total = 1
        for e in region.free.values():
            free_total *= e
        return min(float(self._lanes_cap), decided * min(free_total, slack))
