"""Factored cost-model terms shared by the scalar and vectorised paths.

The access model of :mod:`repro.model.accesses` decomposes, per tensor and
per adjacent storage pair ``(child, parent)``, into one *contribution term*

    ``(fills, distinct, fill_words, pair_words)``

that depends only on a **level-local fingerprint**: the child tile's span
over the tensor's indexing dimensions, the fill multiplier, the innermost
temporal loop that indexes the tensor, and the distinct-tile count.  The
fill multiplier never needs the whole flattened nest: with ``t_all`` the
product of every temporal bound above the child and ``trailing`` the
product of the non-indexing run below the innermost relevant loop,

    ``fills = t_all // trailing``            (exact integer division)
    ``distinct = t_rel``                     (product of relevant bounds)

both following directly from the Ordering Principles (paper §IV).

Everything here is shared by the scalar path (:func:`~repro.model.accesses.
count_accesses`) and the vectorised path (:mod:`repro.model.batch`, which
computes each distinct fingerprint of a cohort once): both call the same
term function, which is what makes them bit-identical by construction.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..mapping.placement import PlacementTable, pair_memo, placement_table
from ..sparse.saf import traffic_scale

if TYPE_CHECKING:
    from ..arch.spec import Architecture
    from ..mapping.mapping import Mapping
    from ..sparse.spec import TensorSparsity
    from ..workloads.expression import IndexExpr, TensorRef, Workload


# ---------------------------------------------------------------------------
# workload/architecture invariants, hoisted once per (workload, arch) pair
# ---------------------------------------------------------------------------

class TensorModelInfo:
    """Per-tensor invariants the model reads on every evaluation."""

    __slots__ = ("index", "name", "is_output", "indexing", "rel_dims",
                 "rel_idx", "rel_total", "pairs", "innermost", "windows")

    def __init__(self, index: int, tensor: "TensorRef",
                 placement: PlacementTable, dim_index: dict[str, int]
                 ) -> None:
        self.index = index
        self.name = tensor.name
        self.is_output = tensor.is_output
        self.indexing: frozenset[str] = tensor.indexing_dims
        # The storage chain: the levels that are their own home.
        storage = sorted(set(placement.homes[index]))
        self.pairs = tuple(zip(storage, storage[1:]))
        self.innermost = storage[0]
        # Indexing dimensions in workload order (the tile spans over
        # these are the only sizes the tensor's term reads), their
        # positions, and the product of the problem sizes over them.
        self.rel_dims: tuple[str, ...] = placement.rel_dims[index]
        self.rel_idx = tuple(dim_index[d] for d in self.rel_dims)
        self.rel_total = math.prod(
            placement.workload.dims[d] for d in self.rel_dims)
        # dim -> the first sliding-window expression containing it.
        windows: dict[str, "IndexExpr"] = {}
        for expr in tensor.indices:
            if expr.is_window:
                for d in expr.dims:
                    windows.setdefault(d, expr)
        self.windows = windows


class ModelInfo:
    """Hoisted per-(workload, architecture) invariants of the cost model.

    Built once (and memoised by :func:`model_info`) so the thousands of
    candidate evaluations of one search never re-derive storage levels,
    indexing sets or window structure.
    """

    def __init__(self, workload: "Workload", arch: "Architecture") -> None:
        self.workload = workload
        self.arch = arch
        self.num_levels = arch.num_levels
        self.total_ops = workload.total_operations
        self.dims = workload.dims
        self.tensor_names = [t.name for t in workload.tensors]
        self.fanout_levels = tuple(
            i for i, lvl in enumerate(arch.levels) if lvl.fanout > 1
        )
        self.fanout_set = frozenset(self.fanout_levels)
        # Resolved per-level energies, gathered once from the architecture's
        # energy reference table (the Accelergy-style ERT artefact).  The
        # hot paths multiply these plain floats; a technology pack that
        # failed to define an action fails here with full context instead
        # of mid-evaluation.
        table = arch.energy_table()
        self.energy_table = table
        self.read_energies = tuple(
            table.energy(lvl.name, "read", level=lvl.name)
            for lvl in arch.levels)
        self.write_energies = tuple(
            table.energy(lvl.name, "write", level=lvl.name)
            for lvl in arch.levels)
        self.network_energies = tuple(
            table.energy(lvl.name, "transfer", level=lvl.name)
            if lvl.fanout > 1 else 0.0
            for lvl in arch.levels)
        self.mac_energy = table.energy("MAC", "compute")
        # chip2chip boundaries: fanout levels whose link is a package-level
        # chiplet link.  Their traffic is reported separately and their
        # finite link bandwidth contributes a latency term.
        self.chip2chip_levels = frozenset(
            i for i in self.fanout_levels if arch.levels[i].link == "chip2chip")
        self.link_bandwidths = tuple(
            (i, arch.levels[i].link_bandwidth)
            for i in self.fanout_levels
            if arch.levels[i].link_bandwidth != float("inf"))
        self.dim_names = tuple(workload.dim_names)
        self.dim_index = {d: i for i, d in enumerate(self.dim_names)}
        # Where each tensor lives: its storage chain and every capacity
        # slot come from the one placement table.
        self.placement = placement_table(workload, arch)
        self.tensors = [
            TensorModelInfo(index, tensor, self.placement, self.dim_index)
            for index, tensor in enumerate(workload.tensors)]


# Memoised ModelInfo for one (workload, arch) object pair.
model_info = pair_memo(ModelInfo)


# ---------------------------------------------------------------------------
# per-mapping geometry
# ---------------------------------------------------------------------------

class MappingView:
    """Integer geometry of one mapping, laid out for term extraction.

    Everything is exact integer arithmetic over the per-level tile bounds:
    spatial suffix products (machine instances, multicast boundaries),
    temporal suffix products (the ``t_all`` of the fill identity) and the
    per-dimension spatial products the relevant-loop quotients divide by.
    """

    __slots__ = ("mapping", "info", "nests", "sp_all", "sp_counts",
                 "inst_above", "t_from", "sp_all_below",
                 "_sp_idx", "_suffix_info")

    def __init__(self, mapping: "Mapping", info: ModelInfo) -> None:
        self.mapping = mapping
        self.info = info
        num = info.num_levels
        levels = mapping.levels
        self.nests = [lvl._nontrivial_temporal for lvl in levels]
        sp_all = [lvl._spatial_size for lvl in levels]
        self.sp_all = sp_all
        self.sp_counts = [len(lvl._nontrivial_spatial) for lvl in levels]
        # sp_all_below[l]: overall spatial product of levels < l.
        below = [1] * (num + 1)
        acc = 1
        for l in range(num):
            acc *= sp_all[l]
            below[l + 1] = acc
        self.sp_all_below = below
        # inst_above[l]: machine-wide instances of level l (1 past the
        # top); the spatial prefix products divide the total exactly.
        self.inst_above = [acc // below[l] for l in range(num + 1)]
        # t_from[l]: product of every temporal bound at levels >= l.
        t_from = [1] * (num + 1)
        acc = 1
        for l in range(num - 1, -1, -1):
            acc *= levels[l]._temporal_product
            t_from[l] = acc
        self.t_from = t_from
        # Lazy per-tensor indexing-spatial prefix products and per-child
        # shared suffix walks.
        self._sp_idx: dict[int, list[int]] = {}
        self._suffix_info: dict[int, list[tuple]] = {}

    def sp_idx_below(self, tinfo: TensorModelInfo) -> list[int]:
        """Prefix products of the tensor-indexing spatial factors:
        ``sp_idx_below(t)[l]`` multiplies the indexing-dimension spatial
        factors of every level ``< l`` (so ratios give range products)."""
        cached = self._sp_idx.get(tinfo.index)
        if cached is None:
            indexing = tinfo.indexing
            levels = self.mapping.levels
            num = self.info.num_levels
            cached = [1] * (num + 1)
            for j in range(num):
                prod = 1
                for d, f in levels[j].spatial:
                    if d in indexing:
                        prod *= f
                cached[j + 1] = cached[j] * prod
            self._sp_idx[tinfo.index] = cached
        return cached

    def share(self, tinfo: TensorModelInfo) -> int:
        """Lanes below the innermost storage sharing one operand read."""
        inner = tinfo.innermost
        # Indexing factors divide the overall product level by level, so
        # the prefix-product ratio equals the per-level quotient product.
        return (self.sp_all_below[inner]
                // self.sp_idx_below(tinfo)[inner])

    def between(self, tinfo: TensorModelInfo, child: int, parent: int
                ) -> tuple[int, int]:
        """(indexing, overall) spatial products across [child, parent)."""
        idx = self.sp_idx_below(tinfo)
        return (idx[parent] // idx[child],
                self.sp_all_below[parent] // self.sp_all_below[child])

    def suffix_info(self, child: int) -> list[tuple]:
        """Per-tensor trailing temporal run above ``child``, in one walk.

        Entry ``i`` (for ``info.tensors[i]``) is ``(sfx, trailing,
        inner_dim, inner_bound)``: the innermost-first suffix up to and
        including the innermost loop over an indexing dimension of the
        tensor, the bound product of the run below that loop, and that
        loop itself.  ``(None, 1, None, 1)`` when no relevant loop exists
        above (the tile is fetched once).  All tensors share one walk.
        """
        cached = self._suffix_info.get(child)
        if cached is not None:
            return cached
        tensors = self.info.tensors
        pending = {t.index: t.indexing for t in tensors}
        out: list[tuple] = [(None, 1, None, 1)] * len(tensors)
        walk: list[tuple[str, int]] = []
        trailing = 1
        for l in range(child + 1, self.info.num_levels):
            if not pending:
                break
            for d, b in reversed(self.nests[l]):
                walk.append((d, b))
                found = [i for i, idx in pending.items() if d in idx]
                if found:
                    sfx = tuple(walk)
                    for i in found:
                        out[i] = (sfx, trailing, d, b)
                        del pending[i]
                    if not pending:
                        break
                trailing *= b
        self._suffix_info[child] = out
        return out

# ---------------------------------------------------------------------------
# the term
# ---------------------------------------------------------------------------

def _window_fill_words(tinfo: TensorModelInfo, sizes: dict[str, int],
                       fills: int, inner_dim: str, inner_bound: int,
                       footprint: int) -> float:
    """Fill volume with sliding-window overlap removed (accesses §IV)."""
    expr = tinfo.windows.get(inner_dim)
    if expr is None or inner_bound <= 1:
        return float(fills) * footprint
    extent = expr.extent(sizes)
    if inner_dim == expr.dims[0]:
        step = sizes.get(inner_dim, 1) * expr.stride
    else:
        step = sizes.get(inner_dim, 1)
    step = min(step, extent)
    other = footprint / extent
    sweeps = fills / inner_bound
    return sweeps * (other * (extent + (inner_bound - 1) * step))


def pair_term(
    info: ModelInfo,
    tinfo: TensorModelInfo,
    view: MappingView,
    child: int,
    partial_reuse: bool,
    spec: "TensorSparsity | None",
) -> tuple[int, int, float, float]:
    """Contribution term of one (tensor, child storage level).

    Returns ``(fills, distinct, fill_words, pair_words)``:

    * ``fills`` — temporal tile refetches per child instance (exact int);
    * ``distinct`` — distinct tiles visited (exact int; ``fills -
      distinct`` is the accumulation-readback revisit count);
    * ``fill_words`` — words per fill sequence, window overlap removed
      and sparse traffic scaling applied;
    * ``pair_words`` — stored words of one child tile (sparse-scaled).
    """
    sizes = view.mapping.cumulative_sizes(child)
    rel = tinfo.rel_dims
    sizes_key = tuple(sizes[d] for d in rel)
    # Relevant temporal product above the child, straight from the factor
    # identity: size = tile span x spatial>=child x temporal>child, so
    # over the indexing dims t_rel = rel_total / (span x spatial>=child),
    # with spatial>=child the exact prefix-product ratio.
    idx = view.sp_idx_below(tinfo)
    span_prod = 1
    for s in sizes_key:
        span_prod *= s
    t_rel = tinfo.rel_total // (
        span_prod * (idx[info.num_levels] // idx[child]))
    if t_rel == 1:
        # No relevant loop above: the tile is resident for the whole run.
        fills = 1
        inner_dim = None
        inner_bound = 1
    else:
        _, trailing, inner_dim, inner_bound = \
            view.suffix_info(child)[tinfo.index]
        fills = view.t_from[child + 1] // trailing
    return _compute_term(info, tinfo, sizes, sizes_key, fills, inner_dim,
                         inner_bound, t_rel, partial_reuse, spec)


def _compute_term(info, tinfo, sizes, sizes_key, fills, inner_dim,
                  inner_bound, t_rel, partial_reuse, spec):
    footprint = info.placement.footprint(tinfo.index, sizes, sizes_key)
    if partial_reuse and not tinfo.is_output and inner_dim is not None:
        fill_words = _window_fill_words(tinfo, sizes, fills, inner_dim,
                                        inner_bound, footprint)
    else:
        fill_words = float(fills) * footprint
    pair_words = float(footprint)
    if spec is not None:
        pair_scale = traffic_scale(spec, footprint)
        fill_words = fill_words * pair_scale
        pair_words = footprint * pair_scale
    return fills, t_rel, fill_words, pair_words
