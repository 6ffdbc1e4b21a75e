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

from collections import OrderedDict
from typing import TYPE_CHECKING

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

    __slots__ = ("index", "tensor", "name", "role", "is_output", "indexing",
                 "rel_dims", "rel_idx", "rel_total", "storage", "pairs",
                 "innermost", "windows")

    def __init__(self, index: int, tensor: "TensorRef",
                 storage: tuple[int, ...]) -> None:
        self.index = index
        self.tensor = tensor
        self.name = tensor.name
        self.role = tensor.role
        self.is_output = tensor.is_output
        self.indexing: frozenset[str] = tensor.indexing_dims
        self.storage = storage
        self.pairs = tuple(zip(storage, storage[1:]))
        self.innermost = storage[0]
        # Indexing dimensions in workload order: the tile spans over these
        # dimensions are the only sizes the tensor's term reads.
        self.rel_dims: tuple[str, ...] = ()
        # Positions of rel_dims in the workload dimension order and the
        # product of the problem sizes over them (set by ModelInfo).
        self.rel_idx: tuple[int, ...] = ()
        self.rel_total: int = 1
        # dim -> the first sliding-window expression containing it
        # (mirrors accesses._window_expr_for's first-match semantics).
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
    indexing sets or footpr/window structure.
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
        self.tensors: list[TensorModelInfo] = []
        dim_names = workload.dim_names
        for index, tensor in enumerate(workload.tensors):
            storage = arch.storage_levels(tensor.role)
            if not storage:
                raise ValueError(
                    f"tensor {tensor.name} (role {tensor.role}) "
                    f"is stored nowhere"
                )
            tinfo = TensorModelInfo(index, tensor, tuple(storage))
            tinfo.rel_dims = tuple(d for d in dim_names if d in tinfo.indexing)
            tinfo.rel_idx = tuple(self.dim_index[d] for d in tinfo.rel_dims)
            rel_total = 1
            for d in tinfo.rel_dims:
                rel_total *= workload.dims[d]
            tinfo.rel_total = rel_total
            self.tensors.append(tinfo)
        # Footprint memo shared by terms and the fast validity check:
        # (tensor index, tile spans over rel_dims) -> words.
        self._footprints: dict[tuple, int] = {}
        # Per-level capacity-check metadata for the cohort validity check:
        # (arch level, "skip"|"unified"|"per-role", payload, union_dims,
        # union_idx).
        # Unified payload: (cap, stored tinfos); per-role payload:
        # ((role, cap, tinfos), ...) with roles in first-tensor-encounter
        # order, which mirrors the usage-dict insertion order of
        # Mapping.validate.  ``union_dims`` (workload order) spans every
        # stored tensor's indexing set: the tile sizes over it determine
        # the level's capacity verdict, so it keys the cohort memo.
        self.level_checks = []
        for arch_level in arch.levels:
            if arch_level.is_unbounded:
                self.level_checks.append((arch_level, "skip", None, (), ()))
                continue
            by_role: dict[str, list[TensorModelInfo]] = {}
            for tinfo in self.tensors:
                if arch_level.stores(tinfo.role):
                    by_role.setdefault(tinfo.role, []).append(tinfo)
            stored = tuple(t for group in by_role.values() for t in group)
            union = frozenset().union(*(t.indexing for t in stored)) \
                if stored else frozenset()
            union_dims = tuple(d for d in dim_names if d in union)
            union_idx = tuple(self.dim_index[d] for d in union_dims)
            if arch_level.is_unified:
                self.level_checks.append(
                    (arch_level, "unified",
                     (arch_level.capacity_for("*"), stored),
                     union_dims, union_idx))
            else:
                self.level_checks.append(
                    (arch_level, "per-role",
                     tuple((role, arch_level.capacity_for(role),
                            tuple(group))
                           for role, group in by_role.items()),
                     union_dims, union_idx))

    def footprint(self, tinfo: TensorModelInfo,
                  sizes: dict[str, int], sizes_key: tuple) -> int:
        key = (tinfo.index, sizes_key)
        cached = self._footprints.get(key)
        if cached is None:
            if len(self._footprints) > 500_000:
                self._footprints.clear()
            cached = tinfo.tensor.footprint(sizes)
            self._footprints[key] = cached
        return cached


_INFO_CACHE: "OrderedDict[tuple[int, int], ModelInfo]" = OrderedDict()
_INFO_MAX = 64


def model_info(workload: "Workload", arch: "Architecture") -> ModelInfo:
    """Memoised :class:`ModelInfo` for one (workload, arch) object pair."""
    key = (id(workload), id(arch))
    entry = _INFO_CACHE.get(key)
    if (entry is not None and entry.workload is workload
            and entry.arch is arch):
        _INFO_CACHE.move_to_end(key)
        return entry
    entry = ModelInfo(workload, arch)
    _INFO_CACHE[key] = entry
    _INFO_CACHE.move_to_end(key)
    while len(_INFO_CACHE) > _INFO_MAX:
        _INFO_CACHE.popitem(last=False)
    return entry


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
    footprint = info.footprint(tinfo, sizes, sizes_key)
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


# ---------------------------------------------------------------------------
# fast validity check (mirrors Mapping.validate via the footprint memo)
# ---------------------------------------------------------------------------

def _level_problems(info, arch_level, kind, payload, sp_size, sp_count,
                    sizes):
    """One level's violation strings, identical in wording and order to
    :meth:`repro.mapping.mapping.Mapping.validate` (pinned by
    ``tests/test_model_batch.py``)."""
    problems: list[str] = []
    if sp_size > arch_level.fanout:
        problems.append(
            f"level {arch_level.name}: spatial unrolling "
            f"{sp_size} exceeds fanout {arch_level.fanout}"
        )
    if sp_count > 2:
        problems.append(
            f"level {arch_level.name}: {sp_count} dimensions "
            f"unrolled across a 2D fanout"
        )
    if kind == "skip":
        return problems
    footprint = info.footprint
    if kind == "unified":
        cap, stored = payload
        total = 0
        for tinfo in stored:
            sizes_key = tuple(sizes[d] for d in tinfo.rel_dims)
            total += footprint(tinfo, sizes, sizes_key)
        if cap is not None and total > cap:
            problems.append(
                f"level {arch_level.name}: tile of {total} words "
                f"exceeds unified capacity {cap}"
            )
    else:
        for role, cap, group in payload:
            used = 0
            for tinfo in group:
                sizes_key = tuple(sizes[d] for d in tinfo.rel_dims)
                used += footprint(tinfo, sizes, sizes_key)
            if cap is not None and used > cap:
                problems.append(
                    f"level {arch_level.name}: {role} tile of {used} "
                    f"words exceeds capacity {cap}"
                )
    return problems
