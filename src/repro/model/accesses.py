"""Analytical per-level access counting (the Timeloop-style cost model core).

Semantics
---------
The mapping encodes a single loop nest, outermost (DRAM) to innermost, with
spatial (parallel) loops interleaved at the fanout boundaries.  For every
tensor we derive, per pair of adjacent *storage* levels (bypassed levels are
skipped), the data volume moved between them:

* **Temporal fills.**  Per child instance, a tile is refetched once per
  iteration of the flattened temporal loops above the child, except that a
  trailing (innermost) run of loops over non-indexing dimensions reuses the
  resident tile (Ordering Principles 1-3).  Formally the fill multiplier is
  the product of the bounds of every temporal loop at or above the innermost
  loop over a dimension that indexes the tensor.

* **Sliding-window partial reuse.**  When the innermost *relevant* loop is
  part of a window coordinate (e.g. ``P`` of ``p + r``), consecutive fetches
  overlap; only the new slice is fetched after the first iteration of that
  loop (paper §IV, Table III "partially reused by").

* **Spatial multicast.**  At the fanout boundaries between child and parent
  storage, factors over non-indexing dimensions broadcast the same words to
  several children: the parent is read once, every child is written.

* **Spatial reduction / accumulation (outputs).**  Non-indexing spatial
  factors merge partial outputs on the way up (the parent is written once).
  When reduction loops iterate *above* the child storage level, partial sums
  are drained to the parent and read back — counted as extra parent reads
  and child writes.

The model is validated against a brute-force loop-nest interpreter in
``repro.model.reference`` (exact match for non-windowed tensors).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mapping.mapping import Mapping
from ..sparse.saf import compute_scales
from ..sparse.spec import SparsitySpec
from .terms import MappingView, ModelInfo, model_info, pair_term


@dataclass
class LevelAccesses:
    """Access totals for one memory level (machine-wide, in words)."""

    reads: float = 0.0
    writes: float = 0.0

    @property
    def total(self) -> float:
        """Reads plus writes."""
        return self.reads + self.writes


@dataclass
class TransferVolume:
    """Traffic of one storage pair (child level, parent level), in words."""

    child_side: float = 0.0  # words entering/leaving every child instance
    parent_side: float = 0.0  # words read from / written to the parent
    readback_child: float = 0.0  # accumulation partials restored into child
    readback_parent: float = 0.0  # accumulation partials re-read from parent


@dataclass
class TensorTraffic:
    """Per-tensor traffic summary used by tests and the scheduler."""

    tensor: str
    # accesses[level_index] -> LevelAccesses attributable to this tensor
    accesses: dict[int, LevelAccesses] = field(default_factory=dict)
    # transfers[(child, parent)] -> per-pair volumes
    transfers: dict[tuple[int, int], TransferVolume] = field(
        default_factory=dict)

    def at(self, level: int) -> LevelAccesses:
        """This tensor's accesses at one level (created on first use)."""
        return self.accesses.setdefault(level, LevelAccesses())

    def pair(self, child: int, parent: int) -> TransferVolume:
        """Traffic of one (child, parent) storage pair."""
        return self.transfers.setdefault((child, parent), TransferVolume())


@dataclass
class AccessCounts:
    """Full access-count result for a mapping.

    ``total_ops`` is the dense iteration-space volume.  ``energy_ops``
    and ``cycle_ops`` are the effective MAC counts after sparse
    compute-action optimizations (gating elides energy only, skipping
    elides energy and cycles); without a sparsity spec both equal
    ``total_ops``.
    """

    levels: list[LevelAccesses]
    per_tensor: dict[str, TensorTraffic]
    noc_words: dict[int, float]  # boundary level index -> words crossing
    total_ops: int
    energy_ops: float = 0.0
    cycle_ops: float = 0.0

    def __post_init__(self) -> None:
        if not self.energy_ops:
            self.energy_ops = self.total_ops
        if not self.cycle_ops:
            self.cycle_ops = self.total_ops

    def level_total(self, index: int) -> float:
        """Total words moved through one level (reads + writes)."""
        return self.levels[index].total


def count_accesses(mapping: Mapping, partial_reuse: bool = True,
                   sparsity: SparsitySpec | None = None, *,
                   info: ModelInfo | None = None) -> AccessCounts:
    """Count machine-wide reads/writes per level for ``mapping``.

    ``sparsity`` optionally scales the dense counts into expected sparse
    traffic (Sparseloop's expected-value formulation, docs/SPARSE.md):
    per-tensor transfers shrink by the compressed-tile word ratio, and
    the compute-side accesses and MAC counts shrink by the effectual
    fraction under gating/skipping.  ``None`` (the default) — and any
    spec whose densities are 1.0 — leaves every count bit-identical to
    the dense model.  Spec entries naming tensors this workload does not
    have are ignored.

    ``info`` optionally supplies pre-hoisted per-(workload, arch)
    invariants (see :mod:`repro.model.terms`), a pure accelerator: every
    count is bit-identical with or without it.
    """
    arch = mapping.arch
    workload = mapping.workload
    if info is None or info.workload is not workload or info.arch is not arch:
        info = model_info(workload, arch)
    view = MappingView(mapping, info)

    num = info.num_levels
    levels = [LevelAccesses() for _ in range(num)]
    per_tensor = {name: TensorTraffic(name) for name in info.tensor_names}
    noc_words: dict[int, float] = {i: 0.0 for i in info.fanout_levels}

    total_ops = info.total_ops
    energy_ops: float = total_ops
    cycle_ops: float = total_ops
    op_scale = 1.0
    if sparsity is not None:
        op_scale, cycle_scale = compute_scales(sparsity, info.tensor_names)
        energy_ops = total_ops * op_scale
        cycle_ops = total_ops * cycle_scale

    for tinfo in info.tensors:
        traffic = per_tensor[tinfo.name]
        spec = sparsity.get(tinfo.name) if sparsity is not None else None
        innermost = tinfo.innermost

        # ---- compute-side accesses at the innermost storage level ----
        # Lanes below the innermost storage share a read when they differ
        # only in non-indexing dimensions (broadcast wire / adder tree).
        compute_accesses = float(total_ops) / float(view.share(tinfo))
        if sparsity is not None:
            # Elided (gated/skipped) MACs touch no operands and merge no
            # partial output: innermost accesses track effectual MACs.
            compute_accesses = compute_accesses * op_scale
        if tinfo.is_output:
            # Read-modify-write accumulation at the innermost buffer.
            traffic.at(innermost).writes += compute_accesses
            traffic.at(innermost).reads += compute_accesses
            levels[innermost].writes += compute_accesses
            levels[innermost].reads += compute_accesses
        else:
            traffic.at(innermost).reads += compute_accesses
            levels[innermost].reads += compute_accesses

        # ---- transfers between adjacent storage levels ----
        for child, parent in tinfo.pairs:
            fills, distinct, fill_words, pair_words = pair_term(
                info, tinfo, view, child, partial_reuse, spec)
            between_idx, between_all = view.between(tinfo, child, parent)
            above = view.inst_above[parent]

            child_side = fill_words * between_all * above
            parent_side = fill_words * between_idx * above
            volume = traffic.pair(child, parent)
            volume.child_side += child_side
            volume.parent_side += parent_side

            if tinfo.is_output:
                # Drain partial/final results up; reduce non-indexing
                # spatial copies on the way.
                traffic.at(child).reads += child_side
                traffic.at(parent).writes += parent_side
                levels[child].reads += child_side
                levels[parent].writes += parent_side
                # Accumulation read-back: every non-first visit to a tile
                # must restore partials from the parent.
                revisit = fills - distinct
                if revisit > 0:
                    back_child = float(revisit) * pair_words \
                        * between_all * above
                    back_parent = float(revisit) * pair_words \
                        * between_idx * above
                    volume.readback_child += back_child
                    volume.readback_parent += back_parent
                    traffic.at(child).writes += back_child
                    traffic.at(parent).reads += back_parent
                    levels[child].writes += back_child
                    levels[parent].reads += back_parent
            else:
                traffic.at(child).writes += child_side
                traffic.at(parent).reads += parent_side
                levels[child].writes += child_side
                levels[parent].reads += parent_side

            # NoC traffic: unique words crossing each fanout boundary
            # between the two storage levels.
            for j in range(child, parent):
                if j in info.fanout_set:
                    noc_words[j] += parent_side

    return AccessCounts(
        levels=levels,
        per_tensor=per_tensor,
        noc_words=noc_words,
        total_ops=total_ops,
        energy_ops=energy_ops,
        cycle_ops=cycle_ops,
    )
