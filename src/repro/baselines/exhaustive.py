"""Exhaustive oracle mapper for small problems.

Enumerates *every* mapping — the
:func:`~repro.mapspace.mapspace.full_mapping_space` of all prime-factor
distributions across temporal and spatial slots and all loop
permutations per level — and returns the best valid one.  Exponential;
guarded by an explicit budget (checked against the closed-form
:func:`~repro.mapspace.mapspace.full_space_size` before anything is
enumerated) so tests cannot hang.  Used to verify that Sunstone's pruning never rejects all optimal
mappings.

With ``bound=True`` (the default) the walk is branch-and-bound: the
space is traversed as a DFS over per-dimension factor-split prefixes,
and each prefix region is tested against the incumbent with one call
of the analytic :meth:`~repro.mapspace.bounds.BoundModel.region_bound`.
A pruned prefix discards every completion — all remaining split choices
*times* all ``P**num_levels`` loop-order combinations — in O(1), with
the skipped candidate count computed analytically (shard-aware).
Pruning only fires when the bound *strictly* exceeds the incumbent,
which preserves the first-attainer tie-break of the linear scan: the
returned mapping and cost are bit-identical to ``bound=False`` (pinned
by ``tests/test_bounds.py``).
"""

from __future__ import annotations

import time

from .. import optional_numpy
from ..arch.spec import Architecture
from ..mapping.mapping import Mapping
from ..mapspace.batch import SpaceDecoder, full_space_cohorts
from ..mapspace.bounds import BoundModel, Region
from ..mapspace.mapspace import (
    assemble_mapping,
    assignment_slots,
    full_mapping_space,
    full_space_lattices,
    full_space_size,
    order_permutations,
    stores_from_splits,
)
from ..search import SearchEngine
from ..sparse.spec import SparsitySpec
from ..workloads.expression import Workload
from .common import SearchResult, resolve_engine


class SearchBudgetExceeded(RuntimeError):
    """The exhaustive space is larger than the configured budget."""


def exhaustive_search(
    workload: Workload,
    arch: Architecture,
    max_evaluations: int = 2_000_000,
    orders_per_level: int | None = None,
    partial_reuse: bool = True,
    objective: str = "edp",
    engine: SearchEngine | None = None,
    cache: bool = True,
    sparsity: SparsitySpec | None = None,
    cache_size: int | None = None,
    shard: tuple[int, int] | None = None,
    bound: bool = True,
) -> SearchResult:
    """Enumerate the full mapping space and return the best valid mapping.

    ``orders_per_level`` caps the loop permutations tried per level (None =
    all).  ``shard=(i, n)`` walks only the ``i``-th of ``n`` disjoint
    deterministic shards of the space.  With numpy the space is
    index-decoded into matrix cohorts (same candidates, same order)
    instead of materializing one ``Mapping`` per candidate; the winner
    is bit-identical either way.  ``bound`` enables exact branch-and-bound
    pruning of whole split-prefix regions (identical winner and cost;
    see module docstring).  Raises :class:`SearchBudgetExceeded` when
    the space exceeds ``max_evaluations``.
    """
    start = time.perf_counter()
    size = full_space_size(workload, arch, orders_per_level)
    if size > max_evaluations:
        raise SearchBudgetExceeded(
            f"exhaustive space {size} exceeds budget {max_evaluations}"
        )

    cohorts = None
    if not bound:
        cohorts = full_space_cohorts(workload, arch, orders_per_level,
                                     shard=shard)

    best = None
    evaluations = 0
    certificate = None
    eng = resolve_engine(engine, cache, partial_reuse, sparsity, cache_size)
    if bound:
        best, evaluations, certificate = _branch_and_bound(
            workload, arch, orders_per_level, objective, eng, shard,
            partial_reuse, sparsity)
    elif cohorts is not None:
        # Vectorized generation: the space is index-decoded straight
        # into factor matrices in the exact enumeration order; only
        # per-cohort winners are materialized as Mappings.
        while True:
            gen_start = time.perf_counter()
            cohort = next(cohorts, None)
            eng.stats.add_stage_time(
                "generation", time.perf_counter() - gen_start)
            if cohort is None:
                break
            costs = eng.evaluate_cohort(cohort)
            for idx, cost in enumerate(costs):
                evaluations += 1
                if not cost.valid:
                    continue
                value = (cost.edp if objective == "edp"
                         else cost.energy_pj)
                if best is None or value < best[0]:
                    best = (value, cohort.materialize(idx), cost)
    else:
        buffer: list[Mapping] = []
        # Chunk size for batched evaluation; results are scanned in
        # enumeration order with a strict < so the winner matches the
        # one-at-a-time scan exactly.
        flush_at = 256

        def flush() -> None:
            nonlocal best, evaluations
            costs = eng.evaluate_many(buffer)
            for mapping, cost in zip(buffer, costs):
                evaluations += 1
                if not cost.valid:
                    continue
                value = (cost.edp if objective == "edp"
                         else cost.energy_pj)
                if best is None or value < best[0]:
                    best = (value, mapping, cost)
            buffer.clear()

        for mapping in full_mapping_space(workload, arch, orders_per_level,
                                          shard=shard):
            buffer.append(mapping)
            if len(buffer) >= flush_at:
                flush()
        flush()

    stats = eng.stats
    elapsed = time.perf_counter() - start
    if best is None:
        return SearchResult(
            mapper="exhaustive",
            mapping=None,
            cost=None,
            evaluations=evaluations,
            wall_time_s=elapsed,
            invalid_reason="no valid mapping exists",
            search_stats=stats,
        )
    if certificate is not None:
        certificate["best_value"] = best[0]
        lb = certificate["lower_bound"]
        if lb > 0:
            certificate["gap_pct"] = (best[0] / lb - 1.0) * 100.0
    return SearchResult(
        mapper="exhaustive",
        mapping=best[1],
        cost=best[2],
        evaluations=evaluations,
        wall_time_s=elapsed,
        search_stats=stats,
        certificate=certificate,
    )


def _branch_and_bound(
    workload: Workload,
    arch: Architecture,
    orders_per_level: int | None,
    objective: str,
    eng: SearchEngine,
    shard: tuple[int, int] | None,
    partial_reuse: bool,
    sparsity: SparsitySpec | None,
):
    """Best-first DFS over split prefixes with analytic region pruning.

    Each visited node bounds *all* of its children once, then descends
    in ascending-bound order — the incumbent converges to near-optimal
    quickly, so later (worse) siblings prune wholesale.  Exactness under
    the reordered traversal comes from the argmin rule: the winner is
    the lexicographic minimum of ``(value, enumeration_index)`` over
    evaluated candidates, which is exactly the first attainer a linear
    scan would crown, and the true winner can never be pruned (the bound
    of any region containing it is <= its value <= every incumbent,
    while pruning requires a *strictly* greater bound).

    Surviving leaves (full per-dimension splits) contribute their
    in-shard ordering-block indices; those are accumulated and
    index-decoded into matrix cohorts (numpy available) or materialized
    as ``Mapping`` objects, then streamed through the batched
    evaluator.
    """
    dims = list(workload.dim_names)
    num = arch.num_levels
    slots = assignment_slots(arch)
    lattice_items = [list(lattice.splits())
                     for lattice in full_space_lattices(workload, arch)]
    order_items = order_permutations(dims, orders_per_level)
    perms = len(order_items)
    block = perms ** num
    # tail[k]: candidates per fixed split prefix of length k.
    tail = [block] * (len(dims) + 1)
    for k in range(len(dims) - 1, -1, -1):
        tail[k] = tail[k + 1] * len(lattice_items[k])
    shard_index, shard_count = shard if shard is not None else (0, 1)

    def in_shard(base: int, count: int) -> int:
        """How many of the indices [base, base+count) land in the shard."""
        first = base + ((shard_index - base) % shard_count)
        if first >= base + count:
            return 0
        return (base + count - 1 - first) // shard_count + 1

    model = BoundModel(workload, arch, objective=objective,
                       partial_reuse=partial_reuse, sparsity=sparsity)
    stats = eng.stats
    best = None  # (value, enumeration_index, mapping, cost)
    evaluations = 0

    decoder = SpaceDecoder(workload, arch, perms)
    if not decoder.available:
        decoder = None

    def better(value: float, index: int) -> bool:
        return (best is None or value < best[0]
                or (value == best[0] and index < best[1]))

    if decoder is not None:
        np = optional_numpy.np
        pending: list = []  # int64 index arrays of surviving leaf blocks
        pending_n = 0
        flush_at = 1024

        def flush() -> None:
            nonlocal best, evaluations, pending, pending_n
            if not pending_n:
                return
            gen_start = time.perf_counter()
            ks = pending[0] if len(pending) == 1 else np.concatenate(pending)
            cohort = decoder.decode(ks)
            stats.add_stage_time(
                "generation", time.perf_counter() - gen_start)
            costs = eng.evaluate_cohort(cohort)
            for idx, cost in enumerate(costs):
                evaluations += 1
                if not cost.valid:
                    continue
                value = cost.edp if objective == "edp" else cost.energy_pj
                index = int(ks[idx])
                if better(value, index):
                    best = (value, index, cohort.materialize(idx), cost)
            pending = []
            pending_n = 0

        def emit_leaf(base: int, first: int) -> None:
            nonlocal pending_n
            pending.append(np.arange(first, base + block, shard_count,
                                     dtype=np.int64))
            pending_n += len(pending[-1])
            if pending_n >= flush_at:
                flush()
    else:
        # Same flush threshold and block-granularity cadence as the
        # vectorized path, so the incumbent trajectory — and therefore
        # every prune decision and the evaluation count — is identical
        # with and without numpy.
        buffer: list[tuple[int, Mapping]] = []
        flush_at = 1024

        def flush() -> None:
            nonlocal best, evaluations
            if not buffer:
                return
            costs = eng.evaluate_many([m for _, m in buffer])
            for (index, mapping), cost in zip(buffer, costs):
                evaluations += 1
                if not cost.valid:
                    continue
                value = cost.edp if objective == "edp" else cost.energy_pj
                if better(value, index):
                    best = (value, index, mapping, cost)
            buffer.clear()

        def emit_leaf(base: int, first: int) -> None:
            temporal, spatial = stores_from_splits(dims, prefix, slots, num)
            for index in range(first, base + block, shard_count):
                local = index - base
                orders = []
                for level in range(num):
                    digit = (local // perms ** (num - 1 - level)) % perms
                    orders.append(order_items[digit])
                buffer.append((index, assemble_mapping(
                    workload, arch, temporal, spatial, orders)))
            if len(buffer) >= flush_at:
                flush()

    prefix: list[tuple[int, ...]] = []

    def walk(k: int, base: int) -> None:
        if k == len(dims):
            first = base + ((shard_index - base) % shard_count)
            if first < base + block:
                emit_leaf(base, first)
            return
        stride = tail[k + 1]
        kids = []
        for j, split in enumerate(lattice_items[k]):
            prefix.append(split)
            region = Region.from_splits(
                workload, arch, dict(zip(dims, prefix)))
            prefix.pop()
            kids.append((model.region_bound(region), j, split))
            stats.bound_regions_tested += 1
        kids.sort(key=lambda kid: (kid[0], kid[1]))
        for pos, (value, j, split) in enumerate(kids):
            # Strict >: a region whose bound merely equals the incumbent
            # could still hold an equal-value candidate that outranks the
            # incumbent on enumeration index.
            if best is not None and value > best[0]:
                # Siblings are sorted by bound, so everything from here
                # on prunes against the same incumbent.
                for _, j2, _ in kids[pos:]:
                    stats.bound_regions_pruned += 1
                    stats.bound_candidates_skipped += in_shard(
                        base + j2 * stride, stride)
                return
            prefix.append(split)
            walk(k + 1, base + j * stride)
            prefix.pop()

    walk(0, 0)
    flush()
    certificate = {"lower_bound": model.space_bound()}
    if best is not None:
        best = (best[0], best[2], best[3])
    return best, evaluations, certificate
