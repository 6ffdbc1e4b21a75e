"""Exhaustive oracle mapper for small problems.

Finds the best valid mapping of the *whole* mapping space — all
prime-factor distributions across temporal and spatial slots and all
loop permutations per level, in the enumeration order of
:class:`~repro.mapspace.batch.SpaceDecoder`.  Exponential; guarded by an
explicit budget (checked against the closed-form
:func:`~repro.mapspace.mapspace.full_space_size` before anything is
enumerated) so tests cannot hang.  Used to verify that Sunstone's
pruning never rejects all optimal mappings.

The walk is branch-and-bound: the space is traversed as a DFS over
per-dimension factor-split prefixes, and each prefix region is tested
against the incumbent with one call of the analytic
:meth:`~repro.mapspace.bounds.BoundModel.region_bound`.  A pruned prefix
discards every completion — all remaining split choices *times* all
``P**num_levels`` loop-order combinations — in O(1), with the skipped
candidate count computed analytically (shard-aware).  Surviving leaves
are decoded by index into cohorts and evaluated in enumeration-index
batches.  Pruning only fires when the bound *strictly* exceeds the
incumbent, which preserves the first-attainer tie-break of a linear
scan: the returned mapping and cost are bit-identical to the argmin of
the unpruned stream (pinned by ``tests/test_bounds.py`` against the
test oracle's stream).
"""

from __future__ import annotations

import time

from ..arch.spec import Architecture
from ..mapspace.batch import SpaceDecoder
from ..mapspace.bounds import BoundModel, Region
from ..mapspace.mapspace import full_space_size
from ..mapspace.spaces import BoundStats, check_shard
from ..search import SearchEngine
from ..sparse.spec import SparsitySpec
from ..workloads.expression import Workload
from .common import SearchResult, certificate_from_bound, resolve_engine


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
) -> SearchResult:
    """Search the full mapping space and return the best valid mapping.

    ``orders_per_level`` caps the loop permutations tried per level (None =
    all).  ``shard=(i, n)`` walks only the ``i``-th of ``n`` disjoint
    deterministic shards of the space.  Found results carry the
    optimality certificate of the whole-space bound.  Raises
    :class:`SearchBudgetExceeded` when the space exceeds
    ``max_evaluations``.
    """
    start = time.perf_counter()
    size = full_space_size(workload, arch, orders_per_level)
    if size > max_evaluations:
        raise SearchBudgetExceeded(
            f"exhaustive space {size} exceeds budget {max_evaluations}"
        )
    shard = check_shard(shard) or (0, 1)
    eng = resolve_engine(engine, cache, partial_reuse, sparsity, cache_size)
    model = BoundModel(workload, arch, objective=objective,
                       partial_reuse=partial_reuse, sparsity=sparsity)
    decoder = SpaceDecoder(workload, arch, orders_per_level)
    best, evaluations = _branch_and_bound(decoder, model, eng, objective,
                                          shard)
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
    value, _, mapping, cost = best
    return SearchResult(
        mapper="exhaustive",
        mapping=mapping,
        cost=cost,
        evaluations=evaluations,
        wall_time_s=elapsed,
        search_stats=stats,
        certificate=certificate_from_bound(
            BoundStats(lower_bound=model.space_bound(), best_value=value)),
    )


def _branch_and_bound(
    decoder: SpaceDecoder,
    model: BoundModel,
    eng: SearchEngine,
    objective: str,
    shard: tuple[int, int],
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
    in-shard loop-order block indices; those are accumulated and decoded
    into cohorts by ``decoder``.  Returns ``(best, evaluations)`` with
    ``best = (value, index, mapping, cost)`` or ``None``.
    """
    workload, arch = decoder.workload, decoder.arch
    dims = decoder.dims
    splits = decoder.splits
    # tail[k]: candidates per fixed split prefix of length k.
    tail = [1] * (len(decoder.radices) + 1)
    for k in range(len(decoder.radices) - 1, -1, -1):
        tail[k] = tail[k + 1] * decoder.radices[k]
    block = tail[len(dims)]
    shard_index, shard_count = shard

    def in_shard(base: int, count: int) -> int:
        """How many of the indices [base, base+count) land in the shard."""
        first = base + ((shard_index - base) % shard_count)
        if first >= base + count:
            return 0
        return (base + count - 1 - first) // shard_count + 1

    stats = eng.stats
    best = None  # (value, enumeration_index, mapping, cost)
    evaluations = 0
    pending: list[int] = []  # in-shard indices of surviving leaf blocks
    # Surviving candidates are evaluated in cohorts of at least this
    # many rows.  The cadence fixes the incumbent trajectory, and so
    # every prune decision and the evaluation count.
    flush_at = 1024

    def better(value: float, index: int) -> bool:
        return (best is None or value < best[0]
                or (value == best[0] and index < best[1]))

    def flush() -> None:
        nonlocal best, evaluations
        if not pending:
            return
        gen_start = time.perf_counter()
        cohort = decoder.decode(pending)
        stats.add_stage_time("generation", time.perf_counter() - gen_start)
        costs = eng.evaluate_cohort(cohort)
        for row, (index, cost) in enumerate(zip(pending, costs)):
            evaluations += 1
            if not cost.valid:
                continue
            value = cost.edp if objective == "edp" else cost.energy_pj
            if better(value, index):
                best = (value, index, cohort.materialize(row), cost)
        pending.clear()

    prefix: list[tuple[int, ...]] = []

    def walk(k: int, base: int) -> None:
        if k == len(dims):
            first = base + ((shard_index - base) % shard_count)
            pending.extend(range(first, base + block, shard_count))
            if len(pending) >= flush_at:
                flush()
            return
        stride = tail[k + 1]
        kids = []
        for j, split in enumerate(splits[k]):
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
    return best, evaluations
