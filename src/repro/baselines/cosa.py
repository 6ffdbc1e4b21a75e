"""CoSA-like one-shot constrained-optimisation mapper (§V, "CoSA").

CoSA formulates mapping as a mixed-integer program over prime-factor
assignments, maximising utilisation and data reuse subject to *linearised*
buffer-capacity constraints, and emits a single mapping without ever
invoking a cost model.  We reproduce that strategy with a deterministic
greedy solver over the same log-space relaxation:

* prime factors of every dimension are assigned to (level, temporal) or
  (boundary, spatial) slots;
* spatial slots are filled first to maximise utilisation;
* temporal factors are packed bottom-up while a **linear capacity proxy**
  admits them — the proxy splits each buffer evenly between the tensors it
  stores and ignores sliding-window halos and footprint interactions.

Exactly because the capacity model is linearised, the emitted mapping
frequently overflows the real buffers: the paper reports ~60 % invalid
mappings on the Simba-like architecture, and this implementation reproduces
that failure mode.  It is, however, extremely fast (a single evaluation).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ..arch.spec import Architecture
from ..mapping.mapping import build_mapping
from ..mapping.placement import placement_table
from ..mapspace.factor import prime_factors
from ..mapspace.mapspace import spatial_boundaries
from ..search import SearchEngine
from ..sparse.spec import SparsitySpec
from ..workloads.expression import Workload
from .common import SearchResult, resolve_engine


@dataclass(frozen=True)
class CosaConfig:
    """CoSA solver knobs."""

    objective: str = "edp"
    # Weight of the utilisation term vs the reuse term when ranking dims
    # for spatial assignment (CoSA's MIP objective mixes both).
    utilization_weight: float = 1.0


def _reuse_score(workload: Workload, dim: str) -> int:
    """How many tensors a dimension does NOT index (broadcast potential)."""
    return sum(1 for t in workload.tensors if dim not in t.indexing_dims)


def _linear_capacity_shares(
    workload: Workload, arch: Architecture
) -> dict[int, dict[str, float]]:
    """Per-level, per-tensor log-capacity budget (the linear relaxation):
    each bounded slot's capacity split evenly over the tensors it holds."""
    table = placement_table(workload, arch)
    shares: dict[int, dict[str, float]] = {}
    for i, slots in enumerate(table.slots):
        for slot in slots:
            if slot.capacity is not None:
                share = math.log(max(slot.capacity / len(slot.tensors), 1.0))
                for t in slot.tensors:
                    shares.setdefault(i, {})[workload.tensors[t].name] = share
    return shares


def cosa_search(
    workload: Workload,
    arch: Architecture,
    config: CosaConfig = CosaConfig(),
    partial_reuse: bool = True,
    engine: SearchEngine | None = None,
    sparsity: SparsitySpec | None = None,
    cache_size: int | None = None,
) -> SearchResult:
    """Run the CoSA-like one-shot mapper.

    Always returns a mapping; ``result.valid`` reports whether it actually
    fits the hardware (it frequently does not, by design of the linear
    relaxation being reproduced).
    """
    start = time.perf_counter()
    num = arch.num_levels
    boundaries = spatial_boundaries(arch)
    shares = _linear_capacity_shares(workload, arch)

    temporal = [dict[str, int]() for _ in range(num)]
    spatial = [dict[str, int]() for _ in range(num)]
    remaining = dict(workload.dims)

    # ---- phase 1: fill the fanouts (utilisation first) ----
    dims_by_preference = sorted(
        workload.dim_names,
        key=lambda d: (_reuse_score(workload, d), workload.dims[d]),
        reverse=True,
    )
    for boundary in boundaries:
        budget = arch.levels[boundary].fanout
        for dim in dims_by_preference:
            while (budget > 1 and remaining[dim] > 1):
                p = next(
                    (p for p in prime_factors(remaining[dim]) if p <= budget),
                    None,
                )
                if p is None:
                    break
                spatial[boundary][dim] = spatial[boundary].get(dim, 1) * p
                remaining[dim] //= p
                budget //= p

    # ---- phase 2: pack temporal factors bottom-up under the proxy ----
    # log-footprint used so far per (level, tensor)
    used: dict[int, dict[str, float]] = {
        i: {t: 0.0 for t in s} for i, s in shares.items()
    }

    def proxy_admits(level: int, dim: str, p: int) -> bool:
        """Would multiplying ``dim`` by ``p`` at ``level`` still satisfy the
        linearised capacity constraints at this and lower levels?"""
        for j in range(level, -1, -1):
            if j not in shares:
                continue
            for tensor in workload.tensors:
                if tensor.name not in shares[j]:
                    continue
                if dim in tensor.indexing_dims and j >= level:
                    if (used[j][tensor.name] + math.log(p)
                            > shares[j][tensor.name]):
                        return False
        return True

    def charge(level: int, dim: str, p: int) -> None:
        for j in shares:
            if j < level:
                continue
            for tensor in workload.tensors:
                if tensor.name in shares[j] and dim in tensor.indexing_dims:
                    used[j][tensor.name] += math.log(p)

    bounded = [i for i in range(num) if arch.levels[i].capacity_words is not None]
    for level in bounded:
        for dim in dims_by_preference:
            while remaining[dim] > 1:
                p = prime_factors(remaining[dim])[0]
                if not proxy_admits(level, dim, p):
                    break
                temporal[level][dim] = temporal[level].get(dim, 1) * p
                remaining[dim] //= p
                charge(level, dim, p)

    # Residual factors stream from the unbounded top level.
    for dim, extent in remaining.items():
        if extent > 1:
            temporal[num - 1][dim] = temporal[num - 1].get(dim, 1) * extent

    # CoSA derives one fixed permutation per level; we use a reuse-ranked
    # order (most-broadcast dims innermost), which is deterministic and
    # reasonable but not search-optimised.
    order = sorted(
        workload.dim_names, key=lambda d: _reuse_score(workload, d)
    )
    orders = [list(order) for _ in range(num)]

    mapping = build_mapping(
        workload, arch,
        temporal=temporal,
        spatial=spatial,
        orders=orders,
    )
    # CoSA's mapspace is a single point — the solver's one-shot emission.
    eng = resolve_engine(engine, cache=False, partial_reuse=partial_reuse,
                         sparsity=sparsity, cache_size=cache_size)
    (cost,) = eng.evaluate_many([mapping])
    elapsed = time.perf_counter() - start
    return SearchResult(
        mapper="cosa-like",
        mapping=mapping,
        cost=cost,
        evaluations=1,
        wall_time_s=elapsed,
        invalid_reason="" if cost.valid else "; ".join(cost.violations),
        search_stats=eng.stats,
    )
