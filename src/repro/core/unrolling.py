"""Spatial-unrolling candidates with the Spatial Unrolling Principle (§III-B).

Given the loop ordering at the parent memory level (which fixes the operand
``OP`` temporally reused across tiles) and the already-chosen tiling, we
enumerate unrollings of the fanout boundary.  The principle rejects, as
unrolling candidates, the *non-indexing* dimensions of ``OP``: unrolling
them would spend the fanout spatially reusing an operand whose upper-level
access count is already optimised temporally.  The remaining (indexing)
dimensions spatially reuse the *other* tensors.

High-throughput pruning keeps only the candidates with maximal achievable
utilisation of the fanout (ties kept), mirroring the paper's
"high throughput" pruning method (Table I).

:func:`unroll_candidates` adds the two fallback policies the searches
share when the principled dimension set cannot fill the fanout —
``"augment"`` (Sunstone: append the other dimensions' candidates) and
``"replace"`` (Interstellar: regenerate over every dimension) — and an
optional ``cap`` keeping the highest-utilisation candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..workloads.expression import Workload
from .tiling_tree import divisors


@dataclass
class UnrollingStats:
    """Search-size accounting."""

    combinations_visited: int = 0
    candidates: int = 0


def allowed_unroll_dims(
    workload: Workload,
    reused_tensors: Iterable[str],
) -> tuple[str, ...]:
    """Dimensions the Spatial Unrolling Principle permits to unroll.

    Rejects dimensions that are non-indexing for any temporally-reused
    operand (they would only re-reuse that operand spatially).
    """
    rejected: set[str] = set()
    for name in reused_tensors:
        tensor = workload.tensor(name)
        rejected |= set(workload.dims) - set(tensor.indexing_dims)
    return tuple(d for d in workload.dims if d not in rejected)


def enumerate_unrollings(
    workload: Workload,
    fanout: int,
    remaining: Mapping[str, int],
    allowed_dims: Sequence[str] | None = None,
    stats: UnrollingStats | None = None,
    utilization_threshold: float = 1.0,
    max_unrolled_dims: int = 2,
) -> list[dict[str, int]]:
    """Enumerate spatial factor assignments for one fanout boundary.

    Parameters
    ----------
    fanout:
        Number of child instances available at this boundary.
    remaining:
        Residual per-dimension extents available for unrolling (factors must
        divide these).
    allowed_dims:
        Dimensions permitted by the Unrolling Principle (default: all).
    utilization_threshold:
        Keep candidates whose utilisation is at least this fraction of the
        best achievable utilisation (1.0 = only maximal: the paper's
        high-throughput pruning).
    max_unrolled_dims:
        Real interconnects deliver data along at most two mesh axes;
        unrolling more dimensions than this per boundary is not realisable.

    Returns per-dimension factor dictionaries (trivial factors omitted).
    The no-unrolling candidate ``{}`` is included when nothing better
    exists (e.g. fanout 1).
    """
    stats = stats if stats is not None else UnrollingStats()
    if fanout <= 1:
        stats.candidates += 1
        return [{}]
    dims = [
        d for d in (allowed_dims if allowed_dims is not None
                    else workload.dim_names)
        if remaining.get(d, 1) > 1
    ]

    results: list[dict[str, int]] = []

    def recurse(i: int, current: dict[str, int], product: int,
                used_dims: int) -> None:
        if i == len(dims):
            stats.combinations_visited += 1
            results.append(dict(current))
            return
        dim = dims[i]
        for factor in divisors(remaining[dim]):
            if product * factor > fanout:
                break
            if factor > 1 and used_dims >= max_unrolled_dims:
                break
            if factor > 1:
                current[dim] = factor
            recurse(i + 1, current, product * factor,
                    used_dims + (1 if factor > 1 else 0))
            current.pop(dim, None)

    recurse(0, {}, 1, 0)

    if not results:
        stats.candidates += 1
        return [{}]

    def utilization(candidate: Mapping[str, int]) -> float:
        used = 1
        for factor in candidate.values():
            used *= factor
        return used / fanout

    best = max(utilization(c) for c in results)
    cutoff = best * utilization_threshold
    kept = [c for c in results if utilization(c) >= cutoff]
    # Deduplicate (same factors regardless of insertion order).
    unique: dict[tuple[tuple[str, int], ...], dict[str, int]] = {}
    for c in kept:
        unique[tuple(sorted(c.items()))] = c
    final = list(unique.values())
    stats.candidates += len(final)
    return final


def unroll_size(unroll: Mapping[str, int]) -> int:
    """Lanes occupied by an unrolling (1 for the empty unrolling)."""
    return math.prod(unroll.values()) if unroll else 1


def unroll_candidates(
    workload: Workload,
    fanout: int,
    remaining: Mapping[str, int],
    allowed: Sequence[str] | None = None,
    utilization_threshold: float = 1.0,
    max_unrolled_dims: int = 2,
    fallback: str | None = None,
    cap: int | None = None,
    stats: UnrollingStats | None = None,
) -> list[dict[str, int]]:
    """Spatial factor assignments for one fanout boundary."""
    if fallback not in (None, "augment", "replace"):
        raise ValueError(f"unknown fallback policy {fallback!r}")
    allowed = tuple(allowed) if allowed is not None else workload.dim_names

    def generate(dims: Sequence[str]) -> list[dict[str, int]]:
        return enumerate_unrollings(
            workload, fanout, remaining, dims, stats=stats,
            utilization_threshold=utilization_threshold,
            max_unrolled_dims=max_unrolled_dims,
        )

    unrolls = generate(allowed)
    if fallback is not None and fanout > 1:
        best = max((unroll_size(u) for u in unrolls), default=1)
        short = best < fanout
        if short and fallback == "replace":
            unrolls = generate(workload.dim_names)
        elif (short and fallback == "augment"
                and len(allowed) < len(workload.dim_names)):
            seen = {tuple(sorted(u.items())) for u in unrolls}
            unrolls += [u for u in generate(workload.dim_names)
                        if tuple(sorted(u.items())) not in seen]
    if cap is not None and len(unrolls) > cap:
        unrolls.sort(key=unroll_size, reverse=True)
        unrolls = unrolls[:cap]
    return unrolls
