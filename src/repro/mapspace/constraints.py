"""Constraint predicates applied to mapspaces as pruning passes.

Each factory returns a named predicate suitable for
``Space.filter(predicate, name, stats)``, so composed spaces report
per-pass drop counters through :class:`~repro.mapspace.spaces.PruneStats`.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping


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

    return predicate


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

    return predicate
