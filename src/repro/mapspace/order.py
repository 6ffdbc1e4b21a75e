"""Loop-ordering spaces: the pruned reuse trie and raw permutations.

:class:`OrderSpace` wraps :mod:`repro.core.order_trie` — the paper's
per-level ordering trie with no-further-reuse and dominance pruning — as
a declarative space of :class:`~repro.core.order_trie.OrderingCandidate`
objects.  :class:`PermutationSpace` is the unpruned ``n!`` alternative
the exhaustive and random baselines define their spaces over.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from ..core.order_trie import OrderingCandidate, TrieStats, enumerate_orderings
from ..workloads.expression import Workload
from .spaces import Space


class OrderSpace(Space):
    """The pruned loop-ordering candidates of one memory level.

    Enumeration is the order-trie output (deterministic); ``size()`` is
    its length.  ``stats`` receives the trie's node accounting on first
    materialisation.
    """

    def __init__(self, workload: Workload,
                 dims: Sequence[str] | None = None,
                 stats: TrieStats | None = None) -> None:
        self.workload = workload
        self.dims = tuple(dims) if dims is not None else None
        self.stats = stats
        self._candidates: list[OrderingCandidate] | None = None

    def candidates(self) -> list[OrderingCandidate]:
        if self._candidates is None:
            self._candidates = enumerate_orderings(
                self.workload, dims=self.dims, stats=self.stats)
        return self._candidates

    def size(self) -> int:
        return len(self.candidates())

    def _generate(self) -> Iterator[OrderingCandidate]:
        return iter(self.candidates())


class PermutationSpace(Space):
    """All permutations of ``dims`` in :func:`itertools.permutations`
    order; ``size()`` is ``len(dims)!``."""

    def __init__(self, dims: Sequence[str]) -> None:
        self.dims = tuple(dims)

    def size(self) -> int:
        return math.factorial(len(self.dims))

    def _generate(self) -> Iterator[tuple[str, ...]]:
        return iter(itertools.permutations(self.dims))
