"""Core mapspace IR: composable, deterministic candidate spaces.

A :class:`Space` is a declarative description of a set of scheduling
decisions (tile splits, loop orders, spatial unrollings, whole mappings).
Every space guarantees:

* **determinism** — ``enumerate()`` yields candidates in one canonical
  order, identical across calls, processes and worker counts;
* **sizing** — ``size()`` equals ``len(list(space.enumerate()))``;
* **shardability** — ``enumerate(shard=(i, n))`` yields exactly the
  candidates whose enumeration index is congruent to ``i`` modulo ``n``,
  so the ``n`` shards are pairwise disjoint and their union (interleaved
  by index) is the unsharded stream.

Spaces compose with the usual combinators: :class:`ProductSpace`
(cartesian product, row-major), :class:`DependentSpace` (inner space
chosen per outer item — how tilings depend on the loop order),
:class:`FilteredSpace` (a named pruning pass with drop counters in a
:class:`PruneStats`), :class:`MappedSpace` and :class:`TruncatedSpace`.
The search strategies (Sunstone and the baselines) differ only in which
spaces they compose and how they walk them; see docs/MAPSPACE.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence


def check_shard(shard: tuple[int, int] | None) -> tuple[int, int] | None:
    """Validate a ``(index, count)`` shard descriptor."""
    if shard is None:
        return None
    index, count = shard
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(f"shard index {index} outside 0..{count - 1}")
    return (int(index), int(count))


def _shard_stream(stream: Iterator, shard: tuple[int, int] | None) -> Iterator:
    if shard is None:
        yield from stream
        return
    index, count = shard
    for i, item in enumerate(stream):
        if i % count == index:
            yield item


@dataclass
class BoundStats:
    """A search's optimality certificate (docs/MAPSPACE.md).

    ``lower_bound`` is the analytic bound over the whole space and
    ``best_value`` the incumbent at search end — their ratio is the
    bound-tightness certificate ("best found is within ``gap_pct()``% of
    the analytic lower bound").  The exhaustive walker's region-prune
    counters live on :class:`repro.search.SearchStats`.
    """

    lower_bound: float | None = None
    best_value: float | None = None

    def active(self) -> bool:
        """True once a certificate has been recorded."""
        return self.lower_bound is not None

    def gap_pct(self) -> float | None:
        """Certificate gap: how far (in %) the best found sits above the
        analytic lower bound; ``None`` when unknowable."""
        if (self.lower_bound is None or self.best_value is None
                or self.lower_bound <= 0):
            return None
        return (self.best_value / self.lower_bound - 1.0) * 100.0

    def merge(self, other: "BoundStats") -> None:
        if other.lower_bound is not None:
            self.lower_bound = (other.lower_bound
                                if self.lower_bound is None
                                else min(self.lower_bound,
                                         other.lower_bound))
        if other.best_value is not None:
            self.best_value = (other.best_value
                               if self.best_value is None
                               else min(self.best_value, other.best_value))

    def to_dict(self) -> dict:
        doc: dict = {}
        if self.lower_bound is not None:
            doc["lower_bound"] = self.lower_bound
        if self.best_value is not None:
            doc["best_value"] = self.best_value
        gap = self.gap_pct()
        if gap is not None:
            doc["gap_pct"] = gap
        return doc


@dataclass
class PruneStats:
    """Per-pass candidate accounting for pruning passes.

    ``considered[name]`` counts candidates a pass examined and
    ``dropped[name]`` how many it rejected; ``kept(name)`` is the
    difference.  One instance can be shared by every pass of a composed
    space, giving the per-pass drop counters the mapspace IR promises.
    """

    considered: dict[str, int] = field(default_factory=dict)
    dropped: dict[str, int] = field(default_factory=dict)
    # The optimality certificate rides along with the pass counters so
    # one SchedulerStats.prune object tells the whole pruning story.
    bound: BoundStats = field(default_factory=BoundStats)

    def record(self, name: str, kept: bool) -> None:
        self.considered[name] = self.considered.get(name, 0) + 1
        if not kept:
            self.dropped[name] = self.dropped.get(name, 0) + 1

    def kept(self, name: str) -> int:
        return self.considered.get(name, 0) - self.dropped.get(name, 0)

    def merge(self, other: "PruneStats") -> None:
        for name, count in other.considered.items():
            self.considered[name] = self.considered.get(name, 0) + count
        for name, count in other.dropped.items():
            self.dropped[name] = self.dropped.get(name, 0) + count
        self.bound.merge(other.bound)

    def to_dict(self) -> dict[str, dict]:
        doc: dict[str, dict] = {
            name: {
                "considered": self.considered.get(name, 0),
                "dropped": self.dropped.get(name, 0),
            }
            for name in sorted(self.considered)
        }
        if self.bound.active():
            doc["bound"] = self.bound.to_dict()
        return doc


class Space:
    """Abstract declarative candidate space.

    Subclasses implement ``size()`` and ``_generate()``; ``enumerate()``
    layers the determinism/shard contract on top.
    """

    def size(self) -> int:
        raise NotImplementedError

    def _generate(self) -> Iterator:
        raise NotImplementedError

    def enumerate(self, shard: tuple[int, int] | None = None) -> Iterator:
        """Lazily yield candidates; deterministic, optionally sharded."""
        shard = check_shard(shard)
        return _shard_stream(self._generate(), shard)

    def __iter__(self) -> Iterator:
        return self.enumerate()

    def materialize(self) -> list:
        """The full candidate list in canonical order."""
        return list(self.enumerate())

    # ------------------------------------------------------------------
    # combinators
    # ------------------------------------------------------------------
    def filter(self, predicate: Callable[[Any], bool], name: str,
               stats: PruneStats | None = None) -> "FilteredSpace":
        """A named pruning pass keeping items where ``predicate`` holds."""
        return FilteredSpace(self, predicate, name, stats)

    def map(self, fn: Callable[[Any], Any]) -> "MappedSpace":
        return MappedSpace(self, fn)

    def head(self, count: int | None) -> "Space":
        """At most the first ``count`` candidates (None = unlimited)."""
        if count is None:
            return self
        return TruncatedSpace(self, count)


class ListSpace(Space):
    """Explicit candidate list (already materialised)."""

    def __init__(self, items: Sequence) -> None:
        self._items = list(items)

    def size(self) -> int:
        return len(self._items)

    def _generate(self) -> Iterator:
        return iter(self._items)


class LazySpace(Space):
    """Space materialised on first use by a thunk (cached thereafter)."""

    def __init__(self, thunk: Callable[[], Sequence]) -> None:
        self._thunk = thunk
        self._items: list | None = None

    def _ensure(self) -> list:
        if self._items is None:
            self._items = list(self._thunk())
        return self._items

    def size(self) -> int:
        return len(self._ensure())

    def _generate(self) -> Iterator:
        return iter(self._ensure())


class MappedSpace(Space):
    def __init__(self, inner: Space, fn: Callable[[Any], Any]) -> None:
        self._inner = inner
        self._fn = fn

    def size(self) -> int:
        return self._inner.size()

    def _generate(self) -> Iterator:
        return (self._fn(item) for item in self._inner.enumerate())


class FilteredSpace(Space):
    """A pruning pass: items failing ``predicate`` are dropped and
    counted under ``name`` in the shared :class:`PruneStats`."""

    def __init__(self, inner: Space, predicate: Callable[[Any], bool],
                 name: str, stats: PruneStats | None = None) -> None:
        self._inner = inner
        self._predicate = predicate
        self.name = name
        self.stats = stats if stats is not None else PruneStats()

    def size(self) -> int:
        # Pruned sizes have no closed form; count the survivors without
        # touching the live counters.
        return sum(1 for item in self._inner.enumerate()
                   if self._predicate(item))

    def _generate(self) -> Iterator:
        for item in self._inner.enumerate():
            kept = self._predicate(item)
            self.stats.record(self.name, kept)
            if kept:
                yield item


class TruncatedSpace(Space):
    """The first ``count`` candidates of ``inner`` (generation stops
    pulling once the quota is reached, preserving laziness)."""

    def __init__(self, inner: Space, count: int) -> None:
        if count < 0:
            raise ValueError("count must be >= 0")
        self._inner = inner
        self._count = count

    def size(self) -> int:
        return min(self._inner.size(), self._count)

    def _generate(self) -> Iterator:
        # The quota check runs immediately after the yield so the inner
        # stream is never pulled past the last emitted item — upstream
        # passes with side effects (node counters, prune stats) see only
        # the candidates the truncated stream actually consumed.
        if self._count == 0:
            return
        emitted = 0
        for item in self._inner.enumerate():
            yield item
            emitted += 1
            if emitted >= self._count:
                return


class ProductSpace(Space):
    """Cartesian product in row-major order (first axis outermost).

    ``combine`` folds one item per axis into a candidate (default: a
    tuple).  Axes re-enumerate per outer step, so laziness along the
    first axis is preserved for large products.
    """

    def __init__(self, axes: Sequence[Space],
                 combine: Callable[..., Any] = lambda *parts: parts) -> None:
        self._axes = list(axes)
        self._combine = combine

    def size(self) -> int:
        total = 1
        for axis in self._axes:
            total *= axis.size()
        return total

    def _generate(self) -> Iterator:
        def recurse(index: int, chosen: list) -> Iterator:
            if index == len(self._axes):
                yield self._combine(*chosen)
                return
            for item in self._axes[index].enumerate():
                chosen.append(item)
                yield from recurse(index + 1, chosen)
                chosen.pop()

        return recurse(0, [])


class DependentSpace(Space):
    """Sequential composition where the inner space depends on the outer
    item — how tile candidates depend on the chosen loop order, and
    unrollings on the chosen tile.

    ``fn(outer_item)`` returns the inner :class:`Space`; ``combine``
    folds ``(outer_item, inner_item)`` into the yielded candidate
    (default: the pair).
    """

    def __init__(self, outer: Space, fn: Callable[[Any], Space],
                 combine: Callable[[Any, Any], Any] = lambda a, b: (a, b),
                 ) -> None:
        self._outer = outer
        self._fn = fn
        self._combine = combine

    def size(self) -> int:
        return sum(self._fn(item).size()
                   for item in self._outer.enumerate())

    def _generate(self) -> Iterator:
        for item in self._outer.enumerate():
            inner = self._fn(item)
            for sub in inner.enumerate():
                yield self._combine(item, sub)
