"""Shard descriptors and the search certificate.

Every candidate stream in this package (the sweeps' per-step children,
the full mapping space) honours one shard rule: ``shard=(i, n)`` keeps
exactly the candidates whose position in the stream is congruent to
``i`` modulo ``n``, so the ``n`` shards are pairwise disjoint and their
position-interleaved union is the unsharded stream.  :func:`check_shard`
validates the descriptor; :class:`BoundStats` carries a search's
optimality certificate.  See docs/MAPSPACE.md.
"""

from __future__ import annotations

from dataclasses import dataclass


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

