"""Per-dimension factor lattices: prime-factor tile splits over slots.

A :class:`FactorLattice` is "distribute the prime factors of one
dimension's extent across an ordered set of slots" — the decision every
tiling strategy in this repo ultimately makes, whether the slots are the
temporal levels of a hierarchy or the (temporal, spatial) assignment
slots of the full mapping space.  Its ``size()`` is the closed-form
count of ordered factorisations, ``splits()`` a deterministic stream of
splits, and ``sample(rng)`` a uniform prime-placement draw matching the
sampling baselines' historical RNG consumption exactly.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Iterator, Sequence


def prime_factors(n: int) -> list[int]:
    """Prime factorisation of ``n`` with multiplicity, ascending."""
    factors: list[int] = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def ordered_factorizations(n: int, slots: int) -> int:
    """Number of ways to write ``n`` as an ordered product of ``slots``
    positive integers: multiplicative over primes,
    ``prod_p C(e_p + slots - 1, slots - 1)``."""
    if slots < 1:
        raise ValueError("slots must be >= 1")
    count = 1
    exponents: dict[int, int] = {}
    for p in prime_factors(n):
        exponents[p] = exponents.get(p, 0) + 1
    for e in exponents.values():
        count *= math.comb(e + slots - 1, slots - 1)
    return count


class FactorLattice:
    """All ordered splits of ``extent`` across ``slots``.

    ``slots`` is an ordered sequence of opaque labels (e.g. ``("t", 0)``,
    ``("s", 0)``, ``("t", 1)`` …).  :meth:`splits` yields tuples of
    factors aligned with ``slots`` whose product is ``extent``, deduplicated, in
    the canonical prime-placement order; ``size()`` is the closed-form
    ordered-factorisation count and always equals the stream length.
    The order is part of the contract: the exhaustive decoder's indices
    and the goldens depend on it.
    """

    def __init__(self, dim: str, extent: int, slots: Sequence[Any]) -> None:
        if extent < 1:
            raise ValueError(f"extent of {dim!r} must be >= 1, got {extent}")
        if not slots:
            raise ValueError("at least one slot is required")
        self.dim = dim
        self.extent = extent
        self.slots = tuple(slots)
        self.primes = tuple(prime_factors(extent))

    def size(self) -> int:
        return ordered_factorizations(self.extent, len(self.slots))

    def splits(self) -> Iterator[tuple[int, ...]]:
        """Every split, first prime slowest, first occurrence kept."""
        slots = len(self.slots)
        if not self.primes:
            yield (1,) * slots
            return
        seen: set[tuple[int, ...]] = set()
        for placement in itertools.product(range(slots),
                                           repeat=len(self.primes)):
            split = [1] * slots
            for prime, slot in zip(self.primes, placement):
                split[slot] *= prime
            key = tuple(split)
            if key not in seen:
                seen.add(key)
                yield key

    def sample(self, rng) -> dict[Any, int]:
        """One uniform prime-placement draw: each prime factor lands in
        ``rng.choice(self.slots)``.  Returns slot label -> factor.

        The RNG consumption (one ``choice`` over the slot sequence per
        prime) is part of the contract: the sampling baselines'
        reproducibility tests pin bit-identical candidate streams for a
        given seed.
        """
        split: dict[Any, int] = {slot: 1 for slot in self.slots}
        for p in self.primes:
            slot = rng.choice(self.slots)
            split[slot] *= p
        return split

