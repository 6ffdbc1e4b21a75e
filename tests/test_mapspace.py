"""Property tests for the declarative mapspace IR (repro.mapspace).

The contracts under test are the ones every mapper now leans on:

* ``size()`` is analytic and always equals the enumerated stream length;
* ``enumerate()`` is deterministic — same object, same stream;
* ``enumerate(shard=(i, n))`` partitions the stream: the ``n`` shards are
  pairwise disjoint and their index-interleaved union is the full stream;
* pruning passes record per-pass drop counters without ``size()`` ever
  touching the live counters;
* ``head()`` never pulls past its quota (side-effect accounting upstream
  of a cap must match a historical early ``break``).

Hypothesis runs derandomized (seeded) so CI is reproducible.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import tiny
from repro.mapspace import (
    DependentSpace,
    DivisorSpace,
    FactorLattice,
    ListSpace,
    PermutationSpace,
    ProductSpace,
    PruneStats,
    check_shard,
    full_mapping_space,
    ordered_factorizations,
)
from repro.workloads import mttkrp

settings.register_profile("mapspace", derandomize=True, max_examples=50)
settings.load_profile("mapspace")


# ---------------------------------------------------------------------------
# size() == len(list(enumerate()))
# ---------------------------------------------------------------------------

@given(extent=st.integers(min_value=1, max_value=360),
       slots=st.integers(min_value=1, max_value=4))
def test_factor_lattice_size_matches_stream(extent, slots):
    lattice = FactorLattice("D", extent, [("t", s) for s in range(slots)])
    items = lattice.materialize()
    assert lattice.size() == len(items)
    assert lattice.size() == ordered_factorizations(extent, slots)
    # Every split multiplies back to the extent, no duplicates.
    assert all(len(split) == slots for split in items)
    products = set()
    for split in items:
        value = 1
        for factor in split:
            value *= factor
        assert value == extent
        products.add(split)
    assert len(products) == len(items)


@given(extent=st.integers(min_value=1, max_value=240),
       bound=st.one_of(st.none(), st.integers(min_value=1, max_value=64)))
def test_divisor_space_size_matches_stream(extent, bound):
    space = DivisorSpace(extent, bound)
    items = space.materialize()
    assert space.size() == len(items)
    assert all(extent % d == 0 for d in items)
    if bound is not None:
        assert all(d <= bound for d in items)


@given(n=st.integers(min_value=0, max_value=5))
def test_permutation_space_size_matches_stream(n):
    dims = tuple(f"D{i}" for i in range(n))
    space = PermutationSpace(dims)
    assert space.size() == len(space.materialize())


@given(axes=st.lists(st.lists(st.integers(0, 5), min_size=0, max_size=4),
                     min_size=1, max_size=3))
def test_product_space_size_matches_stream(axes):
    space = ProductSpace([ListSpace(axis) for axis in axes])
    items = space.materialize()
    assert space.size() == len(items)


@given(items=st.lists(st.integers(-20, 20), max_size=30),
       threshold=st.integers(-20, 20))
def test_filtered_space_size_matches_stream(items, threshold):
    stats = PruneStats()
    space = ListSpace(items).filter(lambda x: x > threshold,
                                    "threshold", stats)
    survivors = space.materialize()
    assert survivors == [x for x in items if x > threshold]
    # A full pass recorded every consideration and drop.
    assert stats.considered.get("threshold", 0) == len(items)
    assert stats.dropped.get("threshold", 0) == len(items) - len(survivors)
    # size() re-counts without disturbing the live counters.
    assert space.size() == len(survivors)
    assert stats.considered.get("threshold", 0) == len(items)


@given(outer=st.lists(st.integers(0, 4), min_size=0, max_size=5))
def test_dependent_space_size_matches_stream(outer):
    space = DependentSpace(
        ListSpace(outer),
        lambda n: ListSpace(list(range(n))),
        combine=lambda n, i: (n, i),
    )
    items = space.materialize()
    assert space.size() == len(items)
    assert items == [(n, i) for n in outer for i in range(n)]


# ---------------------------------------------------------------------------
# enumeration determinism
# ---------------------------------------------------------------------------

@given(items=st.lists(st.integers(), max_size=30))
def test_enumeration_is_deterministic(items):
    space = ListSpace(items)
    first = list(space.enumerate())
    second = list(space.enumerate())
    assert first == second == items


# ---------------------------------------------------------------------------
# shard semantics
# ---------------------------------------------------------------------------

@given(items=st.lists(st.integers(), max_size=40),
       count=st.integers(min_value=1, max_value=6))
def test_shards_partition_the_stream(items, count):
    space = ListSpace(items)
    full = space.materialize()
    shards = [list(space.enumerate(shard=(i, count))) for i in range(count)]
    # Union (interleaved by enumeration index) recovers the full stream.
    rebuilt = [None] * len(full)
    for i, shard in enumerate(shards):
        for k, item in enumerate(shard):
            rebuilt[i + k * count] = item
    assert rebuilt == full
    # Disjoint: shard i holds exactly the indices congruent to i.
    for i, shard in enumerate(shards):
        assert shard == full[i::count]
    assert sum(len(s) for s in shards) == len(full)


def test_check_shard_rejects_bad_descriptors():
    assert check_shard(None) is None
    assert check_shard((0, 1)) == (0, 1)
    with pytest.raises(ValueError):
        check_shard((0, 0))
    with pytest.raises(ValueError):
        check_shard((2, 2))
    with pytest.raises(ValueError):
        check_shard((-1, 3))


# ---------------------------------------------------------------------------
# head() quota discipline
# ---------------------------------------------------------------------------

@given(items=st.lists(st.integers(), max_size=20),
       quota=st.integers(min_value=0, max_value=25))
def test_head_never_pulls_past_its_quota(items, quota):
    pulled = []
    space = ListSpace(items).map(lambda x: pulled.append(x) or x).head(quota)
    taken = space.materialize()
    assert taken == items[:quota]
    # The cap consumed exactly the items it yielded — never one extra, so
    # upstream side-effect accounting matches a historical early break.
    assert len(pulled) == min(quota, len(items))


# ---------------------------------------------------------------------------
# the composed full mapping space (exhaustive mapper's space)
# ---------------------------------------------------------------------------

def test_full_mapping_space_size_and_shards():
    from repro.search import mapping_fingerprint

    workload = mttkrp(4, 2, 2, 4)
    arch = tiny()
    space = full_mapping_space(workload, arch, orders_per_level=2)
    full = [mapping_fingerprint(m) for m in space.enumerate()]
    assert space.size() == len(full)
    shards = [
        [mapping_fingerprint(m) for m in space.enumerate(shard=(i, 3))]
        for i in range(3)
    ]
    # Shard streams are exactly the strided slices of the canonical stream.
    for i, shard in enumerate(shards):
        assert shard == full[i::3]
    assert sum(len(s) for s in shards) == len(full)
