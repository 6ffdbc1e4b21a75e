"""Property tests for the candidate spaces (repro.mapspace).

The contracts under test are the ones every mapper leans on:

* a factor lattice's closed-form ``size()`` equals its split stream's
  length, and the full mapping space's closed-form size equals its
  generator's;
* every generator is deterministic: the same candidates in the same
  order on every call;
* ``shard=(i, n)`` partitions a candidate stream: the ``n`` shards are
  pairwise disjoint and their position-interleaved union is the
  unsharded stream.  The bottom-up sweeps number only the children
  that pass the capacity check; the top-down sweep and the full space
  number every candidate;
* dMazeRunner's tile quota never pulls the divisor grid past the last
  admitted tile (node accounting matches a historical early ``break``).

Hypothesis runs derandomized (seeded) so CI is reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import conventional, simba_like, tiny
from repro.baselines.dmazerunner import DMAZE_FAST, DMAZE_SLOW, _DMazeSearch
from repro.baselines.interstellar import InterstellarConfig, _InterstellarSearch
from repro.core.order_trie import enumerate_orderings
from repro.core.scheduler import (
    SchedulerOptions,
    SchedulerStats,
    SunstoneScheduler,
    _State,
    _state_key,
)
from repro.mapspace import (
    FactorLattice,
    check_shard,
    full_mapping_space,
    full_space_size,
    order_permutations,
    ordered_factorizations,
)
from repro.search import mapping_fingerprint
from repro.workloads import conv2d, mttkrp

settings.register_profile("mapspace", derandomize=True, max_examples=50)
settings.load_profile("mapspace")


# ---------------------------------------------------------------------------
# closed-form sizes
# ---------------------------------------------------------------------------

@given(extent=st.integers(min_value=1, max_value=360),
       slots=st.integers(min_value=1, max_value=4))
def test_factor_lattice_size_matches_stream(extent, slots):
    lattice = FactorLattice("D", extent, [("t", s) for s in range(slots)])
    items = list(lattice.splits())
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


@given(n=st.integers(min_value=0, max_value=5),
       cap=st.one_of(st.none(), st.integers(min_value=0, max_value=130)))
def test_permutation_space_size_matches_stream(n, cap):
    """The per-level loop orders of the full space: the first ``cap``
    permutations, ``min(cap, n!)`` of them — the factor
    ``full_space_size`` raises to the level count."""
    dims = tuple(f"D{i}" for i in range(n))
    orders = order_permutations(dims, cap)
    total = math.factorial(n)
    assert len(orders) == (total if cap is None else min(cap, total))
    assert len(set(orders)) == len(orders)
    assert all(sorted(order) == sorted(dims) for order in orders)


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
# shards partition the sweeps' real child streams
# ---------------------------------------------------------------------------

def _sunstone(intra, direction="bottom-up"):
    def build(workload, arch, shard):
        return SunstoneScheduler(workload, arch, SchedulerOptions(
            direction=direction, intra_level_order=intra, shard=shard))
    return build


def _baseline(cls, config):
    def build(workload, arch, shard):
        return cls(workload, arch, config, SchedulerOptions(
            alpha_beta=False, beam_width=config.beam_width, shard=shard))
    return build


# name -> (search builder, bottom-up?)
SWEEPS = {
    "sunstone/ordering-tiling-unrolling":
        (_sunstone("ordering-tiling-unrolling"), True),
    "sunstone/tiling-unrolling-ordering":
        (_sunstone("tiling-unrolling-ordering"), True),
    "sunstone/unrolling-tiling-ordering":
        (_sunstone("unrolling-tiling-ordering"), True),
    "sunstone/top-down":
        (_sunstone("ordering-tiling-unrolling", "top-down"), False),
    "dmazerunner/fast": (_baseline(_DMazeSearch, DMAZE_FAST), True),
    "dmazerunner/slow": (_baseline(_DMazeSearch, DMAZE_SLOW), True),
    "interstellar": (_baseline(_InterstellarSearch, InterstellarConfig()),
                     True),
}
# The simba layer is compare-simba's conv 3x3: there the capacity check
# drops children of every bottom-up sweep, so its shards must number
# only the survivors.
SHARD_INPUTS = {
    "mttkrp/conventional": (mttkrp(64, 32, 32, 64), conventional(), False),
    "conv2d/simba": (conv2d(N=1, K=64, C=32, P=7, Q=7, R=3, S=3),
                     simba_like(), True),
}


def _initial_state(workload, arch):
    num = arch.num_levels
    return _State(
        temporal=tuple({} for _ in range(num)),
        spatial=tuple({} for _ in range(num)),
        orders=tuple(None for _ in range(num)),
        frontier=dict(workload.dims),
        sink_level=num - 1,
    )


def _step_children(build, workload, arch, state, level, bottom_up,
                   shard=None, dropped=None):
    """One sweep step's children, from a fresh search at ``shard``;
    ``dropped`` (a one-item list) counts the capacity check's drops."""
    search = build(workload, arch, shard)
    if dropped is not None:
        extend = search._extend_bottom_up

        def counted(*args):
            child = extend(*args)
            dropped[0] += child is None
            return child

        search._extend_bottom_up = counted
    return list(search._children(state, level, enumerate_orderings(workload),
                                 SchedulerStats(), bottom_up))


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_shards_partition_the_stream(seed):
    """Along a seeded random walk down every sweep, each step's
    ``shard=(i, n)`` streams re-interleave into the unsharded stream."""
    for name, (build, bottom_up) in SWEEPS.items():
        for label, (workload, arch, drops) in SHARD_INPUTS.items():
            rng = random.Random(seed)
            num = arch.num_levels
            state = _initial_state(workload, arch)
            steps = range(num - 1) if bottom_up else range(num - 2, -1, -1)
            dropped = [0]
            for level in steps:
                full = _step_children(build, workload, arch, state, level,
                                      bottom_up, dropped=dropped)
                want = [_state_key(child) for child in full]
                for count in (2, 3):
                    parts = [[_state_key(child) for child in _step_children(
                        build, workload, arch, state, level, bottom_up,
                        shard=(index, count))] for index in range(count)]
                    assert sum(map(len, parts)) == len(want)
                    merged = [parts[pos % count][pos // count]
                              for pos in range(len(want))]
                    assert merged == want, (name, label, level, count)
                if not full:
                    break
                state = rng.choice(full)
            if bottom_up and drops:
                assert dropped[0] > 0, (name, label)


def test_enumeration_is_deterministic():
    """Every sweep's first step and the full space yield the same
    candidates in the same order on every call."""
    for build, bottom_up in SWEEPS.values():
        for workload, arch, _ in SHARD_INPUTS.values():
            state = _initial_state(workload, arch)
            level = 0 if bottom_up else arch.num_levels - 2
            first, second = (
                [_state_key(child) for child in _step_children(
                    build, workload, arch, state, level, bottom_up)]
                for _ in range(2))
            assert first == second and first
    workload, arch = mttkrp(4, 2, 2, 4), tiny()
    first, second = ([mapping_fingerprint(m)
                      for m in full_mapping_space(workload, arch, 2)]
                     for _ in range(2))
    assert first == second


# ---------------------------------------------------------------------------
# dMazeRunner's tile quota
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("quota", [0, 1, 7, 31])
def test_dmaze_tile_quota_stops_the_grid(quota):
    """With ``max_tilings_per_state = q`` the divisor grid is walked up
    to the ``q``-th admitted tile and no further: ``nodes_visited`` is
    that tile's grid position (or the whole grid when fewer fit)."""
    workload = conv2d(N=1, K=64, C=32, P=7, Q=7, R=3, S=3)
    arch = simba_like()
    state = _initial_state(workload, arch)
    orderings = enumerate_orderings(workload)
    level = 0

    def walk(config):
        search = _baseline(_DMazeSearch, config)(workload, arch, None)
        fills = []
        utilization = search._utilization

        def recorded(level_index, sizes):
            fills.append(utilization(level_index, sizes))
            return fills[-1]

        search._utilization = recorded
        stats = SchedulerStats()
        list(search._children(state, level, orderings, stats, True))
        return stats.tiling.nodes_visited, fills, search

    unlimited = replace(DMAZE_SLOW, max_tilings_per_state=10**9)
    grid, fills, search = walk(unlimited)
    threshold = search._threshold_for(level)
    admitted = [pos for pos, fill in enumerate(fills)
                if threshold <= fill <= 1.0]
    assert len(admitted) > 31
    nodes, _, _ = walk(replace(DMAZE_SLOW, max_tilings_per_state=quota))
    assert nodes == (admitted[quota - 1] + 1 if quota else 0)
    assert grid == len(fills)


# ---------------------------------------------------------------------------
# the full mapping space (exhaustive mapper's space)
# ---------------------------------------------------------------------------

def test_full_mapping_space_size_and_shards():
    workload = mttkrp(4, 2, 2, 4)
    arch = tiny()
    full = [mapping_fingerprint(m)
            for m in full_mapping_space(workload, arch, orders_per_level=2)]
    assert full_space_size(workload, arch, 2) == len(full)
    shards = [
        [mapping_fingerprint(m) for m in full_mapping_space(
            workload, arch, orders_per_level=2, shard=(i, 3))]
        for i in range(3)
    ]
    # Shard streams are exactly the strided slices of the canonical stream.
    for i, shard in enumerate(shards):
        assert shard == full[i::3]
    assert sum(len(s) for s in shards) == len(full)
