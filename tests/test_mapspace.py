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
    SpaceDecoder,
    check_shard,
    full_space_size,
    order_permutations,
    ordered_factorizations,
)
from repro.mapspace.batch import NestCohort
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


def _step_children(search, state, level, bottom_up, dropped=None):
    """One sweep step's child decisions; ``dropped`` (a one-item list)
    counts the fit test's drops."""
    if dropped is not None:
        fits = search._fits

        def counted(*args):
            verdict = fits(*args)
            dropped[0] += not verdict
            return verdict

        search._fits = counted
    return list(search._children(
        state, level, enumerate_orderings(search.workload), SchedulerStats(),
        bottom_up))


def _attach(search, state, level, bottom_up, decision):
    """The child state a decision makes."""
    return _State(*search._attach(state, level, decision, bottom_up))


def _walk(build, workload, arch, bottom_up, rng, dropped=None):
    """A seeded random walk down one sweep: ``(search, state, level,
    decisions)`` per step, from a fresh unsharded search, each next
    state attached from a random decision."""
    num = arch.num_levels
    state = _initial_state(workload, arch)
    for level in range(num - 1) if bottom_up else range(num - 2, -1, -1):
        search = build(workload, arch, None)
        decisions = _step_children(search, state, level, bottom_up, dropped)
        yield search, state, level, decisions
        if not decisions:
            return
        state = _attach(search, state, level, bottom_up,
                        rng.choice(decisions))


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_shards_partition_the_stream(seed):
    """Along a seeded random walk down every sweep, each step's
    ``shard=(i, n)`` streams re-interleave into the unsharded stream."""
    for name, (build, bottom_up) in SWEEPS.items():
        for label, (workload, arch, drops) in SHARD_INPUTS.items():
            dropped = [0]
            for search, state, level, full in _walk(
                    build, workload, arch, bottom_up, random.Random(seed),
                    dropped):
                def keys(decisions):
                    return [_state_key(_attach(search, state, level,
                                               bottom_up, decision))
                            for decision in decisions]

                want = keys(full)
                for count in (2, 3):
                    parts = [keys(_step_children(
                        build(workload, arch, (index, count)), state, level,
                        bottom_up)) for index in range(count)]
                    assert sum(map(len, parts)) == len(want)
                    merged = [parts[pos % count][pos // count]
                              for pos in range(len(want))]
                    assert merged == want, (name, label, level, count)
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
                [_state_key(_attach(search, state, level, bottom_up, decision))
                 for decision in _step_children(search, state, level,
                                                bottom_up)]
                for search in (build(workload, arch, None) for _ in range(2)))
            assert first == second and first
    workload, arch = mttkrp(4, 2, 2, 4), tiny()
    first, second = (_decoded(SpaceDecoder(workload, arch, 2))
                     for _ in range(2))
    assert first == second


# ---------------------------------------------------------------------------
# a step's class keys and ranking keys
# ---------------------------------------------------------------------------

def _unsound_children(search, state, level, bottom_up, decisions,
                      coarsen=None):
    """The children of one step whose completion fingerprint differs
    from their class representative's, or whose assembled ranking key
    differs from ``_state_key`` of their attached state.  ``coarsen``
    rewrites each bottom-up class key first."""
    class_key = search._class_keys(state, level) if bottom_up else None
    ranking_key = search._ranking_keys(level, bottom_up)
    representatives: dict = {}
    unsound = []
    for position, decision in enumerate(decisions):
        child = _attach(search, state, level, bottom_up, decision)
        nests = search._completion_nests(
            child.temporal, child.spatial, child.orders, child.frontier,
            child.sink_level)
        fingerprint = NestCohort(search.workload, search.arch,
                                 [nests]).fingerprint_levels(0)
        key = class_key(decision) if bottom_up else position
        if coarsen is not None:
            key = coarsen(state, level, key)
        if (representatives.setdefault(key, fingerprint) != fingerprint
                or ranking_key(state, decision) != _state_key(child)):
            unsound.append(decision)
    return unsound


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_class_and_ranking_keys_are_sound(seed):
    """Along a seeded random walk down every sweep, every child shares
    its class representative's completion fingerprint (one cohort row
    per class is exact), and its ranking key assembled from the parent's
    key equals its attached state's ``_state_key``."""
    for name, (build, bottom_up) in SWEEPS.items():
        for label, (workload, arch, _) in SHARD_INPUTS.items():
            for search, state, level, decisions in _walk(
                    build, workload, arch, bottom_up, random.Random(seed)):
                assert not _unsound_children(
                    search, state, level, bottom_up, decisions), \
                    (name, label, level)


def _drop_first_order(state, level, key):
    """The class key without the ordering on the first step."""
    return key[:2] + key[3:] if state.orders[level] is None else key


def _drop_last_order(state, level, key):
    """The class key without the ordering on the last step."""
    return key[:-1] if level + 2 == len(state.orders) else key


@pytest.mark.parametrize("coarsen", [_drop_first_order, _drop_last_order])
def test_class_keys_need_both_order_parts(coarsen):
    """A class key that drops either order part merges children with
    different fingerprints, so the soundness check catches it.  The
    last step's part decides the order of the residual loops at the
    top, which differs between orderings only when two or more
    residual loops are left: this walk down Sunstone's sweep of a 3x3
    conv on the Table I machine reaches such a step."""
    build, _ = SWEEPS["sunstone/ordering-tiling-unrolling"]
    workload = conv2d(N=1, K=64, C=32, P=7, Q=7, R=3, S=3)
    arch = conventional()
    unsound = 0
    for search, state, level, decisions in _walk(build, workload, arch, True,
                                                 random.Random(1)):
        unsound += len(_unsound_children(search, state, level, True,
                                         decisions, coarsen))
    assert unsound > 0


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

def _decoded(decoder, ks=None):
    """Fingerprints of the decoder's rows at ``ks`` (every row by
    default)."""
    cohort = decoder.decode(range(decoder.total) if ks is None else ks)
    return [mapping_fingerprint(cohort.materialize(i))
            for i in range(len(cohort))]


def test_full_mapping_space_size_and_shards():
    workload = mttkrp(4, 2, 2, 4)
    arch = tiny()
    decoder = SpaceDecoder(workload, arch, 2)
    full = _decoded(decoder)
    assert full_space_size(workload, arch, 2) == decoder.total == len(full)
    shards = [_decoded(decoder, range(i, decoder.total, 3))
              for i in range(3)]
    # Shard index sets decode to the strided slices of the whole space.
    for i, shard in enumerate(shards):
        assert shard == full[i::3]
    assert sum(len(s) for s in shards) == len(full)
