"""Oracle-backed equivalence: the live candidate generators preserve the
historical behaviour.

``tests/mapspace_oracle.py`` holds verbatim copies of the inline candidate
generators every mapper used historically.  The live generators are
plain loops too, but they share helpers (the unroll fallbacks, the tile
cap, the bottom-up capacity check and shard counter, the full-space
lattices).  These tests prove they are behaviour-preserving
bit-for-bit: same candidate streams, same best mapping (by fingerprint),
same cost, same evaluation and node accounting — for all seven mappers.
"""

from __future__ import annotations

import random

import pytest

from repro.arch import conventional, diannao_like, simba_like, tiny
from repro.baselines.cosa import cosa_search
from repro.baselines.dmazerunner import (
    DMAZE_FAST,
    DMAZE_SLOW,
    _DMazeSearch,
)
from repro.baselines.exhaustive import exhaustive_search
from repro.baselines.gamma import GammaConfig, _GammaSearch
from repro.baselines.interstellar import (
    InterstellarConfig,
    _InterstellarSearch,
)
from repro.baselines.random_search import (
    sample_random_mapping,
    simba_constraints,
)
from repro.core.scheduler import SchedulerOptions, SunstoneScheduler
from repro.mapspace import SpaceDecoder, full_space_size, prime_factors
from repro.mapspace.mapspace import spatial_boundaries
from repro.search import SearchEngine, mapping_fingerprint
from repro.workloads import mttkrp
from repro.workloads.networks import resnet18
from tests.harness import assert_same_outcome as _assert_same_outcome
from tests.mapspace_oracle import (
    OracleSunstoneScheduler,
    make_oracle_dmaze,
    make_oracle_interstellar,
    oracle_full_space_stream,
    oracle_gamma_decode,
    oracle_prime_factors,
    oracle_sample_random_mapping,
    oracle_spatial_slots,
)


# ---------------------------------------------------------------------------
# Sunstone: every intra-level mode and both sweep directions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("direction,intra", [
    ("bottom-up", "ordering-tiling-unrolling"),
    ("bottom-up", "tiling-unrolling-ordering"),
    ("bottom-up", "unrolling-tiling-ordering"),
    ("top-down", "ordering-tiling-unrolling"),
])
def test_sunstone_matches_oracle(direction, intra):
    workload = mttkrp(64, 32, 32, 64)
    arch = conventional()
    options = SchedulerOptions(direction=direction, intra_level_order=intra)
    live = SunstoneScheduler(workload, arch, options).schedule()
    oracle = OracleSunstoneScheduler(workload, arch, options).schedule()
    _assert_same_outcome(live, oracle)


def test_sunstone_conv_on_diannao_matches_oracle():
    layer = resnet18()[4]  # conv3 downsample
    arch = diannao_like()
    live = SunstoneScheduler(layer, arch).schedule()
    oracle = OracleSunstoneScheduler(layer, arch).schedule()
    _assert_same_outcome(live, oracle)


def test_sunstone_shards_cover_the_search():
    """A sharded search runs and stays deterministic (the shards split the
    per-step candidate streams; the trajectory may legitimately differ
    from the unsharded one)."""
    workload = mttkrp(64, 32, 32, 64)
    arch = conventional()
    full = SunstoneScheduler(workload, arch).schedule()
    for index in range(2):
        options = SchedulerOptions(shard=(index, 2))
        once = SunstoneScheduler(workload, arch, options).schedule()
        again = SunstoneScheduler(workload, arch, options).schedule()
        assert once.found
        assert (mapping_fingerprint(once.mapping)
                == mapping_fingerprint(again.mapping))
        assert once.stats.evaluations == again.stats.evaluations
        assert once.stats.evaluations < full.stats.evaluations


# ---------------------------------------------------------------------------
# Interstellar-like
# ---------------------------------------------------------------------------

def test_interstellar_matches_oracle():
    workload = mttkrp(64, 32, 32, 64)
    arch = conventional()
    config = InterstellarConfig()

    def options():
        return SchedulerOptions(
            alpha_beta=False,
            beam_width=config.beam_width,
            objective=config.objective,
        )

    live = _InterstellarSearch(workload, arch, config, options()).schedule()
    oracle_cls = make_oracle_interstellar(_InterstellarSearch)
    oracle = oracle_cls(workload, arch, config, options()).schedule()
    _assert_same_outcome(live, oracle)


# ---------------------------------------------------------------------------
# dMazeRunner-like (including the found=False threshold failure mode)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", [DMAZE_FAST, DMAZE_SLOW])
def test_dmazerunner_matches_oracle(config):
    workload = mttkrp(64, 32, 32, 64)
    arch = conventional()

    def options():
        return SchedulerOptions(
            alpha_beta=False,
            beam_width=config.beam_width,
            objective=config.objective,
        )

    live = _DMazeSearch(workload, arch, config, options()).schedule()
    oracle_cls = make_oracle_dmaze(_DMazeSearch)
    oracle = oracle_cls(workload, arch, config, options()).schedule()
    _assert_same_outcome(live, oracle)


def test_dmazerunner_conv_matches_oracle():
    layer = resnet18()[4]
    arch = diannao_like()
    config = DMAZE_FAST

    def options():
        return SchedulerOptions(
            alpha_beta=False,
            beam_width=config.beam_width,
            objective=config.objective,
        )

    live = _DMazeSearch(layer, arch, config, options()).schedule()
    oracle_cls = make_oracle_dmaze(_DMazeSearch)
    oracle = oracle_cls(layer, arch, config, options()).schedule()
    _assert_same_outcome(live, oracle)


# ---------------------------------------------------------------------------
# Timeloop-like random sampler: identical candidate streams per seed
# ---------------------------------------------------------------------------

def test_random_sampler_stream_matches_oracle():
    workload = mttkrp(64, 32, 32, 64)
    arch = conventional()
    live_rng, oracle_rng = random.Random(7), random.Random(7)
    for _ in range(300):
        live = sample_random_mapping(workload, arch, live_rng)
        oracle = oracle_sample_random_mapping(workload, arch, oracle_rng)
        assert mapping_fingerprint(live) == mapping_fingerprint(oracle)


def test_constrained_sampler_stream_matches_oracle():
    from repro.workloads import conv2d

    workload = conv2d(N=1, K=32, C=16, P=8, Q=8, R=3, S=3)
    arch = simba_like()
    constraints = simba_constraints(arch)
    live_rng, oracle_rng = random.Random(11), random.Random(11)
    for _ in range(200):
        live = sample_random_mapping(workload, arch, live_rng, constraints)
        oracle = oracle_sample_random_mapping(workload, arch, oracle_rng,
                                              constraints)
        assert mapping_fingerprint(live) == mapping_fingerprint(oracle)


# ---------------------------------------------------------------------------
# Exhaustive: decoded full space == historical stream, and shards union
# ---------------------------------------------------------------------------

def test_full_mapping_space_matches_oracle_stream():
    """Decoding every index of the full space yields the historical
    stream, in order."""
    workload = mttkrp(4, 4, 2, 4)
    arch = tiny()
    decoder = SpaceDecoder(workload, arch, orders_per_level=3)
    oracle = oracle_full_space_stream(workload, arch, 3)
    for start in range(0, decoder.total, 1024):
        cohort = decoder.decode(
            range(start, min(start + 1024, decoder.total)))
        for i in range(len(cohort)):
            assert (mapping_fingerprint(cohort.materialize(i))
                    == mapping_fingerprint(next(oracle)))
    assert next(oracle, None) is None
    assert full_space_size(workload, arch, 3) == decoder.total


def test_exhaustive_shards_union_recovers_the_best():
    workload = mttkrp(4, 4, 2, 4)
    arch = tiny()
    full = exhaustive_search(workload, arch, orders_per_level=2)
    shards = [
        exhaustive_search(workload, arch, orders_per_level=2,
                          shard=(i, 2))
        for i in range(2)
    ]
    assert full.found
    # Branch-and-bound incumbents differ per shard, so evaluation counts
    # are not additive; evaluated + provably-skipped partitions the
    # space exactly in every run.
    size = full_space_size(workload, arch, 2)

    def covered(result):
        return (result.evaluations
                + result.search_stats.bound_candidates_skipped)

    assert covered(full) == size
    assert sum(covered(s) for s in shards) == size
    best_edp = min(s.cost.edp for s in shards if s.found)
    assert best_edp == full.cost.edp


# ---------------------------------------------------------------------------
# GAMMA-like: genome decode through assemble_mapping
# ---------------------------------------------------------------------------

def test_gamma_decode_matches_oracle():
    workload = mttkrp(16, 8, 8, 16)
    arch = conventional()
    search = _GammaSearch(workload, arch, GammaConfig(seed=3),
                          SearchEngine())
    for _ in range(50):
        genome = search.random_genome()
        live = search.decode(genome)
        oracle = oracle_gamma_decode(workload, arch, search.primes,
                                     genome.placements, genome.orders)
        assert mapping_fingerprint(live) == mapping_fingerprint(oracle)


# ---------------------------------------------------------------------------
# CoSA-like: deterministic one-shot emission unchanged across runs
# ---------------------------------------------------------------------------

def test_cosa_is_deterministic():
    workload = mttkrp(64, 32, 32, 64)
    arch = conventional()
    first = cosa_search(workload, arch)
    second = cosa_search(workload, arch)
    assert first.evaluations == second.evaluations == 1
    assert (mapping_fingerprint(first.mapping)
            == mapping_fingerprint(second.mapping))
    assert first.cost.edp == second.cost.edp


# ---------------------------------------------------------------------------
# shared ingredients
# ---------------------------------------------------------------------------

def test_prime_factors_matches_oracle():
    for n in range(1, 500):
        assert prime_factors(n) == oracle_prime_factors(n)


def test_spatial_boundaries_match_oracle():
    for build in (tiny, conventional, diannao_like, simba_like):
        arch = build()
        assert spatial_boundaries(arch) == oracle_spatial_slots(arch)
