"""Differential suite: the cohort pipeline is bit-identical to scalar.

The cohort producers (``repro.mapspace.batch``: the full-space
``SpaceDecoder`` and the sweeps' ``NestCohort``) and
``SearchEngine.evaluate_cohort`` must reproduce the scalar pipeline
*bit-for-bit*: the same candidates in the same order as the test
oracle's full-space stream, the same shard unions, the same best
mapping / cost / evaluation counts.  Every test here runs both paths
and compares — the decoder and mapper differentials switch onto the
no-numpy paths with ``harness.scalar_paths``; on a numpy-less install
the decoder builds its rows by integer division and must still satisfy
the same contract.
"""

from __future__ import annotations

import pytest

from repro.baselines.dmazerunner import dmazerunner_search
from repro.baselines.exhaustive import exhaustive_search
from repro.baselines.interstellar import interstellar_search
from repro.core.scheduler import SchedulerOptions, SunstoneScheduler
from repro.mapspace import SpaceDecoder, full_space_size
from repro.mapspace.batch import NestCohort
from repro.model import HAVE_NUMPY
from repro.search import SearchEngine, mapping_fingerprint
from tests import harness
from tests.mapspace_oracle import (
    oracle_factor_assignments,
    oracle_full_space_stream,
)


# ---------------------------------------------------------------------------
# the full-space decoder (the exhaustive producer)
# ---------------------------------------------------------------------------

def _rows(mapping):
    """A mapping's per-level nests, trivial loops included, and spatial
    factors."""
    return tuple((level.temporal, level.spatial) for level in mapping.levels)


def _oracle_rows():
    """The oracle's stream of the tiny MTTKRP space (two orders per
    level), as rows in enumeration order."""
    return [_rows(m) for m in oracle_full_space_stream(
        harness.tiny_mttkrp(), harness.small_arch(), 2)]


def _assert_decodes(decoder, ks, expected):
    """``decoder`` decodes the indices ``ks``, in the walker's 1024-row
    cohorts, to the rows ``expected``; each row's
    ``fingerprint_levels`` is the per-level part of its materialized
    fingerprint."""
    assert len(ks) == len(expected)
    for start in range(0, len(ks), 1024):
        cohort = decoder.decode(ks[start:start + 1024])
        rows = []
        for i in range(len(cohort)):
            mapping = cohort.materialize(i)
            assert (cohort.fingerprint_levels(i)
                    == mapping_fingerprint(mapping)[2])
            rows.append(_rows(mapping))
        assert rows == expected[start:start + 1024]


def test_space_decoder_radices_match_closed_form():
    """The decoder's per-dimension split lists are the oracle's, and its
    radices multiply out to the closed-form space size."""
    workload = harness.tiny_mttkrp()
    arch = harness.small_arch()
    for orders_per_level in (None, 2, 0):
        decoder = SpaceDecoder(workload, arch, orders_per_level)
        slots = len(decoder.slots)
        assert decoder.splits == [
            list(oracle_factor_assignments(workload.dims[d], slots))
            for d in workload.dim_names]
        assert decoder.radices[len(workload.dim_names):] == (
            [len(decoder.order_items)] * arch.num_levels)
        assert decoder.total == full_space_size(workload, arch,
                                                orders_per_level)


def test_full_space_cohorts_match_scalar_stream():
    """Decoding every index yields the oracle stream, vectorised and by
    integer division alike."""
    decoder = SpaceDecoder(harness.tiny_mttkrp(), harness.small_arch(), 2)
    oracle = _oracle_rows()
    _assert_decodes(decoder, range(decoder.total), oracle)
    with harness.scalar_paths():
        _assert_decodes(decoder, range(decoder.total), oracle)


@pytest.mark.parametrize("count", [2, 7])
def test_full_space_cohort_shards_interleave_exactly(count):
    """Shard-strided index sets decode to the strided slices of the
    oracle stream."""
    decoder = SpaceDecoder(harness.tiny_mttkrp(), harness.small_arch(), 2)
    oracle = _oracle_rows()
    for index in range(count):
        _assert_decodes(decoder, range(index, decoder.total, count),
                        oracle[index::count])


# ---------------------------------------------------------------------------
# engine: evaluate_cohort vs evaluate_many
# ---------------------------------------------------------------------------

def _cost_tuple(cost):
    return (cost.valid, cost.edp, cost.energy_pj, cost.cycles,
            cost.utilization, tuple(cost.violations))


def test_evaluate_cohort_matches_evaluate_many():
    workload = harness.tiny_mttkrp()
    arch = harness.small_arch()
    cohort = SpaceDecoder(workload, arch, 2).decode(range(1024))
    mappings = [cohort.materialize(i) for i in range(len(cohort))]
    a, b = SearchEngine(), SearchEngine()
    batch_costs = a.evaluate_cohort(cohort)
    scalar_costs = b.evaluate_many(mappings)
    assert ([_cost_tuple(c) for c in batch_costs]
            == [_cost_tuple(c) for c in scalar_costs])
    assert a.stats.evaluations == b.stats.evaluations
    assert a.stats.cache_hits == b.stats.cache_hits
    assert a.stats.cache_misses == b.stats.cache_misses


def test_evaluate_cohort_scalar_fallback_matches():
    """With the engine's vector path disabled the cohort route still
    returns identical costs (exercises the per-row fallback)."""
    workload = harness.tiny_mttkrp()
    arch = harness.small_arch()
    if not HAVE_NUMPY:
        pytest.skip("needs the vectorized evaluation (numpy)")
    cohort = SpaceDecoder(workload, arch, 2).decode(range(1024))
    mappings = [cohort.materialize(i) for i in range(len(cohort))]
    vectorised = SearchEngine()
    batch_costs = vectorised.evaluate_cohort(cohort)
    a, b = SearchEngine(), SearchEngine()
    with harness.scalar_paths():
        cohort_costs = a.evaluate_cohort(cohort)
        scalar_costs = b.evaluate_many(mappings)
    assert ([_cost_tuple(c) for c in cohort_costs]
            == [_cost_tuple(c) for c in scalar_costs]
            == [_cost_tuple(c) for c in batch_costs])
    assert a.stats.evaluations == b.stats.evaluations
    assert a.stats.batched_evaluations == b.stats.batched_evaluations == 0
    assert (vectorised.stats.batched_evaluations
            == vectorised.stats.evaluations > 0)


def test_nest_cohort_materialize_roundtrip():
    """NestCohort.materialize rebuilds the exact Mapping its nests came
    from, and fingerprint_levels matches the fingerprint of that
    Mapping."""
    workload = harness.small_conv()
    arch = harness.small_arch()
    result = SunstoneScheduler(workload, arch).schedule()
    assert result.found
    mapping = result.mapping
    nests = tuple(tuple(level.temporal) for level in mapping.levels)
    spatials = tuple(tuple(level.spatial) for level in mapping.levels)
    cohort = NestCohort.from_nests(workload, arch, [(nests, spatials)])
    rebuilt = cohort.materialize(0)
    assert mapping_fingerprint(rebuilt) == mapping_fingerprint(mapping)
    assert cohort.fingerprint_levels(0) == mapping_fingerprint(mapping)[2]


# ---------------------------------------------------------------------------
# mappers: vectorised paths == scalar paths, bit for bit
# ---------------------------------------------------------------------------

def _on_and_off(search):
    """``search()`` on the vectorised paths and on the scalar ones."""
    on = search()
    with harness.scalar_paths():
        off = search()
    return on, off


def _schedule(workload, arch, **overrides):
    options = SchedulerOptions(**overrides)
    return _on_and_off(
        lambda: SunstoneScheduler(workload, arch, options).schedule())


@pytest.mark.parametrize("direction", ["bottom-up", "top-down"])
def test_sunstone_batch_gen_is_bit_identical(direction):
    workload = harness.medium_mttkrp()
    arch = harness.medium_arch()
    on, off = _schedule(workload, arch, direction=direction)
    harness.assert_same_outcome(on, off)


def test_sunstone_batch_gen_conv_is_bit_identical(small_conv, small_arch):
    on, off = _schedule(small_conv, small_arch)
    harness.assert_same_outcome(on, off)


def test_sunstone_batch_gen_sharded_is_bit_identical():
    workload = harness.medium_mttkrp()
    arch = harness.medium_arch()
    for index in range(2):
        on, off = _schedule(workload, arch, shard=(index, 2))
        harness.assert_same_outcome(on, off)


def test_exhaustive_batch_gen_is_bit_identical():
    workload = harness.tiny_mttkrp()
    arch = harness.small_arch()
    for shard in (None, (0, 3), (2, 3)):
        on, off = _on_and_off(lambda: exhaustive_search(
            workload, arch, orders_per_level=2, shard=shard))
        harness.assert_same_search_result(on, off)
        assert on.certificate == off.certificate
        for counter in ("bound_regions_tested", "bound_regions_pruned",
                        "bound_candidates_skipped"):
            assert (getattr(on.search_stats, counter)
                    == getattr(off.search_stats, counter))


def test_exhaustive_batch_gen_shards_union_to_full():
    workload = harness.tiny_mttkrp()
    arch = harness.small_arch()
    full = exhaustive_search(workload, arch, orders_per_level=2)
    parts = [
        exhaustive_search(workload, arch, orders_per_level=2,
                          shard=(i, 4))
        for i in range(4)
    ]
    # Each shard runs its own branch-and-bound incumbent, so per-shard
    # evaluation counts are not additive — but evaluated + provably
    # skipped always partitions the space exactly.
    size = full_space_size(workload, arch, 2)

    def covered(result):
        stats = result.search_stats
        return result.evaluations + stats.bound_candidates_skipped

    assert covered(full) == size
    assert sum(covered(p) for p in parts) == size
    best = min(p.cost.edp for p in parts if p.mapping is not None)
    assert best == full.cost.edp


def test_interstellar_batch_gen_is_bit_identical():
    workload = harness.medium_mttkrp()
    arch = harness.medium_arch()
    on, off = _on_and_off(lambda: interstellar_search(workload, arch))
    harness.assert_same_search_result(on, off)


def test_dmazerunner_batch_gen_is_bit_identical():
    workload = harness.medium_mttkrp()
    arch = harness.medium_arch()
    on, off = _on_and_off(lambda: dmazerunner_search(workload, arch))
    harness.assert_same_search_result(on, off)


def test_random_driven_mappers_unaffected_by_batch_gen():
    """No mapper takes a generation or evaluation path switch: the
    vectorised and scalar paths are chosen by numpy's presence alone,
    and the random-driven mappers (timeloop/gamma/cosa) generate from
    RNG state one candidate at a time through evaluate_many."""
    import inspect

    from repro.baselines.cosa import cosa_search
    from repro.baselines.gamma import gamma_search
    from repro.baselines.random_search import timeloop_search

    for fn in (cosa_search, gamma_search, timeloop_search,
               dmazerunner_search, exhaustive_search, interstellar_search):
        params = inspect.signature(fn).parameters
        assert "batch_gen" not in params and "batch" not in params
    options = inspect.signature(SchedulerOptions).parameters
    assert "batch_gen" not in options and "batch" not in options
