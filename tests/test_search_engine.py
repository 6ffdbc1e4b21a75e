"""Oracle-backed regression harness for the evaluation engine.

Pins the engine's core guarantee: with the cache on or off the search
returns the *same best mapping* with *bit-identical* cost, and cached
results are
exactly what a fresh evaluation would produce (cross-checked against the
brute-force loop-nest interpreter on single-digit problems).
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import optional_numpy
from repro.arch import UNIFIED, Architecture, MemoryLevel, tiny
from repro.baselines import TimeloopConfig, timeloop_search
from repro.baselines.random_search import sample_random_mapping
from repro.core import SchedulerOptions, SunstoneScheduler, schedule
from repro.mapping import build_mapping
from repro.mapping.serialize import mapping_to_dict
from repro.model import count_accesses, evaluate, simulate_fills
from repro.search import EvalCache, SearchEngine
from repro.workloads import conv1d, conv2d, mttkrp
from tests import harness

REPO_ROOT = Path(__file__).resolve().parent.parent


from tests.harness import small_matmul as _matmul

_EQUIVALENCE_CASES = [
    (harness.small_conv(), harness.small_arch()),
    (_matmul(8, 8, 8), tiny(l1_words=32, l2_words=256, pes=4)),
    (mttkrp(I=4, K=4, L=4, J=4), tiny(l1_words=64, l2_words=512, pes=2)),
]


def _cost_tuple(result):
    return (result.cost.energy_pj, result.cost.cycles, result.cost.edp)


# ---------------------------------------------------------------------------
# Satellite (a): uncached vs cached equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", range(len(_EQUIVALENCE_CASES)))
def test_scheduler_equivalence_matrix(case):
    """The cache setting must not change the best mapping or cost."""
    workload, arch = _EQUIVALENCE_CASES[case]
    serial = schedule(workload, arch, SchedulerOptions(cache=False))
    assert serial.found
    result = schedule(workload, arch, SchedulerOptions(cache=True))
    assert result.found
    assert mapping_to_dict(result.mapping) == mapping_to_dict(serial.mapping)
    assert _cost_tuple(result) == _cost_tuple(serial)


def test_baseline_equivalence_timeloop():
    workload, arch = _EQUIVALENCE_CASES[0]
    config = TimeloopConfig(timeout=400, victory_condition=50, seed=3)
    serial = timeloop_search(workload, arch, config, cache=False)
    other = timeloop_search(workload, arch, config, cache=True)
    assert other.evaluations == serial.evaluations
    assert _cost_tuple(other) == _cost_tuple(serial)
    assert mapping_to_dict(other.mapping) == mapping_to_dict(serial.mapping)


def test_engine_batch_matches_individual_evaluations():
    workload, arch = _EQUIVALENCE_CASES[0]
    rng = random.Random(7)
    mappings = [sample_random_mapping(workload, arch, rng)
                for _ in range(40)]
    fresh = [evaluate(m) for m in mappings]
    batched = SearchEngine(cache=True).evaluate_many(mappings)
    assert len(batched) == len(fresh)
    for a, b in zip(batched, fresh):
        assert (a.energy_pj, a.cycles, a.valid) == \
            (b.energy_pj, b.cycles, b.valid)


# ---------------------------------------------------------------------------
# Satellite (a): cached results are oracle-exact on random mappings
# ---------------------------------------------------------------------------


def _temporal_only_arch():
    """fanout=1 everywhere so random mappings stay interpreter-friendly."""
    return Architecture("flat", [
        MemoryLevel("L1", {UNIFIED: 10**9}, read_energy=1.0,
                    write_energy=1.0),
        MemoryLevel("L2", {UNIFIED: 10**9}, read_energy=4.0,
                    write_energy=4.0),
        MemoryLevel("DRAM", None, read_energy=64.0, write_energy=64.0),
    ])


def test_cached_results_match_reference_interpreter():
    """Cache hits carry exactly the result ground truth prescribes."""
    arch = _temporal_only_arch()
    rng = random.Random(11)
    engine = SearchEngine(cache=True, partial_reuse=False)
    for trial in range(12):
        workload = conv1d(K=rng.choice([2, 4]), C=rng.choice([2, 3]),
                          P=rng.choice([4, 6]), R=rng.choice([1, 3]))
        mapping = sample_random_mapping(workload, arch, rng)
        first = engine.evaluate(mapping)
        second = engine.evaluate(mapping)  # served from the cache
        assert (second.energy_pj, second.cycles) == \
            (first.energy_pj, first.cycles)
        oracle = evaluate(mapping, partial_reuse=False)
        assert (second.energy_pj, second.cycles, second.valid) == \
            (oracle.energy_pj, oracle.cycles, oracle.valid)
        # Tie the analytical fills the cached result was computed from to
        # the brute-force interpreter.
        reference = simulate_fills(mapping)
        counts = count_accesses(mapping, partial_reuse=False)
        for (tensor_name, child), ref_words in \
                reference.fill_words.items():
            tensor = workload.tensor(tensor_name)
            parent = arch.parent_storage(child, tensor.role)
            volume = counts.per_tensor[tensor_name].pair(child, parent)
            model_words = volume.parent_side if tensor.is_output \
                else volume.child_side
            assert model_words == ref_words, (trial, tensor_name, child)
    assert engine.stats.cache_hits == 12
    assert engine.stats.evaluations == engine.stats.cache_misses


# ---------------------------------------------------------------------------
# EvalCache unit behaviour
# ---------------------------------------------------------------------------


class TestEvalCache:
    def test_counters_and_contains(self):
        cache = EvalCache()
        assert cache.get("a") is None
        assert cache.misses == 1 and cache.hits == 0
        cache.put("a", "result-a")
        assert "a" in cache and len(cache) == 1
        assert cache.get("a") == "result-a"
        assert cache.hits == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = EvalCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": now "b" is oldest
        cache.put("c", 3)
        assert cache.evictions == 1
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_overwrite_does_not_evict(self):
        cache = EvalCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert cache.evictions == 0
        assert cache.get("a") == 10

    def test_overwrite_at_capacity_refreshes_recency(self):
        # Re-putting an existing key at capacity must neither evict nor
        # bump the eviction counter, and must refresh the key's recency.
        cache = EvalCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # "b" is now the LRU entry
        assert cache.evictions == 0 and len(cache) == 2
        cache.put("c", 3)
        assert cache.evictions == 1
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_clear_keeps_counters(self):
        cache = EvalCache()
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_hit_rate_after_clear(self):
        # clear() keeps the hit/miss history, so hit_rate keeps
        # describing the whole lifetime — including post-clear misses
        # for keys the cache used to hold.
        cache = EvalCache()
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.clear()
        assert cache.get("a") is None
        assert cache.hits == 2 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_zero_means_unbounded(self):
        # 0 = unbounded, matching the CLI's --cache-size contract; only
        # negative capacities are rejected.
        cache = EvalCache(max_entries=0)
        assert cache.max_entries is None
        for i in range(1000):
            cache.put(f"k{i}", i)
        assert len(cache) == 1000 and cache.evictions == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="0 = unbounded"):
            EvalCache(max_entries=-1)


# ---------------------------------------------------------------------------
# Satellite (c): determinism regression
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("searches", [1, 2])
def test_search_is_reproducible_run_to_run(searches):
    """A fresh search and the ``searches``-th search of the same problem
    on one shared engine serialize identically."""
    workload, arch = _EQUIVALENCE_CASES[0]
    options = SchedulerOptions(cache=True)
    first = SunstoneScheduler(workload, arch, options).schedule()
    second = harness.nth_search(
        searches,
        lambda engine: SunstoneScheduler(workload, arch, options,
                                         engine=engine).schedule())
    assert first.found and second.found
    assert mapping_to_dict(first.mapping) == mapping_to_dict(second.mapping)
    assert _cost_tuple(first) == _cost_tuple(second)
    assert first.stats.evaluations == second.stats.evaluations


def test_tie_break_is_value_then_canonical_key():
    """Ranking ties resolve by canonical state key, not arrival order."""
    from repro.core.scheduler import _state_key

    workload, arch = _EQUIVALENCE_CASES[1]
    options = SchedulerOptions(cache=True)
    scheduler = SunstoneScheduler(workload, arch, options)
    result = scheduler.schedule()
    assert result.found
    # _state_key must be a pure function of the state's content.
    state_like = type("S", (), {
        "temporal": [{"K": 2, "C": 4}], "spatial": [{"K": 2}],
        "orders": [("K", "C")],
    })()
    permuted = type("S", (), {
        "temporal": [{"C": 4, "K": 2}], "spatial": [{"K": 2}],
        "orders": [("K", "C")],
    })()
    assert _state_key(state_like) == _state_key(permuted)


# ---------------------------------------------------------------------------
# Satellite (d): SearchStats counter exactness
# ---------------------------------------------------------------------------


def test_stats_exact_single_mapping():
    workload, arch = _EQUIVALENCE_CASES[0]
    mapping = build_mapping(
        workload, arch,
        temporal=[{"P": 7, "R": 3}, {"P": 2, "K": 2, "C": 4}, {"K": 2}],
        spatial=[{}, {"C": 1}, {}],
        orders=[["P", "R"], ["P", "K", "C"], ["K"]],
    )
    engine = SearchEngine(cache=True)
    for _ in range(3):
        engine.evaluate(mapping)
    assert engine.stats.evaluations == 1
    assert engine.stats.cache_misses == 1
    assert engine.stats.cache_hits == 2
    assert engine.stats.requests == 3
    assert engine.stats.hit_rate == pytest.approx(2 / 3)


def test_stats_exact_batch_with_duplicates():
    workload, arch = _EQUIVALENCE_CASES[0]
    rng = random.Random(5)
    distinct = [sample_random_mapping(workload, arch, rng)
                for _ in range(4)]
    batch = distinct + distinct[:2]  # 2 in-batch duplicates
    engine = SearchEngine(cache=True)
    engine.evaluate_many(batch)
    assert engine.stats.batches == 1
    assert engine.stats.evaluations == 4
    assert engine.stats.cache_misses == 4
    assert engine.stats.cache_hits == 2
    engine.evaluate_many(distinct)  # all hits now
    assert engine.stats.cache_hits == 6
    assert engine.stats.evaluations == 4


def test_stats_count_evictions():
    workload, arch = _EQUIVALENCE_CASES[0]
    rng = random.Random(9)
    engine = SearchEngine(cache=EvalCache(max_entries=2))
    for _ in range(5):
        engine.evaluate(sample_random_mapping(workload, arch, rng))
    assert engine.stats.cache_evictions == 3
    assert len(engine.cache) == 2


def test_stats_merge_and_summary():
    from repro.search import SearchStats

    a = SearchStats(evaluations=10, cache_hits=5, cache_misses=10)
    a.add_level_time("L1", 0.5)
    b = SearchStats(evaluations=3, cache_hits=1, cache_misses=3, prunes=7)
    b.add_level_time("L1", 0.25)
    b.add_level_time("DRAM", 1.0)
    a.merge(b)
    assert a.evaluations == 13
    assert a.requests == 19
    assert a.prunes == 7
    assert a.level_wall_time_s == {"L1": 0.75, "DRAM": 1.0}
    assert "cache hits 6" in a.summary()


def test_scheduler_stats_requests_match_evaluation_count():
    """SchedulerStats.evaluations counts every candidate; the engine
    sees one request per cohort row, and a sweep step stages one row
    per class of children sharing a completion fingerprint, so it gets
    fewer requests than there are candidates."""
    workload, arch = _EQUIVALENCE_CASES[0]
    result = schedule(workload, arch, SchedulerOptions(cache=True))
    search = result.stats.search
    assert search.requests < result.stats.evaluations
    assert search.evaluations < result.stats.evaluations  # cache did work
    assert search.cache_hits > 0


# The engine's cost-model work per equivalence case: sharing one cohort
# row per fingerprint class changes which requests reach the engine,
# never which fingerprints it evaluates.
_COST_MODEL_WORK = [(126, 97), (150, 132), (161, 143)]


@pytest.mark.parametrize("case", range(len(_EQUIVALENCE_CASES)))
def test_cost_model_work_is_pinned(case):
    """Engine evaluations and vectorised evaluations of a search (none
    are vectorised without numpy)."""
    workload, arch = _EQUIVALENCE_CASES[case]
    search = schedule(workload, arch, SchedulerOptions(cache=True)).stats.search
    evaluations, batched = _COST_MODEL_WORK[case]
    assert search.evaluations == evaluations
    assert search.batched_evaluations == (
        batched if optional_numpy.np is not None else 0)


# ---------------------------------------------------------------------------
# Satellite (d): bench entry point
# ---------------------------------------------------------------------------


def test_bench_fig9_quick_entry_runs():
    """`bench_fig9_overheads.py --quick` must report without crashing."""
    proc = subprocess.run(
        [sys.executable,
         str(REPO_ROOT / "benchmarks" / "bench_fig9_overheads.py"),
         "--quick", "--no-sim"],
        capture_output=True, text=True, timeout=600,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0, proc.stderr
    assert "search engine:" in proc.stdout
    assert "scheduling wall time" in proc.stdout


# ---------------------------------------------------------------------------
# Engine plumbing edge cases
# ---------------------------------------------------------------------------


def test_engine_rejects_bad_configuration():
    with pytest.raises(ValueError):
        SearchEngine(cache_size=-1)
    with pytest.raises(ValueError):
        SchedulerOptions(cache_size=-1)


def test_engine_without_cache_counts_only_evaluations():
    workload, arch = _EQUIVALENCE_CASES[0]
    rng = random.Random(2)
    mapping = sample_random_mapping(workload, arch, rng)
    engine = SearchEngine(cache=False)
    engine.evaluate(mapping)
    engine.evaluate(mapping)
    assert engine.stats.evaluations == 2
    assert engine.stats.cache_hits == 0
    assert engine.cache is None


def test_empty_batch_is_fine():
    engine = SearchEngine(cache=True)
    assert engine.evaluate_many([]) == []
