"""Regression: dense and sparse evaluations must never share a cache key.

The sparsity spec embeds verbatim in the mapping fingerprint, so a dense
engine and a sparse engine can share one :class:`EvalCache` object without
exchanging results.  These tests pin that key separation end-to-end.
"""

from repro.arch import UNIFIED, Architecture, MemoryLevel
from repro.mapping import build_mapping
from repro.search import EvalCache, SearchEngine
from repro.search.fingerprint import mapping_fingerprint
from repro.sparse import SparsitySpec, TensorSparsity, Uniform
from repro.workloads import make_workload


def _arch():
    return Architecture("fp", [
        MemoryLevel("L1", {UNIFIED: 10**6}, read_energy=1.0,
                    write_energy=1.0, fanout=2, fanout_shape=(2, 1)),
        MemoryLevel("DRAM", None, read_energy=64.0, write_energy=64.0),
    ])


def _mapping():
    wl = make_workload(
        "mm", {"I": 8, "J": 8, "K": 8},
        {"A": ["I", "K"], "B": ["K", "J"], "out": ["I", "J"]},
        outputs=["out"],
    )
    return build_mapping(
        wl, _arch(),
        temporal=[{"I": 4, "K": 8}, {"J": 8}],
        spatial=[{"I": 2}, {}],
        orders=[["I", "J", "K"], ["J", "I", "K"]],
    )


SPARSE = SparsitySpec.of({
    "A": TensorSparsity(Uniform(0.05), format="coordinate",
                        action="skipping"),
})


def test_dense_and_sparse_fingerprints_differ():
    mapping = _mapping()
    assert mapping_fingerprint(mapping) != \
        mapping_fingerprint(mapping, sparsity=SPARSE)


def test_distinct_specs_get_distinct_keys():
    mapping = _mapping()
    other = SparsitySpec.of({
        "A": TensorSparsity(Uniform(0.06), format="coordinate",
                            action="skipping"),
    })
    fmt = SparsitySpec.of({
        "A": TensorSparsity(Uniform(0.05), format="bitmask",
                            action="skipping"),
    })
    keys = {
        mapping_fingerprint(mapping, sparsity=spec)
        for spec in (SPARSE, other, fmt, None)
    }
    assert len(keys) == 4


def test_equal_specs_share_a_key():
    mapping = _mapping()
    twin = SparsitySpec.of({
        "A": TensorSparsity(Uniform(0.05), format="coordinate",
                            action="skipping"),
    })
    assert mapping_fingerprint(mapping, sparsity=SPARSE) == \
        mapping_fingerprint(mapping, sparsity=twin)


def test_engine_fingerprint_includes_spec():
    mapping = _mapping()
    dense_engine = SearchEngine()
    sparse_engine = SearchEngine(sparsity=SPARSE)
    assert dense_engine.fingerprint(mapping) != \
        sparse_engine.fingerprint(mapping)
    assert sparse_engine.fingerprint(mapping) == \
        mapping_fingerprint(mapping, sparsity=SPARSE)


def test_shared_cache_never_crosses_dense_and_sparse():
    """One cache object, two engines: results must stay separated."""
    mapping = _mapping()
    cache = EvalCache()
    dense_engine = SearchEngine(cache=cache)
    sparse_engine = SearchEngine(cache=cache, sparsity=SPARSE)

    dense_cost = dense_engine.evaluate(mapping)
    sparse_cost = sparse_engine.evaluate(mapping)
    # Both were computed fresh — the sparse lookup did not hit the dense
    # entry (that would have returned the dense result).
    assert dense_engine.stats.cache_misses == 1
    assert sparse_engine.stats.cache_misses == 1
    assert sparse_engine.stats.cache_hits == 0
    assert sparse_cost.energy_pj != dense_cost.energy_pj

    # Re-evaluation hits each engine's own entry.
    assert dense_engine.evaluate(mapping).energy_pj == dense_cost.energy_pj
    assert sparse_engine.evaluate(mapping).energy_pj == sparse_cost.energy_pj
    assert dense_engine.stats.cache_hits == 1
    assert sparse_engine.stats.cache_hits == 1


def test_batch_dedup_respects_the_spec():
    mapping = _mapping()
    cache = EvalCache()
    dense_engine = SearchEngine(cache=cache)
    sparse_engine = SearchEngine(cache=cache, sparsity=SPARSE)
    dense = dense_engine.evaluate_many([mapping, mapping])
    sparse = sparse_engine.evaluate_many([mapping, mapping])
    assert dense[0].energy_pj == dense[1].energy_pj
    assert sparse[0].energy_pj == sparse[1].energy_pj
    assert dense[0].energy_pj != sparse[0].energy_pj
