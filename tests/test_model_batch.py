"""Bit-identity and regression harness for ``repro.model.batch``.

Pins the determinism contract: the vectorised cohort evaluator produces
results bit-identical to the plain scalar ``evaluate()`` — every float
field, the validity verdict and the violation strings — across
window/halo workloads, bypass configurations, sparsity specs and random
per-level loop orders, whichever producer staged the cohort (a
``Mapping`` list or a nest cohort); and the engine counts as vectorised
exactly the rows the array path ran.
"""

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import conventional, diannao_like, simba_like, tiny
from repro.baselines.common import prime_factors
from repro.cli import main
from repro.core import SchedulerOptions, schedule
from repro.mapping import build_mapping
from repro.mapping.serialize import mapping_to_dict
from repro.mapspace.batch import NestCohort
from repro.model import HAVE_NUMPY, evaluate, evaluate_batch
from repro.model.batch import MIN_BATCH, mapping_nests
from repro.search import SearchEngine, mapping_fingerprint
from repro.sparse import SparsitySpec
from repro.workloads import (
    RESNET18_LAYERS,
    conv1d,
    conv2d,
    make_workload,
    mttkrp,
)
from tests.harness import scalar_paths


def _matmul(i=8, j=8, k=8):
    return make_workload(
        "mm", {"I": i, "J": j, "K": k},
        {"A": ["I", "K"], "B": ["K", "J"], "out": ["I", "J"]},
        outputs=["out"],
    )


# Window/halo (conv), unified capacities (tiny/conventional), storage
# bypass of every role (diannao on non-CNN roles), plain matmul, and
# per-role capacities with weights bypassing the global buffer (simba).
_CASES = [
    (conv1d(K=4, C=8, P=16, R=3), tiny()),
    (conv2d(N=1, K=8, C=8, P=6, Q=6, R=3, S=3), conventional()),
    (mttkrp(I=8, K=6, L=4, J=5), diannao_like()),
    (_matmul(8, 6, 8), tiny(l1_words=32, l2_words=256, pes=4)),
    (conv2d(N=1, K=8, C=8, P=6, Q=6, R=3, S=3), simba_like()),
]

# Unknown tensor names are ignored per workload, so one spec serves all
# cases (conv tensors I/W/O, mttkrp A/B/C/D, matmul A/B/out).
_SPARSE = SparsitySpec.from_densities(
    {"I": 0.3, "W": 0.5, "A": 0.2, "B": 0.6})

_FIELDS = ("energy_pj", "cycles", "valid", "violations", "level_energy",
           "compute_energy", "noc_energy", "utilization")


def _random_mappings(workload, arch, rng, n):
    """Deterministic random prime-split mappings (valid and invalid)."""
    num = arch.num_levels
    out = []
    for _ in range(n):
        temporal = [dict() for _ in range(num)]
        spatial = [dict() for _ in range(num)]
        for d, size in workload.dims.items():
            for p in prime_factors(size):
                lvl = rng.randrange(num)
                if rng.random() < 0.25 and arch.levels[lvl].fanout > 1:
                    spatial[lvl][d] = spatial[lvl].get(d, 1) * p
                else:
                    temporal[lvl][d] = temporal[lvl].get(d, 1) * p
        orders = []
        for _level in range(num):
            dims = list(workload.dims)
            rng.shuffle(dims)
            orders.append(dims)
        out.append(build_mapping(workload, arch, temporal, spatial, orders))
    return out


def _assert_same(a, b, context):
    for name in _FIELDS:
        assert getattr(a, name) == getattr(b, name), (context, name)


# ---------------------------------------------------------------------------
# seeded-hypothesis bit-identity property
# ---------------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_batch_bitwise_identical(seed):
    """Scalar, Mapping-list and nest-cohort paths agree exactly."""
    rng = random.Random(seed)
    workload, arch = _CASES[rng.randrange(len(_CASES))]
    sparsity = rng.choice([None, _SPARSE])
    partial_reuse = rng.random() < 0.75
    mappings = _random_mappings(workload, arch, rng, 8)

    scalar = [evaluate(m, partial_reuse=partial_reuse, sparsity=sparsity)
              for m in mappings]
    batched = evaluate_batch(mappings, partial_reuse=partial_reuse,
                             sparsity=sparsity)
    context = (workload.name, arch.name, sparsity is not None,
               partial_reuse)
    for i, oracle in enumerate(scalar):
        _assert_same(oracle, batched[i], context + ("batch", i))
    cohort = NestCohort.from_nests(workload, arch,
                                   [mapping_nests(m) for m in mappings])
    rows = list(range(len(mappings)))
    staged = cohort.evaluate_rows(rows, partial_reuse, sparsity)
    if not HAVE_NUMPY:
        assert staged is None  # no geometry: the engine goes scalar
        return
    for i, oracle in enumerate(scalar):
        _assert_same(oracle, staged[i], context + ("cohort", i))
    # A row subset stages only those rows, in the order asked for.
    subset = rows[::-3]
    picked = cohort.evaluate_rows(subset, partial_reuse, sparsity)
    for got, i in zip(picked, subset):
        _assert_same(scalar[i], got, context + ("subset", i))


def _sweep_cohort(workload, arch, rng, size):
    """One sweep-shaped cohort: the inner levels decided once (the
    state a level sweep carries between steps), every candidate
    redistributing the remaining prime factors over the two outermost
    levels.  Candidates share their inner-level terms, which the
    vectorised path computes once per cohort.  Yields each candidate as
    ``(temporal, spatial, orders)``."""
    num = arch.num_levels
    factors = [(d, p) for d, size in workload.dims.items()
               for p in prime_factors(size)]
    rng.shuffle(factors)
    split = len(factors) // 2
    lower_t = [dict() for _ in range(num)]
    lower_s = [dict() for _ in range(num)]
    for d, p in factors[:split]:
        lvl = rng.randrange(max(1, num - 1))
        if rng.random() < 0.25 and arch.levels[lvl].fanout > 1:
            lower_s[lvl][d] = lower_s[lvl].get(d, 1) * p
        else:
            lower_t[lvl][d] = lower_t[lvl].get(d, 1) * p
    orders = [list(workload.dims) for _ in range(num)]
    for _ in range(size):
        temporal = [dict(t) for t in lower_t]
        for d, p in factors[split:]:
            lvl = num - 1 if rng.random() < 0.5 else num - 2
            temporal[lvl][d] = temporal[lvl].get(d, 1) * p
        yield temporal, [dict(s) for s in lower_s], orders


@pytest.mark.parametrize("case", ["resnet18-conv2_x/diannao",
                                  "mttkrp/conventional"])
def test_sweep_cohorts_bitwise_identical(case):
    """Sweep-shaped cohorts: a nest cohort rebuilds exactly the mappings
    ``build_mapping`` makes, and the scalar model, ``evaluate_batch``
    and the nest cohort's rows agree on every field."""
    if case == "mttkrp/conventional":
        workload, arch = mttkrp(I=32, K=16, L=16, J=32), conventional()
    else:
        workload = RESNET18_LAYERS[1].inference(batch=1)
        arch = diannao_like()
    rng = random.Random(0)
    for _ in range(2):
        specs = list(_sweep_cohort(workload, arch, rng, 16))
        mappings = [build_mapping(workload, arch, *spec) for spec in specs]
        cohort = NestCohort.from_nests(workload, arch, [
            (tuple(tuple((d, temporal[lvl].get(d, 1)) for d in orders[lvl])
                   for lvl in range(len(temporal))),
             tuple(tuple(sorted(s.items())) for s in spatial))
            for temporal, spatial, orders in specs])
        for i, mapping in enumerate(mappings):
            assert (mapping_fingerprint(cohort.materialize(i))
                    == mapping_fingerprint(mapping)), (case, i)
        scalar = [evaluate(m) for m in mappings]
        for i, got in enumerate(evaluate_batch(mappings)):
            _assert_same(scalar[i], got, (case, "batch", i))
        staged = cohort.evaluate_rows(range(len(specs)), True, None)
        if not HAVE_NUMPY:
            assert staged is None  # no geometry: the engine goes scalar
            continue
        for i, got in enumerate(staged):
            _assert_same(scalar[i], got, (case, "cohort", i))


def test_violation_messages_match_mapping_validate():
    """The array path's fast validity check mirrors Mapping.validate(),
    whichever producer staged the cohort."""
    rng = random.Random(7)
    saw_invalid = 0
    seen: set[str] = set()
    for workload, arch in _CASES:
        mappings = _random_mappings(workload, arch, rng, 16)
        assert len(mappings) >= MIN_BATCH  # evaluate_batch stages them
        expected = [m.validate() for m in mappings]
        batched = evaluate_batch(mappings)
        assert [r.violations for r in batched] == expected
        # A nest cohort stages every row it is asked for, at any size.
        staged = NestCohort.from_nests(
            workload, arch, [mapping_nests(m) for m in mappings]
        ).evaluate_rows(list(range(len(mappings))), True, None)
        if HAVE_NUMPY:
            assert [r.violations for r in staged] == expected
        else:
            assert staged is None
        saw_invalid += sum(map(bool, expected))
        seen.update(re.sub(r"\d+", "N", p) for ps in expected for p in ps)
    assert saw_invalid > 0  # the sample must exercise the invalid branch
    # ...and every kind of violation string, the per-role one included.
    assert "level Regs: weight tile of N words exceeds capacity N" in seen
    assert any("exceeds unified capacity" in p for p in seen)
    assert any("exceeds fanout" in p for p in seen)


# ---------------------------------------------------------------------------
# engine routing determinism (cache x numpy)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sparsity", [None, _SPARSE])
def test_scheduler_equivalence_across_batch_configs(sparsity):
    workload, arch = _CASES[0]
    with scalar_paths():
        oracle = schedule(workload, arch,
                          SchedulerOptions(cache=False, sparsity=sparsity))
    assert oracle.found
    oracle_map = mapping_to_dict(oracle.mapping)
    oracle_cost = (oracle.cost.energy_pj, oracle.cost.cycles)
    configs = [
        dict(cache=True),
        dict(cache=False),
        dict(cache=True, cache_size=64),
    ]
    for scalar in (False, True):
        for config in configs:
            if scalar:
                with scalar_paths():
                    result = schedule(workload, arch, SchedulerOptions(
                        sparsity=sparsity, **config))
            else:
                result = schedule(workload, arch, SchedulerOptions(
                    sparsity=sparsity, **config))
            assert result.found, (scalar, config)
            assert mapping_to_dict(result.mapping) == oracle_map, \
                (scalar, config)
            assert (result.cost.energy_pj, result.cost.cycles) \
                == oracle_cost, (scalar, config)


def test_engine_evaluate_many_routes_through_batch():
    workload, arch = _CASES[3]
    mappings = _random_mappings(workload, arch, random.Random(5), 12)
    engine = SearchEngine(cache=True)
    results = engine.evaluate_many(mappings)
    oracle = [evaluate(m) for m in mappings]
    for got, want in zip(results, oracle):
        _assert_same(want, got, "engine")
    distinct = engine.stats.evaluations
    assert engine.stats.batched_evaluations == (distinct if HAVE_NUMPY
                                                else 0)
    assert "model" in engine.stats.stage_time_s
    assert "cache" in engine.stats.stage_time_s
    # One evaluation body: no alias beside the three public names.
    assert not hasattr(engine, "evaluate_batch")


def test_mixed_mapping_list_runs_scalar():
    """A ``Mapping`` list mixing workloads has no one geometry and runs
    the scalar model, also when the cache leaves only rows of a second
    workload to evaluate."""
    (wl_a, arch_a), (wl_b, arch_b) = _CASES[0], _CASES[3]
    rng = random.Random(23)
    mixed = (_random_mappings(wl_a, arch_a, rng, 1)
             + _random_mappings(wl_b, arch_b, rng, MIN_BATCH))
    oracle = [evaluate(m) for m in mixed]
    for got, want in zip(evaluate_batch(mixed), oracle):
        _assert_same(want, got, "evaluate_batch")
    engine = SearchEngine(cache=True)
    engine.evaluate(mixed[0])  # row 0 becomes a cache hit
    for got, want in zip(engine.evaluate_many(mixed), oracle):
        _assert_same(want, got, "engine")
    assert engine.stats.batched_evaluations == 0


def _count_array_rows(monkeypatch):
    """Spy on the array rollup: the list of cohort sizes it staged."""
    import repro.mapspace.batch as cohorts
    sizes = []
    real = cohorts.evaluate_geometry

    def spy(workload, arch, t_mat, *args, **kwargs):
        sizes.append(len(t_mat))
        return real(workload, arch, t_mat, *args, **kwargs)

    monkeypatch.setattr(cohorts, "evaluate_geometry", spy)
    return sizes


@pytest.mark.parametrize("rows", [3, MIN_BATCH, 12])
def test_vectorised_count_is_exactly_the_array_rows(rows, monkeypatch):
    """``batched_evaluations`` counts the rows the array path ran — for a
    Mapping list and a nest cohort alike, at one shared threshold."""
    workload, arch = _CASES[3]
    mappings = _random_mappings(workload, arch, random.Random(17), rows)
    sizes = _count_array_rows(monkeypatch)
    many = SearchEngine(cache=False)
    many.evaluate_many(mappings)
    assert many.stats.evaluations == rows
    assert many.stats.batched_evaluations == sum(sizes)
    assert sum(sizes) == (rows if HAVE_NUMPY and rows >= MIN_BATCH else 0)
    del sizes[:]
    cohort = SearchEngine(cache=False)
    cohort.evaluate_cohort(NestCohort.from_nests(
        workload, arch, [mapping_nests(m) for m in mappings]))
    assert cohort.stats.batched_evaluations == sum(sizes)
    assert sum(sizes) == (rows if HAVE_NUMPY and rows >= MIN_BATCH else 0)


def test_no_numpy_fallback_is_bitwise_scalar():
    workload, arch = _CASES[2]
    mappings = _random_mappings(workload, arch, random.Random(11), 8)
    oracle = [evaluate(m) for m in mappings]
    with scalar_paths():
        fallback = evaluate_batch(mappings)
        engine = SearchEngine(cache=False)
        via_engine = engine.evaluate_many(mappings)
    for got, want in zip(fallback, oracle):
        _assert_same(want, got, "no-numpy")
    for got, want in zip(via_engine, oracle):
        _assert_same(want, got, "no-numpy-engine")
    assert engine.stats.batched_evaluations == 0


# ---------------------------------------------------------------------------
# bounded result cache via the engine's cache_size knob
# ---------------------------------------------------------------------------


def test_engine_cache_size_bounds_result_cache():
    workload, arch = _CASES[3]
    mappings = _random_mappings(workload, arch, random.Random(13), 24)
    engine = SearchEngine(cache=True, cache_size=4)
    engine.evaluate_many(mappings)
    assert engine.cache.max_entries == 4
    assert len(engine.cache) <= 4
    assert engine.stats.cache_evictions > 0
    unbounded = SearchEngine(cache=True, cache_size=0)
    assert unbounded.cache.max_entries is None
    with pytest.raises(ValueError):
        SearchEngine(cache_size=-1)


def test_stats_profile_fields_merge_and_serialise():
    engine = SearchEngine()
    workload, arch = _CASES[0]
    engine.evaluate_many(_random_mappings(workload, arch,
                                          random.Random(1), 6))
    snapshot = engine.stats.to_dict()
    for key in ("stage_time_s", "batched_evaluations"):
        assert key in snapshot
    assert not any(key.startswith("partial") for key in snapshot)
    text = engine.stats.profile_summary()
    assert "vectorised" in text and "stage time" in text
    merged = type(engine.stats)()
    merged.merge(engine.stats)
    merged.merge(engine.stats)
    assert merged.batched_evaluations == 2 * engine.stats.batched_evaluations
    for stage, seconds in engine.stats.stage_time_s.items():
        assert merged.stage_time_s[stage] == pytest.approx(2 * seconds)


# ---------------------------------------------------------------------------
# CLI: --profile / --cache-size, and the scalar paths
# ---------------------------------------------------------------------------

_CLI_SCHEDULE = ["schedule", "--workload", "conv1d",
                 "K=4", "C=4", "P=8", "R=3", "--arch", "tiny"]


def test_cli_profile_and_stats_json(tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    code = main(_CLI_SCHEDULE + ["--profile", "--cache-size", "1000",
                                 "--stats-json", str(stats_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "profile:" in out and "vectorised" in out
    assert "partial-term" not in out
    document = json.loads(stats_path.read_text())
    search = document["search"]
    assert "stage_time_s" in search
    assert search["batched_evaluations"] >= 0


def test_cli_no_batch_is_bit_identical(tmp_path):
    """The CLI without vectorised batches (the no-numpy paths) prints
    the same mapping and cost."""
    default_path = tmp_path / "default.json"
    scalar_path = tmp_path / "scalar.json"
    assert main(_CLI_SCHEDULE + ["--stats-json", str(default_path)]) == 0
    with scalar_paths():
        assert main(_CLI_SCHEDULE + ["--stats-json", str(scalar_path)]) == 0
    lhs = json.loads(default_path.read_text())
    rhs = json.loads(scalar_path.read_text())
    assert lhs["mapping"] == rhs["mapping"]
    assert lhs["cost"] == rhs["cost"]
    assert rhs["search"]["batched_evaluations"] == 0


def test_cli_batch_flags_are_gone(capsys):
    for flag in ("--no-batch", "--no-batch-gen"):
        with pytest.raises(SystemExit):
            main(_CLI_SCHEDULE + [flag])
    assert "unrecognized arguments" in capsys.readouterr().err
