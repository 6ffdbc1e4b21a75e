"""Soundness and exactness of the analytic branch-and-bound layer.

Two properties pin ``repro.mapspace.bounds``:

* **Soundness** — for every mapping ``m`` the point bound never exceeds
  the exact objective value, and for every region the region bound
  never exceeds the minimum over the region's members.  A sound bound
  combined with the strict ``bound > incumbent`` prune rule can never
  discard the true winner.
* **Exactness in use** — the exhaustive walker, the one searcher that
  prunes regions, returns the first-attainer argmin of the test
  oracle's unpruned stream (same mapping, bit-identical cost) across
  shards and sparsity specs, and it prunes effectively.  The
  Sunstone-sweep mappers (Sunstone, dMazeRunner-like,
  Interstellar-like) test no bounds: they evaluate every candidate and
  ask the model once per search phase for the whole-space floor of
  their certificate, identically on fresh and shared engines.  The
  bound-free mappers (timeloop/gamma/cosa) carry no certificate.

Plus the user-facing surface: the per-search optimality certificate on
``repro schedule`` output and in ``--stats-json``, and the retired
``--no-bound`` flag.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json

import pytest

from repro.arch import tiny
from repro.baselines.cosa import cosa_search
from repro.baselines.dmazerunner import dmazerunner_search
from repro.baselines.exhaustive import exhaustive_search
from repro.baselines.gamma import GammaConfig, gamma_search
from repro.baselines.interstellar import interstellar_search
from repro.baselines import TIMELOOP_FAST, timeloop_search
from repro.baselines.common import certificate_from_bound
from repro.cli import main
from repro.core.scheduler import SchedulerOptions, SunstoneScheduler
from repro.mapspace import full_space_size
from repro.mapspace.bounds import BoundModel, Region
from repro.search import SearchEngine, mapping_fingerprint
from repro.sparse import SparsitySpec
from repro.workloads import conv1d, mttkrp
from tests import harness
from tests.mapspace_oracle import oracle_full_space_stream

SPARSE_SPECS = {
    "dense": None,
    "csr-skipping": SparsitySpec.from_densities(
        {"B": 0.3, "C": 0.6}, formats={"B": "csr"},
        actions={"B": "skipping"}),
    "gating": SparsitySpec.from_densities(
        {"A": 0.5}, formats={"A": "uncompressed"},
        actions={"A": "gating"}),
}


def _value(cost, objective):
    return cost.edp if objective == "edp" else cost.energy_pj


def _sampled_points(workload, arch, stride):
    """Every ``stride``-th mapping of the small full space."""
    return list(itertools.islice(
        oracle_full_space_stream(workload, arch, 2), 0, None, stride))


@functools.lru_cache(maxsize=None)
def _oracle_values(sparse_key):
    """The EDP of every candidate of the oracle's stream of the tiny
    MTTKRP space (two orders per level), ``None`` where invalid."""
    stream = oracle_full_space_stream(harness.tiny_mttkrp(),
                                      harness.small_arch(), 2)
    engine = SearchEngine(cache=False, sparsity=SPARSE_SPECS[sparse_key])
    values = []
    while chunk := list(itertools.islice(stream, 1024)):
        values += [cost.edp if cost.valid else None
                   for cost in engine.evaluate_many(chunk)]
    return tuple(values)


def _oracle_argmin(sparse_key, shard):
    """The unpruned reference of one exhaustive shard: the first of the
    shard's candidates to attain the least EDP, with its exact cost, and
    the shard's candidate count."""
    values = _oracle_values(sparse_key)
    index, count = shard or (0, 1)
    members = range(index, len(values), count)
    best = None
    for k in members:
        if values[k] is not None and (best is None
                                      or values[k] < values[best]):
            best = k
    mapping = next(itertools.islice(oracle_full_space_stream(
        harness.tiny_mttkrp(), harness.small_arch(), 2), best, None))
    cost = SearchEngine(sparsity=SPARSE_SPECS[sparse_key]).evaluate(mapping)
    assert cost.edp == values[best]
    return mapping, cost, len(members)


def _assert_matches_oracle(result, sparse_key, shard=None):
    """``result`` is its shard's oracle argmin, bit for bit, and its
    evaluated plus provably skipped candidates partition the shard."""
    mapping, cost, share = _oracle_argmin(sparse_key, shard)
    assert result.found
    assert (mapping_fingerprint(result.mapping)
            == mapping_fingerprint(mapping))
    assert result.cost.edp == cost.edp
    assert result.cost.energy_pj == cost.energy_pj
    size = full_space_size(harness.tiny_mttkrp(), harness.small_arch(), 2)
    index, count = shard or (0, 1)
    assert share == len(range(index, size, count))
    stats = result.search_stats
    assert stats.bound_candidates_skipped > 0
    assert result.evaluations + stats.bound_candidates_skipped == share


# ---------------------------------------------------------------------------
# soundness: point and region bounds never exceed exact values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sparse_key", sorted(SPARSE_SPECS))
@pytest.mark.parametrize("objective", ["edp", "energy"])
def test_point_bound_never_exceeds_value(sparse_key, objective):
    workload = harness.tiny_mttkrp()
    arch = harness.small_arch()
    sparsity = SPARSE_SPECS[sparse_key]
    model = BoundModel(workload, arch, objective=objective,
                       sparsity=sparsity)
    checked = 0
    engine = SearchEngine(sparsity=sparsity)
    for mapping in _sampled_points(workload, arch, stride=89):
        cost = engine.evaluate(mapping)
        if not cost.valid:
            continue
        value = _value(cost, objective)
        assert model.mapping_bound(mapping) <= value * (1 + 1e-12), (
            f"point bound exceeds exact {objective} for {mapping}")
        checked += 1
    assert checked > 50


@pytest.mark.parametrize("sparse_key", ["dense", "csr-skipping"])
def test_region_bound_never_exceeds_region_min(sparse_key):
    """Depth-1 prefix regions (one dimension fully assigned): the
    region bound is at most the minimum exact EDP over every member."""
    workload = mttkrp(2, 2, 2, 4)
    arch = harness.small_arch()
    sparsity = SPARSE_SPECS[sparse_key]
    model = BoundModel(workload, arch, objective="edp", sparsity=sparsity)
    first = workload.dim_names[0]
    minima: dict[tuple, float] = {}
    engine = SearchEngine(sparsity=sparsity)
    for mapping in oracle_full_space_stream(workload, arch, 2):
        cost = engine.evaluate(mapping)
        if not cost.valid:
            continue
        key = tuple(
            (lvl.temporal_factors.get(first, 1),
             lvl.spatial_factors.get(first, 1))
            for lvl in mapping.levels
        )
        value = cost.edp
        if key not in minima or value < minima[key]:
            minima[key] = value
    assert minima
    free = {d: e for d, e in workload.dims.items() if d != first}
    for key, exact_min in minima.items():
        region = Region([{first: t} for t, _ in key],
                        [{first: s} for _, s in key], dict(free))
        bound = model.region_bound(region)
        assert bound <= exact_min * (1 + 1e-12), (
            f"region bound {bound} exceeds exact min {exact_min} "
            f"for {first}={key}")


def test_unassigned_region_bounds_the_whole_space():
    """``space_bound()`` (no decided dims) is a lower bound on every
    point — the quantity the certificate divides by."""
    workload = harness.tiny_mttkrp()
    arch = harness.small_arch()
    model = BoundModel(workload, arch, objective="edp")
    floor = model.space_bound()
    assert floor > 0
    result = exhaustive_search(workload, arch, orders_per_level=2)
    assert result.found
    assert floor <= result.cost.edp


# ---------------------------------------------------------------------------
# the Sunstone-sweep mappers: certified, and a warm cache changes nothing
# ---------------------------------------------------------------------------

def _same_schedule(a, b):
    """Same verdict, mapping, cost and evaluation count."""
    assert a.found == b.found
    if a.found:
        assert (mapping_fingerprint(a.mapping)
                == mapping_fingerprint(b.mapping))
        assert a.cost.edp == b.cost.edp
        assert a.cost.energy_pj == b.cost.energy_pj
    assert a.stats.evaluations == b.stats.evaluations


def _same_winner(a, b):
    """Same verdict, mapping and cost."""
    assert (a.mapping is None) == (b.mapping is None)
    if a.mapping is not None:
        assert (mapping_fingerprint(a.mapping)
                == mapping_fingerprint(b.mapping))
        assert a.cost.edp == b.cost.edp
        assert a.cost.energy_pj == b.cost.energy_pj


def _assert_certified(certificate, value):
    """The certificate brackets the winner's ``value`` from below."""
    assert certificate is not None
    assert certificate["lower_bound"] <= certificate["best_value"] == value
    assert certificate["gap_pct"] >= 0.0


@pytest.mark.parametrize("searches", [1, 2])
@pytest.mark.parametrize("direction", ["bottom-up", "top-down"])
@pytest.mark.parametrize("sparse_key", ["dense", "csr-skipping"])
def test_sunstone_bit_identical_with_bounds(direction, sparse_key,
                                            searches):
    """The ``searches``-th search on one shared engine returns what a
    cold search returns, certificate included."""
    workload = harness.tiny_mttkrp()
    arch = harness.small_arch()
    sparsity = SPARSE_SPECS[sparse_key]
    options = SchedulerOptions(direction=direction, sparsity=sparsity)
    cold = SunstoneScheduler(workload, arch, options).schedule()
    warm = harness.nth_search(
        searches,
        lambda engine: SunstoneScheduler(workload, arch, options,
                                         engine=engine).schedule(),
        sparsity=sparsity)
    _same_schedule(warm, cold)
    certificate = certificate_from_bound(warm.stats.bound)
    assert certificate == certificate_from_bound(cold.stats.bound)
    _assert_certified(certificate, warm.cost.edp)


def test_sunstone_bound_prunes_medium_mttkrp():
    workload = harness.medium_mttkrp()
    arch = harness.medium_arch()
    result = SunstoneScheduler(workload, arch).schedule()
    bnd = result.stats.bound
    # The certificate brackets the winner from below.
    assert bnd.lower_bound is not None
    assert bnd.lower_bound <= bnd.best_value == result.cost.edp
    assert bnd.gap_pct() is not None and bnd.gap_pct() >= 0.0


@pytest.mark.parametrize("case", ["mttkrp-one-phase", "conv1d-two-phases"])
def test_sunstone_bounds_once_per_phase(monkeypatch, case):
    """Sunstone tests no point or region bounds while it searches: the
    model is asked once per search phase, for the certificate's
    whole-space floor."""
    if case == "mttkrp-one-phase":
        workload, arch = harness.medium_mttkrp(), harness.medium_arch()
    else:
        # Prime extents leave lanes idle, so the search escalates once.
        workload, arch = conv1d(K=5, C=3, P=7, R=3), harness.small_arch()
    counts = {"region_bound": 0, "phases": 0}
    region_bound = BoundModel.region_bound
    schedule_once = SunstoneScheduler._schedule_once

    def counted_bound(self, region):
        counts["region_bound"] += 1
        return region_bound(self, region)

    def counted_phase(self, *args, **kwargs):
        counts["phases"] += 1
        return schedule_once(self, *args, **kwargs)

    monkeypatch.setattr(BoundModel, "region_bound", counted_bound)
    monkeypatch.setattr(SunstoneScheduler, "_schedule_once", counted_phase)
    result = SunstoneScheduler(workload, arch).schedule()
    assert result.found
    assert counts["phases"] == (1 if case == "mttkrp-one-phase" else 2)
    assert counts["region_bound"] == counts["phases"]


@pytest.mark.parametrize("shard", [None, (0, 2), (1, 2)])
def test_exhaustive_bit_identical_with_bounds(shard):
    result = exhaustive_search(harness.tiny_mttkrp(), harness.small_arch(),
                               orders_per_level=2, shard=shard)
    _assert_matches_oracle(result, "dense", shard)


def test_exhaustive_bit_identical_with_bounds_sparse():
    result = exhaustive_search(harness.tiny_mttkrp(), harness.small_arch(),
                               orders_per_level=2,
                               sparsity=SPARSE_SPECS["csr-skipping"])
    _assert_matches_oracle(result, "csr-skipping")


def test_exhaustive_prunes_effectively():
    """On the default tiny machine the walk skips at least 30% of the
    MTTKRP space without evaluating it."""
    workload = mttkrp(4, 4, 2, 4)
    arch = tiny()
    size = full_space_size(workload, arch, 2)
    assert size == 32_000
    result = exhaustive_search(workload, arch, orders_per_level=2)
    skipped = result.search_stats.bound_candidates_skipped
    assert result.evaluations + skipped == size
    assert skipped >= 0.3 * size


def test_exhaustive_scalar_path_matches_vector_path_under_bounds():
    """The numpy-free fallback walks the identical incumbent/prune
    trajectory: same winner *and* same evaluation count."""
    workload = harness.tiny_mttkrp()
    arch = harness.small_arch()
    vector = exhaustive_search(workload, arch, orders_per_level=2)
    from tests.harness import assert_same_search_result, scalar_paths
    with scalar_paths():
        scalar = exhaustive_search(workload, arch, orders_per_level=2)
    assert_same_search_result(vector, scalar)
    assert (vector.search_stats.bound_candidates_skipped
            == scalar.search_stats.bound_candidates_skipped)


@pytest.mark.parametrize("scalar", [False, True], ids=["numpy", "scalar"])
def test_exhaustive_bounds_each_tested_region_once(monkeypatch, scalar):
    """The walker asks the model once per tested prefix region, plus
    once for the certificate's whole-space bound."""
    calls = 0
    region_bound = BoundModel.region_bound

    def counted(self, region):
        nonlocal calls
        calls += 1
        return region_bound(self, region)

    monkeypatch.setattr(BoundModel, "region_bound", counted)
    workload = mttkrp(8, 4, 2, 8)
    arch = harness.small_arch()
    with harness.scalar_paths() if scalar else contextlib.nullcontext():
        result = exhaustive_search(workload, arch, orders_per_level=2)
    tested = result.search_stats.bound_regions_tested
    assert result.found and tested > 0
    assert calls == tested + 1


@pytest.mark.parametrize("searches", [1, 2])
def test_dmazerunner_bit_identical_with_bounds(searches):
    workload = harness.medium_mttkrp()
    arch = harness.medium_arch()
    cold = dmazerunner_search(workload, arch)
    warm = harness.nth_search(
        searches,
        lambda engine: dmazerunner_search(workload, arch, engine=engine))
    _same_winner(warm, cold)
    assert warm.evaluations == cold.evaluations
    assert warm.certificate == cold.certificate
    _assert_certified(warm.certificate, warm.cost.edp)


@pytest.mark.parametrize("searches", [1, 2])
def test_interstellar_bit_identical_with_bounds(searches):
    workload = harness.medium_mttkrp()
    arch = harness.medium_arch()
    cold = interstellar_search(workload, arch)
    warm = harness.nth_search(
        searches,
        lambda engine: interstellar_search(workload, arch, engine=engine))
    _same_winner(warm, cold)
    assert warm.evaluations == cold.evaluations
    assert warm.certificate == cold.certificate
    _assert_certified(warm.certificate, warm.cost.edp)


def test_bound_free_mappers_have_no_certificate():
    """timeloop/gamma/cosa never consult the bounds layer: no knob, no
    certificate, results untouched by this feature."""
    workload = harness.tiny_mttkrp()
    arch = harness.small_arch()
    tl = timeloop_search(workload, arch, TIMELOOP_FAST)
    ga = gamma_search(workload, arch, GammaConfig(generations=2, seed=1))
    co = cosa_search(workload, arch)
    for result in (tl, ga, co):
        assert result.certificate is None


# ---------------------------------------------------------------------------
# user-facing certificate (CLI)
# ---------------------------------------------------------------------------

def test_schedule_cli_prints_certificate(capsys, tmp_path):
    stats = str(tmp_path / "stats.json")
    code = main([
        "schedule", "--workload", "mttkrp", "--arch", "tiny",
        "--stats-json", stats, "I=8", "K=8", "L=4", "J=8",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "certificate: best found is within" in out
    assert "analytic lower bound" in out
    with open(stats) as handle:
        doc = json.load(handle)
    assert doc["certificate"] is not None
    assert doc["certificate"]["gap_pct"] >= 0.0
    assert doc["certificate"]["lower_bound"] <= doc["certificate"][
        "best_value"]
    assert doc["search"]["bound"]["candidates_skipped"] >= 0


def _assert_no_bound_rejected(capsys, argv):
    """``--no-bound`` is retired: argparse rejects it (exit 2) before
    anything runs."""
    with pytest.raises(SystemExit) as caught:
        main(argv + ["--no-bound"])
    assert caught.value.code == 2
    assert "--no-bound" in capsys.readouterr().err


def test_schedule_cli_no_bound_flag(capsys):
    _assert_no_bound_rejected(capsys, [
        "schedule", "--workload", "mttkrp", "--arch", "tiny",
        "I=8", "K=8", "L=4", "J=8"])


@pytest.mark.parametrize("argv", [
    ["compare", "--workload", "mttkrp", "I=8", "K=8", "L=4", "J=8"],
    ["network", "configs/resnet18.json"],
    ["submit", "--workload", "mttkrp", "I=8", "K=8", "L=4", "J=8"],
], ids=["compare", "network", "submit"])
def test_retired_no_bound_flag_is_rejected(capsys, argv):
    _assert_no_bound_rejected(capsys, argv)
