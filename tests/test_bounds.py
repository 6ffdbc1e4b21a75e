"""Soundness and exactness of the analytic branch-and-bound layer.

Two properties pin ``repro.mapspace.bounds``:

* **Soundness** — for every mapping ``m`` the point bound never exceeds
  the exact objective value, and for every region the region bound
  never exceeds the minimum over the region's members.  A sound bound
  combined with the strict ``bound > incumbent`` prune rule can never
  discard the true winner.
* **Exactness in use** — every bound-aware mapper returns the same best
  mapping and bit-identical cost with bounds on and off, across sweep
  directions, fresh and shared engines, shards and sparsity specs; the
  bound-free mappers (timeloop/gamma/cosa) are untouched.

Plus the user-facing surface: the per-search optimality certificate on
``repro schedule`` output and in ``--stats-json``.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import replace

import pytest

from repro.baselines.cosa import cosa_search
from repro.baselines.dmazerunner import dmazerunner_search
from repro.baselines.exhaustive import exhaustive_search
from repro.baselines.gamma import GammaConfig, gamma_search
from repro.baselines.interstellar import interstellar_search
from repro.baselines import TIMELOOP_FAST, timeloop_search
from repro.cli import main
from repro.core.scheduler import SchedulerOptions, SunstoneScheduler
from repro.mapspace import full_mapping_space
from repro.mapspace.bounds import BoundModel, Region
from repro.search import SearchEngine, mapping_fingerprint
from repro.sparse import SparsitySpec
from repro.workloads import conv1d, mttkrp
from tests import harness

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
    space = full_mapping_space(workload, arch, orders_per_level=2)
    return [m for i, m in enumerate(space.enumerate()) if i % stride == 0]


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
    space = full_mapping_space(workload, arch, orders_per_level=2)
    first = workload.dim_names[0]
    minima: dict[tuple, float] = {}
    engine = SearchEngine(sparsity=sparsity)
    for mapping in space.enumerate():
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
                        [{first: s} for _, s in key], dict(free), 0)
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
# exactness: identical winners with bounds on and off
# ---------------------------------------------------------------------------

def _same_schedule(on, off):
    assert on.found == off.found
    if on.found:
        assert (mapping_fingerprint(on.mapping)
                == mapping_fingerprint(off.mapping))
        assert on.cost.edp == off.cost.edp
        assert on.cost.energy_pj == off.cost.energy_pj


def _same_winner(a, b):
    """Same verdict, mapping and cost (evaluation counts are allowed
    to differ — that is the entire point of the bounds)."""
    assert (a.mapping is None) == (b.mapping is None)
    if a.mapping is not None:
        assert (mapping_fingerprint(a.mapping)
                == mapping_fingerprint(b.mapping))
        assert a.cost.edp == b.cost.edp
        assert a.cost.energy_pj == b.cost.energy_pj


@pytest.mark.parametrize("searches", [1, 2])
@pytest.mark.parametrize("direction", ["bottom-up", "top-down"])
@pytest.mark.parametrize("sparse_key", ["dense", "csr-skipping"])
def test_sunstone_bit_identical_with_bounds(direction, sparse_key,
                                            searches):
    workload = harness.tiny_mttkrp()
    arch = harness.small_arch()
    sparsity = SPARSE_SPECS[sparse_key]
    base = SchedulerOptions(direction=direction, sparsity=sparsity)

    def search(bound):
        return harness.nth_search(
            searches,
            lambda engine: SunstoneScheduler(
                workload, arch, replace(base, bound=bound),
                engine=engine).schedule(),
            sparsity=sparsity)

    on = search(True)
    off = search(False)
    _same_schedule(on, off)
    assert off.stats.prune.bound.candidates_skipped == 0


def test_sunstone_bound_prunes_and_stays_identical_on_conv():
    layer = harness.resnet_conv_layer()
    arch = harness.resnet_conv_arch()
    on = SunstoneScheduler(layer, arch,
                           SchedulerOptions(bound=True)).schedule()
    off = SunstoneScheduler(layer, arch,
                            SchedulerOptions(bound=False)).schedule()
    _same_schedule(on, off)
    assert on.stats.prune.bound.candidates_skipped > 0


def test_sunstone_bound_prunes_medium_mttkrp():
    workload = harness.medium_mttkrp()
    arch = harness.medium_arch()
    on = SunstoneScheduler(workload, arch,
                           SchedulerOptions(bound=True)).schedule()
    off = SunstoneScheduler(workload, arch,
                            SchedulerOptions(bound=False)).schedule()
    _same_schedule(on, off)
    bnd = on.stats.prune.bound
    assert bnd.candidates_skipped > 0
    assert on.stats.evaluations < off.stats.evaluations
    # The certificate brackets the winner from below.
    assert bnd.lower_bound is not None
    assert bnd.lower_bound <= bnd.best_value == on.cost.edp
    assert bnd.gap_pct() is not None and bnd.gap_pct() >= 0.0


@pytest.mark.parametrize("shard", [None, (0, 2), (1, 2)])
def test_exhaustive_bit_identical_with_bounds(shard):
    workload = harness.tiny_mttkrp()
    arch = harness.small_arch()
    on = exhaustive_search(workload, arch, orders_per_level=2,
                           shard=shard, bound=True)
    off = exhaustive_search(workload, arch, orders_per_level=2,
                            shard=shard, bound=False)
    assert on.found and off.found
    assert (mapping_fingerprint(on.mapping)
            == mapping_fingerprint(off.mapping))
    assert on.cost.edp == off.cost.edp
    assert on.cost.energy_pj == off.cost.energy_pj
    # The prune is real, and evaluated + provably-skipped candidates
    # partition this shard's share of the space exactly.
    stats = on.search_stats
    assert stats.bound_candidates_skipped > 0
    assert (on.evaluations + stats.bound_candidates_skipped
            == off.evaluations)


def test_exhaustive_bit_identical_with_bounds_sparse():
    workload = harness.tiny_mttkrp()
    arch = harness.small_arch()
    spec = SPARSE_SPECS["csr-skipping"]
    on = exhaustive_search(workload, arch, orders_per_level=2,
                           sparsity=spec, bound=True)
    off = exhaustive_search(workload, arch, orders_per_level=2,
                            sparsity=spec, bound=False)
    assert on.found and off.found
    assert (mapping_fingerprint(on.mapping)
            == mapping_fingerprint(off.mapping))
    assert on.cost.edp == off.cost.edp


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

    def search(bound):
        return harness.nth_search(
            searches,
            lambda engine: dmazerunner_search(workload, arch, engine=engine,
                                              bound=bound))

    on = search(True)
    off = search(False)
    _same_winner(on, off)
    assert on.certificate is not None and "gap_pct" in on.certificate
    assert off.certificate is None


@pytest.mark.parametrize("searches", [1, 2])
def test_interstellar_bit_identical_with_bounds(searches):
    workload = harness.medium_mttkrp()
    arch = harness.medium_arch()

    def search(bound):
        return harness.nth_search(
            searches,
            lambda engine: interstellar_search(workload, arch, engine=engine,
                                               bound=bound))

    on = search(True)
    off = search(False)
    _same_winner(on, off)
    assert on.certificate is not None


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


def test_schedule_cli_no_bound_flag(capsys):
    code = main([
        "schedule", "--workload", "mttkrp", "--arch", "tiny",
        "--no-bound", "I=8", "K=8", "L=4", "J=8",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "certificate:" not in out


def test_schedule_cli_no_bound_same_mapping(capsys, tmp_path):
    """The escape hatch changes evaluation counts, never the answer."""
    docs = []
    for flags in ([], ["--no-bound"]):
        stats = str(tmp_path / f"s{len(docs)}.json")
        code = main(["schedule", "--workload", "mttkrp", "--arch", "tiny",
                     "--stats-json", stats, "I=8", "K=8", "L=4", "J=8"]
                    + flags)
        assert code == 0
        capsys.readouterr()
        with open(stats) as handle:
            docs.append(json.load(handle))
    assert docs[0]["mapping"] == docs[1]["mapping"]
    assert docs[0]["cost"] == docs[1]["cost"]
