"""Behavioural guarantees of the sparse cost model.

* **Dense identity** (metamorphic): a density-1.0 spec — whatever format
  or action it declares — yields output bit-identical to the dense model,
  for every mapper and every cache setting, on a fresh or a shared
  engine.
* **Monotonicity** (property): sparse traffic, energy and latency are
  monotonically non-decreasing in density (seeded hypothesis, in the
  style of ``tests/test_fingerprint_properties.py``).
* **Mapping shift** (acceptance): on SDDMM with a genuinely sparse
  sampling matrix, scheduling *with* the sparse model finds a mapping
  whose modelled energy beats the dense-model choice.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import tiny
from repro.baselines import (
    cosa_search,
    dmazerunner_search,
    exhaustive_search,
    interstellar_search,
    timeloop_search,
)
from repro.baselines.gamma import GammaConfig, gamma_search
from repro.baselines.random_search import TimeloopConfig
from repro.core import SchedulerOptions, schedule
from repro.model import evaluate
from repro.sparse import (
    Banded,
    SparsitySpec,
    TensorSparsity,
    Uniform,
    traffic_scale,
)
from repro.workloads import mmc, sddmm
from tests import harness

_SETTINGS = dict(max_examples=60, deadline=None, derandomize=True)

ARCH = tiny()
WORKLOAD = mmc(I=8, J=8, K=8, L=8)

#: Degenerate density-1.0 specs: every format x action combination that a
#: user could declare without actually being sparse.
DENSE_SPECS = [
    SparsitySpec.of({
        "A": TensorSparsity(Uniform(1.0), format=fmt, action=action),
        "B": TensorSparsity(Banded(1.0, cluster=4.0), format=fmt),
    })
    for fmt in ("uncompressed", "bitmask", "rle", "coordinate")
    for action in ("none", "gating", "skipping")
]


def _cost_tuple(result):
    cost = result.cost
    return (cost.energy_pj, cost.cycles, cost.valid, str(result.mapping))


MAPPERS = {
    "sunstone": lambda spec: schedule(
        WORKLOAD, ARCH, SchedulerOptions(sparsity=spec)),
    "timeloop": lambda spec: timeloop_search(
        WORKLOAD, ARCH, TimeloopConfig(timeout=400, victory_condition=25),
        sparsity=spec),
    "dmazerunner": lambda spec: dmazerunner_search(
        WORKLOAD, ARCH, sparsity=spec),
    "interstellar": lambda spec: interstellar_search(
        WORKLOAD, ARCH, sparsity=spec),
    "cosa": lambda spec: cosa_search(WORKLOAD, ARCH, sparsity=spec),
    "gamma": lambda spec: gamma_search(
        WORKLOAD, ARCH, GammaConfig(population=16, generations=4),
        sparsity=spec),
    "exhaustive": lambda spec: exhaustive_search(
        mmc(I=2, J=2, K=2, L=2), ARCH, max_evaluations=10_000,
        orders_per_level=1, sparsity=spec),
}


class TestDenseIdentity:
    """density == 1.0 must be bit-identical to no spec at all."""

    @pytest.mark.parametrize("mapper", sorted(MAPPERS))
    def test_every_mapper_is_bit_identical(self, mapper):
        run = MAPPERS[mapper]
        baseline = _cost_tuple(run(None))
        # One representative degenerate spec per mapper keeps this fast;
        # the full format x action sweep runs through evaluate() below.
        assert _cost_tuple(run(DENSE_SPECS[-1])) == baseline, mapper

    @pytest.mark.parametrize("spec", DENSE_SPECS,
                             ids=[s.describe() for s in DENSE_SPECS])
    def test_every_degenerate_spec_is_bit_identical(self, spec):
        dense = schedule(WORKLOAD, ARCH)
        mapping = dense.mapping
        base = evaluate(mapping)
        got = evaluate(mapping, sparsity=spec)
        assert (got.energy_pj, got.cycles) == (base.energy_pj, base.cycles)
        assert got.valid == base.valid
        assert got.level_energy == base.level_energy
        assert got.noc_energy == base.noc_energy

    @pytest.mark.parametrize("searches,cache",
                             [(1, True), (1, False), (2, True), (2, False)])
    def test_identity_holds_for_every_engine_setting(self, searches, cache):
        baseline = _cost_tuple(schedule(WORKLOAD, ARCH))
        spec = DENSE_SPECS[0]
        options = SchedulerOptions(cache=cache, sparsity=spec)
        result = harness.nth_search(
            searches,
            lambda engine: schedule(WORKLOAD, ARCH, options, engine=engine),
            cache=cache, sparsity=spec)
        assert _cost_tuple(result) == baseline

    def test_sparsity_never_changes_validity(self):
        spec = SparsitySpec.from_densities({"A": 0.01})
        result = schedule(WORKLOAD, ARCH)
        dense_eval = evaluate(result.mapping)
        sparse_eval = evaluate(result.mapping, sparsity=spec)
        assert sparse_eval.valid == dense_eval.valid
        assert sparse_eval.violations == dense_eval.violations


# ---------------------------------------------------------------------------
# Monotonicity in density
# ---------------------------------------------------------------------------

_DENSITIES = st.floats(min_value=0.001, max_value=1.0, allow_nan=False)
_TILES = st.sampled_from([1, 2, 7, 32, 256, 4096])
_FORMATS = st.sampled_from(["uncompressed", "bitmask", "rle",
                            "coordinate", "csr"])
_ACTIONS = st.sampled_from(["none", "gating", "skipping"])
_CLUSTERS = st.sampled_from([None, 2.0, 4.0, 8.0])


def _entry(p, cluster, fmt, action):
    model = Banded(p, cluster) if cluster is not None else Uniform(p)
    return TensorSparsity(model, format=fmt, action=action)


@given(p1=_DENSITIES, p2=_DENSITIES, n=_TILES, fmt=_FORMATS,
       action=_ACTIONS, cluster=_CLUSTERS)
@settings(**_SETTINGS)
def test_traffic_scale_monotone_in_density(p1, p2, n, fmt, action, cluster):
    lo, hi = sorted((p1, p2))
    scale_lo = traffic_scale(_entry(lo, cluster, fmt, action), n)
    scale_hi = traffic_scale(_entry(hi, cluster, fmt, action), n)
    assert scale_lo <= scale_hi + 1e-12
    assert 0.0 <= scale_lo <= 1.0 and scale_hi <= 1.0


@given(p1=_DENSITIES, p2=_DENSITIES, fmt=_FORMATS, action=_ACTIONS,
       cluster=_CLUSTERS)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_energy_and_latency_monotone_in_density(p1, p2, fmt, action,
                                                cluster):
    lo, hi = sorted((p1, p2))
    mapping = schedule(WORKLOAD, ARCH).mapping
    costs = [
        evaluate(mapping, sparsity=SparsitySpec.of({
            "A": _entry(p, cluster, fmt, action),
        }))
        for p in (lo, hi)
    ]
    assert costs[0].energy_pj <= costs[1].energy_pj * (1 + 1e-12)
    assert costs[0].cycles <= costs[1].cycles * (1 + 1e-12)


def test_density_one_is_the_dense_ceiling():
    mapping = schedule(WORKLOAD, ARCH).mapping
    dense = evaluate(mapping)
    spec = SparsitySpec.of({
        "A": TensorSparsity(Uniform(0.05), format="coordinate",
                            action="skipping"),
    })
    sparse = evaluate(mapping, sparsity=spec)
    assert sparse.energy_pj < dense.energy_pj
    assert sparse.cycles <= dense.cycles


# ---------------------------------------------------------------------------
# The sparse model changes which mapping wins (SDDMM acceptance)
# ---------------------------------------------------------------------------


def test_sparse_model_shifts_the_sddmm_mapping():
    """Scheduling *with* the sparse model must beat the dense-model
    choice when the modelled sparsity is real (ISSUE acceptance)."""
    workload = sddmm(I=64, J=64, K=16, name="sddmm_small")
    spec = SparsitySpec.of({
        "A": TensorSparsity(Banded(0.01, cluster=8.0), format="rle",
                            action="skipping"),
        "out": TensorSparsity(Banded(0.01, cluster=8.0), format="rle"),
    })
    dense_choice = schedule(workload, ARCH,
                            SchedulerOptions(objective="energy"))
    sparse_choice = schedule(workload, ARCH,
                             SchedulerOptions(sparsity=spec,
                                              objective="energy"))
    assert dense_choice.found and sparse_choice.found
    dense_under_sparse = evaluate(dense_choice.mapping, sparsity=spec)
    assert sparse_choice.cost.energy_pj < dense_under_sparse.energy_pj
