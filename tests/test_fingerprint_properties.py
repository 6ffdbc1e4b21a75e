"""Property tests for the evaluation-cache key (mapping fingerprints).

Soundness: two mappings with equal fingerprints must receive identical
cost results — the fingerprint may only abstract away details the cost
model cannot observe (unit loops, spatial listing order).  Sensitivity:
perturbing anything the model *does* observe — a tile factor, the order
of non-trivial loops, a spatial unrolling — must change the fingerprint.
Seeded (derandomized) so CI failures reproduce locally.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import UNIFIED, Architecture, MemoryLevel
from repro.mapping import build_mapping
from repro.model import evaluate
from repro.search import SearchEngine
from repro.search.fingerprint import (
    architecture_fingerprint,
    mapping_fingerprint,
    workload_fingerprint,
)
from repro.workloads import conv1d, make_workload

_SIZES = st.sampled_from([2, 4, 6, 8])
_SETTINGS = dict(max_examples=40, deadline=None, derandomize=True)


def _arch(fanout=2):
    return Architecture("fp", [
        MemoryLevel("L1", {UNIFIED: 10**9}, read_energy=1.0,
                    write_energy=1.0, fanout=fanout,
                    fanout_shape=(fanout, 1)),
        MemoryLevel("L2", {UNIFIED: 10**9}, read_energy=4.0,
                    write_energy=4.0),
        MemoryLevel("DRAM", None, read_energy=64.0, write_energy=64.0),
    ])


@st.composite
def _problems(draw):
    """A small workload plus a concrete 3-level mapping of it."""
    kind = draw(st.sampled_from(["matmul", "conv"]))
    if kind == "matmul":
        dims = {"I": draw(_SIZES), "J": draw(_SIZES), "K": draw(_SIZES)}
        wl = make_workload(
            "mm", dims,
            {"A": ["I", "K"], "B": ["K", "J"], "out": ["I", "J"]},
            outputs=["out"],
        )
    else:
        wl = conv1d(K=draw(_SIZES), C=draw(_SIZES), P=draw(_SIZES),
                    R=draw(st.sampled_from([1, 3])))

    temporal = [{}, {}, {}]
    spatial = [{}, {}, {}]
    for dim, size in wl.dims.items():
        divs = [d for d in range(1, size + 1) if size % d == 0]
        lo = draw(st.sampled_from(divs))
        temporal[0][dim] = lo
        rem = size // lo
        divs2 = [d for d in range(1, rem + 1) if rem % d == 0]
        temporal[1][dim] = draw(st.sampled_from(divs2))
    # Optionally move one dim's L1 factor to the spatial boundary.
    unrollable = [d for d in wl.dims if temporal[0][d] % 2 == 0]
    if unrollable and draw(st.booleans()):
        dim = draw(st.sampled_from(unrollable))
        temporal[0][dim] //= 2
        spatial[0][dim] = 2

    orders = [list(draw(st.permutations(list(wl.dim_names))))
              for _ in range(3)]
    return wl, temporal, spatial, orders


def _build(problem):
    wl, temporal, spatial, orders = problem
    return build_mapping(wl, _arch(), temporal=temporal, spatial=spatial,
                         orders=orders)


# ---------------------------------------------------------------------------
# Soundness: equal fingerprints => equal cost results
# ---------------------------------------------------------------------------


@given(_problems())
@settings(**_SETTINGS)
def test_equal_fingerprint_implies_equal_cost(problem):
    """Unit-loop placement varies, fingerprint and cost must not."""
    wl, temporal, spatial, orders = problem
    a = _build(problem)
    # build_mapping sends each dim's residual factor to the outermost
    # level, so read the *effective* bounds back off the built mapping.
    effective = [dict(lvl.temporal) for lvl in a.levels]
    # Same mapping with every loop order reversed: only the *relative*
    # order of non-trivial loops is observable, so restore exactly those.
    alt_orders = []
    for level, order in enumerate(orders):
        bounds = effective[level]
        nontrivial = [d for d in order if bounds.get(d, 1) > 1]
        rest = [d for d in reversed(order) if bounds.get(d, 1) <= 1]
        merged, it = [], iter(nontrivial)
        for d in order:
            merged.append(next(it) if bounds.get(d, 1) > 1
                          else rest.pop(0))
        alt_orders.append(merged)
    b = build_mapping(wl, _arch(), temporal=temporal, spatial=spatial,
                      orders=alt_orders)
    assert mapping_fingerprint(a) == mapping_fingerprint(b)
    ca, cb = evaluate(a), evaluate(b)
    assert (ca.energy_pj, ca.cycles, ca.valid) == \
        (cb.energy_pj, cb.cycles, cb.valid)


@given(_problems())
@settings(**_SETTINGS)
def test_fingerprint_is_deterministic(problem):
    a = _build(problem)
    b = _build(problem)
    assert a is not b
    assert mapping_fingerprint(a) == mapping_fingerprint(b)
    assert hash(mapping_fingerprint(a)) == hash(mapping_fingerprint(b))


@given(_problems())
@settings(**_SETTINGS)
def test_engine_fingerprint_matches_free_function(problem):
    mapping = _build(problem)
    engine = SearchEngine(cache=True, partial_reuse=True)
    assert engine.fingerprint(mapping) == \
        mapping_fingerprint(mapping, partial_reuse=True)


# ---------------------------------------------------------------------------
# Sensitivity: any observable perturbation changes the fingerprint
# ---------------------------------------------------------------------------


@given(_problems())
@settings(**_SETTINGS)
def test_moving_a_tile_factor_changes_fingerprint(problem):
    wl, temporal, spatial, orders = problem
    movable = [d for d in wl.dims if temporal[0][d] > 1]
    if not movable:
        return  # nothing tiled at L1 in this draw
    a = _build(problem)
    for dim in movable:
        t2 = [dict(t) for t in temporal]
        low = t2[0][dim]
        factor = next(p for p in (2, 3, 5, 7) if low % p == 0)
        t2[0][dim] = low // factor
        t2[1][dim] = t2[1].get(dim, 1) * factor
        b = build_mapping(wl, _arch(), temporal=t2, spatial=spatial,
                          orders=orders)
        assert mapping_fingerprint(a) != mapping_fingerprint(b), dim


@given(_problems())
@settings(**_SETTINGS)
def test_swapping_nontrivial_loops_changes_fingerprint(problem):
    wl, temporal, spatial, orders = problem
    a = _build(problem)
    for level in range(2):
        nontrivial = [d for d in orders[level]
                      if temporal[level].get(d, 1) > 1]
        if len(nontrivial) < 2:
            continue
        swapped = list(orders[level])
        i = swapped.index(nontrivial[0])
        j = swapped.index(nontrivial[1])
        swapped[i], swapped[j] = swapped[j], swapped[i]
        alt = orders[:level] + [swapped] + orders[level + 1:]
        b = build_mapping(wl, _arch(), temporal=temporal, spatial=spatial,
                          orders=alt)
        assert mapping_fingerprint(a) != mapping_fingerprint(b), level


@given(_problems())
@settings(**_SETTINGS)
def test_changing_an_unroll_changes_fingerprint(problem):
    wl, temporal, spatial, orders = problem
    a = _build(problem)
    # Turn one L1 temporal factor of 2 into a spatial unrolling (or back).
    for dim in wl.dims:
        t2 = [dict(t) for t in temporal]
        s2 = [dict(s) for s in spatial]
        if s2[0].get(dim, 1) > 1:
            t2[0][dim] = t2[0].get(dim, 1) * s2[0][dim]
            del s2[0][dim]
        elif t2[0].get(dim, 1) % 2 == 0:
            t2[0][dim] //= 2
            s2[0][dim] = 2
        else:
            continue
        b = build_mapping(wl, _arch(), temporal=t2, spatial=s2,
                          orders=orders)
        assert mapping_fingerprint(a) != mapping_fingerprint(b), dim
        return  # one perturbation per example is enough


@given(_problems())
@settings(**_SETTINGS)
def test_partial_reuse_flag_is_part_of_the_key(problem):
    mapping = _build(problem)
    assert mapping_fingerprint(mapping, partial_reuse=True) != \
        mapping_fingerprint(mapping, partial_reuse=False)


# ---------------------------------------------------------------------------
# Workload / architecture components
# ---------------------------------------------------------------------------


def test_workload_fingerprint_separates_shapes():
    assert workload_fingerprint(conv1d(K=4, C=4, P=8, R=3)) == \
        workload_fingerprint(conv1d(K=4, C=4, P=8, R=3))
    assert workload_fingerprint(conv1d(K=4, C=4, P=8, R=3)) != \
        workload_fingerprint(conv1d(K=4, C=4, P=8, R=1))


def test_architecture_fingerprint_observes_level_parameters():
    base = _arch(fanout=2)
    assert architecture_fingerprint(base) == \
        architecture_fingerprint(_arch(fanout=2))
    assert architecture_fingerprint(base) != \
        architecture_fingerprint(_arch(fanout=4))


def test_spatial_listing_order_is_canonicalised():
    """Spatial factors are order-insensitive to the cost model."""
    wl = make_workload(
        "mm", {"I": 4, "J": 4, "K": 4},
        {"A": ["I", "K"], "B": ["K", "J"], "out": ["I", "J"]},
        outputs=["out"],
    )
    arch = _arch(fanout=4)
    a = build_mapping(wl, arch, temporal=[{"K": 4}, {"I": 2, "J": 2}, {}],
                      spatial=[{"I": 2, "J": 2}, {}, {}],
                      orders=[["K"], ["I", "J"], []])
    fp = mapping_fingerprint(a)
    levels = fp[2]
    spatial_l1 = levels[0][1]
    assert spatial_l1 == tuple(sorted(spatial_l1))
    cost = evaluate(a)
    assert cost.energy_pj > 0


def test_fingerprints_are_hashable_and_cacheable():
    mapping = _build((
        conv1d(K=4, C=2, P=4, R=1),
        [{"K": 2, "C": 2}, {"K": 2, "P": 4}, {}],
        [{}, {}, {}],
        [["K", "C", "P", "R"]] * 3,
    ))
    fp = mapping_fingerprint(mapping)
    assert fp in {fp: 1}
