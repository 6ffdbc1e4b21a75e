"""Shared test fixtures and differential/golden helpers.

Centralises the small workload/architecture pairs that
``test_scheduler.py``, ``test_search_engine.py`` and the equivalence
suites all used to build inline, the outcome-equality assertions the
oracle and batch differentials share, the repeated search on one shared
engine that the equivalence suites use, the switch onto the scalar
(no-numpy) evaluation and generation paths those differentials compare
against, and the golden-fixture machinery (``tests/golden/*.json``,
refreshed with ``pytest --update-golden``).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from repro.arch import conventional, diannao_like, tiny
from repro.search import SearchEngine, mapping_fingerprint
from repro.workloads import conv1d, make_workload, mttkrp
from repro.workloads.networks import resnet18

GOLDEN_DIR = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# canonical small problems (builders; conftest.py wraps them as fixtures)
# ---------------------------------------------------------------------------

def small_conv():
    """The 1-D convolution used across the scheduler tests."""
    return conv1d(K=4, C=4, P=14, R=3)


def small_arch():
    """A two-level machine small enough for exhaustive cross-checks."""
    return tiny(l1_words=64, l2_words=512, pes=4)


def small_matmul(i=8, j=8, k=8):
    return make_workload(
        "mm", {"I": i, "J": j, "K": k},
        {"A": ["I", "K"], "B": ["K", "J"], "out": ["I", "J"]},
        outputs=["out"],
    )


def tiny_mttkrp():
    """Small enough that the full mapping space can be enumerated."""
    return mttkrp(4, 4, 2, 4)


def medium_mttkrp():
    """The paper's MTTKRP point used by the mapper differentials."""
    return mttkrp(64, 32, 32, 64)


def medium_arch():
    return conventional()


def resnet_conv_layer():
    """ResNet-18 conv3 downsample — the conv differential workload."""
    return resnet18()[4]


def resnet_conv_arch():
    return diannao_like()


# ---------------------------------------------------------------------------
# outcome equality (shared by the oracle and batch-generation suites)
# ---------------------------------------------------------------------------

def assert_same_outcome(live, oracle):
    """Same verdict, same mapping, same cost, same search effort."""
    assert live.found == oracle.found
    if live.found:
        assert (mapping_fingerprint(live.mapping)
                == mapping_fingerprint(oracle.mapping))
        assert live.cost.edp == oracle.cost.edp
        assert live.cost.energy_pj == oracle.cost.energy_pj
    assert live.stats.evaluations == oracle.stats.evaluations
    assert (live.stats.tiling.nodes_visited
            == oracle.stats.tiling.nodes_visited)
    assert (live.stats.unrolling.combinations_visited
            == oracle.stats.unrolling.combinations_visited)
    assert (live.stats.unrolling.candidates
            == oracle.stats.unrolling.candidates)


def assert_same_search_result(a, b):
    """Bit-equality for two baseline ``SearchResult`` objects."""
    assert (a.mapping is None) == (b.mapping is None)
    if a.mapping is not None:
        assert (mapping_fingerprint(a.mapping)
                == mapping_fingerprint(b.mapping))
        assert a.cost.edp == b.cost.edp
        assert a.cost.energy_pj == b.cost.energy_pj
    assert a.evaluations == b.evaluations


def nth_search(searches, run, **engine_kwargs):
    """Return the last of ``searches`` calls of ``run(engine)`` on one
    shared :class:`SearchEngine` built from ``engine_kwargs``.

    From the second call on, every evaluation the search repeats is
    served from the cache the earlier calls warmed, as when
    ``schedule_network`` shares one engine across layers; the result
    must be exactly what a fresh engine returns.
    """
    engine = SearchEngine(**engine_kwargs)
    for _ in range(searches):
        result = run(engine)
    return result


def schedule_outcome(result):
    """A JSON-able digest of a ScheduleResult for golden comparison."""
    return {
        "found": result.found,
        "fingerprint": (repr(mapping_fingerprint(result.mapping))
                        if result.found else None),
        "edp": result.cost.edp if result.found else None,
        "energy_pj": result.cost.energy_pj if result.found else None,
        "evaluations": result.stats.evaluations,
    }


def search_outcome(result):
    """A JSON-able digest of a baseline SearchResult."""
    found = result.mapping is not None
    return {
        "found": found,
        "fingerprint": (repr(mapping_fingerprint(result.mapping))
                        if found else None),
        "edp": result.cost.edp if found else None,
        "energy_pj": result.cost.energy_pj if found else None,
        "evaluations": result.evaluations,
    }


# ---------------------------------------------------------------------------
# the scalar paths
# ---------------------------------------------------------------------------

@contextmanager
def scalar_paths():
    """Run the block on the paths a numpy-less install takes.

    Clears the one numpy switch, ``repro.optional_numpy.np``, in place;
    every vectorised path reads it when called.  The search engine then
    evaluates rows with the scalar model, cohorts stage no matrices, and
    the full-space index decoder builds its rows by integer division.
    Numpy stays importable, so vectorised and scalar runs can be
    compared in one process.
    """
    import repro.optional_numpy as switch

    saved = switch.np
    switch.np = None
    try:
        yield
    finally:
        switch.np = saved


# ---------------------------------------------------------------------------
# golden fixtures
# ---------------------------------------------------------------------------

def check_golden(request, name: str, payload: dict) -> None:
    """Compare ``payload`` against ``tests/golden/<name>.json``.

    With ``pytest --update-golden`` the fixture file is rewritten
    instead and the test passes; without it a missing file is a failure
    that names the flag.
    """
    path = GOLDEN_DIR / f"{name}.json"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    if not path.exists():
        raise AssertionError(
            f"golden fixture {path} is missing; "
            f"run pytest --update-golden to create it"
        )
    expected = json.loads(path.read_text())
    assert payload == expected, (
        f"golden mismatch for {name}: got {payload!r}, "
        f"expected {expected!r} (pytest --update-golden refreshes "
        f"fixtures after an intentional change)"
    )
