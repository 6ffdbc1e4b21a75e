"""The one capacity rule: violation strings and the sweep's fit check.

``Mapping.validate`` and the cohort check both read the placement table
(``repro.mapping.placement``).  These tests pin its strings and their
order with hand-written literals, and check that the necessary-fit test
the bottom-up sweep applies to partial schedules never rejects the
prefix of a valid mapping.
"""

import random

import pytest

from repro.arch import (
    conventional,
    diannao_like,
    simba_like,
    tiny,
    two_chiplet,
)
from repro.baselines.common import prime_factors
from repro.core.tiling_tree import placement_fits
from repro.mapping import build_mapping
from repro.mapping.placement import placement_table
from repro.workloads import conv1d, conv2d, make_workload


def test_simba_strings_pinned():
    """Per-role slots report in first-tensor-encounter order (ifmap,
    weight, ofmap), after the level's fanout check, level by level."""
    wl = conv2d(N=32, K=64, C=64, P=14, Q=14, R=3, S=3)
    m = build_mapping(
        wl, simba_like(),
        temporal=[{"R": 3, "S": 3}, {"K": 64, "C": 64, "P": 14, "Q": 14},
                  {}, {}],
        spatial=[{}, {"N": 32}, {}, {}],
    )
    assert m.validate() == [
        "level Regs: weight tile of 9 words exceeds capacity 8",
        "level PEBuf: spatial unrolling 32 exceeds fanout 16",
        "level PEBuf: ifmap tile of 16384 words exceeds capacity 8192",
        "level PEBuf: weight tile of 36864 words exceeds capacity 32768",
        "level PEBuf: ofmap tile of 12544 words exceeds capacity 1024",
        "level GlobalBuf: ifmap tile of 524288 words exceeds capacity "
        "262144",
        "level GlobalBuf: ofmap tile of 401408 words exceeds capacity "
        "87381",
    ]


def test_tiny_unified_strings_pinned():
    wl = conv1d(K=4, C=4, P=14, R=3)
    m = build_mapping(
        wl, tiny(),
        temporal=[{"C": 2, "P": 2, "R": 3}, {}, {}],
        spatial=[{"K": 2, "C": 2, "P": 7}, {}, {}],
    )
    assert m.validate() == [
        "level L1: spatial unrolling 28 exceeds fanout 4",
        "level L1: 3 dimensions unrolled across a 2D fanout",
        "level L1: tile of 16 words exceeds unified capacity 8",
        "level L2: tile of 116 words exceeds unified capacity 64",
    ]


def test_simba_table_slots_and_homes():
    wl = conv2d(N=1, K=8, C=8, P=6, Q=6, R=3, S=3)
    table = placement_table(wl, simba_like())
    assert [[(s.role, s.capacity) for s in slots]
            for slots in table.slots] == [
        [("weight", 8)],
        [("ifmap", 8192), ("weight", 32768), ("ofmap", 1024)],
        [("ifmap", 262144), ("ofmap", 87381)],
        [("*", None)],
    ]
    ifmap, weight, ofmap = range(3)
    assert table.homes[weight] == (0, 1, 3, 3)  # bypasses GlobalBuf
    assert table.homes[ifmap] == (1, 1, 2, 3)
    assert table.homes[ofmap] == (1, 1, 2, 3)
    assert table.stored[0] == {"weight"}


def _matmul():
    return make_workload(
        "mm", {"I": 8, "J": 6, "K": 8},
        {"A": ["I", "K"], "B": ["K", "J"], "out": ["I", "J"]},
        outputs=["out"],
    )


def _random_mapping(workload, arch, rng):
    """A random prime split over the levels and fanout boundaries."""
    num = arch.num_levels
    temporal = [dict() for _ in range(num)]
    spatial = [dict() for _ in range(num)]
    for d, size in workload.dims.items():
        for p in prime_factors(size):
            lvl = rng.randrange(num)
            if rng.random() < 0.3 and arch.levels[lvl].fanout > 1:
                spatial[lvl][d] = spatial[lvl].get(d, 1) * p
            else:
                temporal[lvl][d] = temporal[lvl].get(d, 1) * p
    return build_mapping(workload, arch, temporal, spatial)


# Every preset, with workloads sized so that a fair share of the sample
# is valid and fills its buffers: simba's weights bypass the global
# buffer, two_chiplet has a chip2chip boundary.
_PAIRS = [
    (conv1d(K=4, C=4, P=14, R=3), tiny(l1_words=16, l2_words=128)),
    (conv2d(N=4, K=64, C=64, P=14, Q=14, R=3, S=3), conventional()),
    (conv2d(N=2, K=16, C=8, P=6, Q=6, R=3, S=3), simba_like()),
    (conv2d(N=8, K=64, C=64, P=14, Q=14, R=3, S=3), simba_like()),
    (conv1d(K=8, C=8, P=14, R=3), diannao_like()),
    (_matmul(), diannao_like()),
    (conv2d(N=4, K=64, C=64, P=14, Q=14, R=3, S=3), two_chiplet()),
]


@pytest.mark.parametrize("workload,arch", _PAIRS,
                         ids=[f"{w.name}-{a.name}" for w, a in _PAIRS])
def test_valid_mappings_pass_the_sweep_fit_check(workload, arch):
    """For every valid mapping and every level below the top, the
    necessary-fit check on the level's tile and spatial unrolling holds:
    the sweep's capacity filter never drops a child whose completion is
    valid."""
    rng = random.Random(17)
    valid = 0
    for _ in range(300):
        m = _random_mapping(workload, arch, rng)
        if not m.is_valid:
            continue
        valid += 1
        for level in range(arch.num_levels - 1):
            assert placement_fits(
                workload, arch, level, m.cumulative_sizes(level),
                m.levels[level].spatial_factors), (m, level)
    assert valid >= 20  # the sample must not be vacuous
