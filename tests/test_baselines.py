"""Tests for the baseline mapper reimplementations (§V-B)."""

import pytest

from repro.arch import UNIFIED, Architecture, MemoryLevel, conventional, simba_like, tiny
from repro.baselines import (
    DMAZE_FAST,
    DMAZE_SLOW,
    TIMELOOP_FAST,
    CosaConfig,
    DMazeConfig,
    MappingConstraints,
    SearchBudgetExceeded,
    TimeloopConfig,
    cosa_search,
    dmazerunner_search,
    exhaustive_search,
    interstellar_search,
    prime_factors,
    sample_random_mapping,
    simba_constraints,
    timeloop_search,
)
from repro.baselines.dmazerunner import _DMazeSearch
from repro.core import SchedulerOptions, schedule
from repro.workloads import INCEPTION_V3_LAYERS, conv1d, conv2d, make_workload


@pytest.fixture
def small_conv():
    return conv1d(K=4, C=4, P=14, R=3)


@pytest.fixture
def small_arch():
    return tiny(l1_words=64, l2_words=512, pes=4)


class TestPrimeFactors:
    def test_basic(self):
        assert prime_factors(12) == [2, 2, 3]
        assert prime_factors(1) == []
        assert prime_factors(97) == [97]


class TestTimeloopLike:
    def test_finds_valid_mapping(self, small_conv, small_arch):
        result = timeloop_search(
            small_conv, small_arch,
            TimeloopConfig(timeout=500, victory_condition=50),
        )
        assert result.found
        assert result.valid

    def test_deterministic_with_seed(self, small_conv, small_arch):
        config = TimeloopConfig(timeout=300, victory_condition=50, seed=7)
        a = timeloop_search(small_conv, small_arch, config)
        b = timeloop_search(small_conv, small_arch, config)
        assert a.edp == b.edp

    def test_victory_condition_terminates_early(self, small_conv, small_arch):
        eager = timeloop_search(
            small_conv, small_arch,
            TimeloopConfig(timeout=100000, victory_condition=5),
        )
        assert eager.evaluations < 100000

    def test_more_search_never_hurts(self, small_conv, small_arch):
        fast = timeloop_search(small_conv, small_arch,
                               TimeloopConfig(timeout=100,
                                              victory_condition=10, seed=3))
        slow = timeloop_search(small_conv, small_arch,
                               TimeloopConfig(timeout=5000,
                                              victory_condition=2000, seed=3))
        assert slow.edp <= fast.edp

    def test_random_mapping_has_correct_products(self, small_conv,
                                                 small_arch):
        import random
        rng = random.Random(0)
        for _ in range(20):
            mapping = sample_random_mapping(small_conv, small_arch, rng)
            for dim, size in small_conv.dims.items():
                product = 1
                for lvl in mapping.levels:
                    product *= (lvl.temporal_factor(dim)
                                * lvl.spatial_factor(dim))
                assert product == size

    def test_constraints_respected(self, small_conv, small_arch):
        import random
        constraints = MappingConstraints(
            spatial_dims={0: ("K",)},
            temporal_dims={0: ("P", "R")},
        )
        rng = random.Random(1)
        for _ in range(20):
            m = sample_random_mapping(small_conv, small_arch, rng,
                                      constraints)
            assert set(m.levels[0].spatial_factors) <= {"K"}
            nontrivial = {d for d, f in m.levels[0].temporal if f > 1}
            assert nontrivial <= {"P", "R"}

    def test_simba_constraints_helper(self):
        arch = simba_like()
        constraints = simba_constraints(arch)
        assert constraints.allows_spatial(0, "C")
        assert not constraints.allows_spatial(0, "R")

    def test_sunstone_beats_timeloop_fast(self, small_conv, small_arch):
        """Headline comparison: same or better EDP, far fewer evaluations."""
        sunstone = schedule(small_conv, small_arch)
        tl = timeloop_search(small_conv, small_arch,
                             TimeloopConfig(timeout=2000,
                                            victory_condition=25))
        assert sunstone.edp <= tl.edp * 1.0001


class TestDMazeRunner:
    def test_finds_mapping_on_heavy_conv(self):
        # The utilisation thresholds need a layer heavy enough to fill
        # half of the 3.1 MB L2 (light layers legitimately fail: Fig. 7).
        wl = conv2d(N=16, K=64, C=64, P=56, Q=56, R=3, S=3)
        result = dmazerunner_search(wl, conventional(), DMAZE_FAST)
        assert result.found
        assert result.valid

    def test_light_layer_fails_thresholds(self):
        wl = conv2d(N=1, K=16, C=16, P=14, Q=14, R=3, S=3)
        result = dmazerunner_search(wl, conventional(), DMAZE_FAST)
        assert not result.found
        assert "utilization" in result.invalid_reason

    def test_rejects_asymmetric_convolution(self):
        asym = next(l for l in INCEPTION_V3_LAYERS if l.R != l.S)
        result = dmazerunner_search(asym.inference(batch=1), conventional())
        assert not result.found
        assert "asymmetric" in result.invalid_reason

    def test_utilization_thresholds_can_fail(self, small_conv):
        # A tiny workload cannot fill 99.9% of a huge L2.
        arch = tiny(l1_words=64, l2_words=10**6, pes=4)
        config = DMazeConfig(l1_utilization=0.999, l2_utilization=0.999)
        result = dmazerunner_search(small_conv, arch, config)
        assert not result.found
        assert "utilization" in result.invalid_reason

    def test_slow_config_relaxes(self, small_conv, small_arch):
        fast = dmazerunner_search(small_conv, small_arch, DMAZE_FAST)
        slow = dmazerunner_search(small_conv, small_arch, DMAZE_SLOW)
        assert slow.found  # the conservative config generalises better
        if fast.found:
            assert fast.evaluations > 0

    def test_never_worse_than_sunstone_claim(self, small_conv, small_arch):
        """Paper Table I: Sunstone never returns worse mappings."""
        sunstone = schedule(small_conv, small_arch)
        dmaze = dmazerunner_search(small_conv, small_arch, DMAZE_SLOW)
        if dmaze.found:
            assert sunstone.edp <= dmaze.edp * 1.0001

    def test_shared_role_capacity_counted_once(self):
        """Two tensors in one role partition count that partition's
        capacity once: at Simba's PEBuf, A and B share the 8,192-word
        ifmap partition and out uses the 1,024-word ofmap one."""
        wl = make_workload(
            "mm", {"I": 8, "J": 8, "K": 8},
            {"A": ["I", "K"], "B": ["K", "J"], "out": ["I", "J"]},
            outputs=["out"],
            roles={"A": "ifmap", "B": "ifmap", "out": "ofmap"},
        )
        arch = simba_like()
        search = _DMazeSearch(wl, arch, DMAZE_FAST, SchedulerOptions())
        pebuf = arch.level_index("PEBuf")
        assert search._utilization(pebuf, dict(wl.dims)) == 192 / 9216


class TestInterstellar:
    def test_finds_mapping(self):
        wl = conv2d(N=1, K=16, C=16, P=14, Q=14, R=3, S=3)
        result = interstellar_search(wl, conventional())
        assert result.found
        assert result.valid

    def test_prefers_ck_unrolling(self):
        wl = conv2d(N=1, K=64, C=64, P=14, Q=14, R=3, S=3)
        result = interstellar_search(wl, conventional())
        unrolled = set()
        for lvl in result.mapping.levels:
            unrolled |= {d for d, f in lvl.spatial if f > 1}
        assert unrolled <= {"C", "K"}

    def test_falls_back_when_ck_insufficient(self):
        # K*C = 8 < 16 PEs: must use other dims to fill the grid.
        wl = conv2d(N=1, K=4, C=2, P=16, Q=16, R=3, S=3)
        arch = tiny(l1_words=512, l2_words=65536, pes=16)
        result = interstellar_search(wl, arch)
        assert result.found
        unrolled = set()
        for lvl in result.mapping.levels:
            unrolled |= {d for d, f in lvl.spatial if f > 1}
        assert unrolled - {"C", "K"}


class TestCosa:
    def test_one_shot(self, small_conv, small_arch):
        result = cosa_search(small_conv, small_arch)
        assert result.found
        assert result.evaluations == 1

    def test_fast(self, small_conv, small_arch):
        result = cosa_search(small_conv, small_arch)
        assert result.wall_time_s < 1.0

    def test_invalid_mappings_on_simba(self):
        """The linear relaxation overflows real buffers (paper: ~60%)."""
        arch = simba_like()
        invalid = 0
        layers = [
            conv2d(N=16, K=k, C=c, P=p, Q=p, R=3, S=3)
            for k, c, p in [(64, 64, 56), (128, 128, 28), (256, 256, 14),
                            (512, 512, 7), (64, 3, 112)]
        ]
        for wl in layers:
            result = cosa_search(wl, arch)
            assert result.found  # always returns something
            if not result.valid:
                invalid += 1
                assert result.invalid_reason
        assert invalid >= 2  # a large fraction is invalid

    def test_factor_products_always_hold(self, small_conv, small_arch):
        result = cosa_search(small_conv, small_arch)
        for dim, size in small_conv.dims.items():
            product = 1
            for lvl in result.mapping.levels:
                product *= lvl.temporal_factor(dim) * lvl.spatial_factor(dim)
            assert product == size


class TestExhaustive:
    def test_budget_guard(self):
        wl = conv2d(N=4, K=16, C=16, P=14, Q=14, R=3, S=3)
        with pytest.raises(SearchBudgetExceeded):
            exhaustive_search(wl, conventional(), max_evaluations=1000)

    def test_small_problem(self):
        wl = conv1d(K=2, C=2, P=2, R=1)
        arch = Architecture("t", [
            MemoryLevel("L1", {UNIFIED: 8}, read_energy=1.0, write_energy=1.0),
            MemoryLevel("DRAM", None, read_energy=10.0, write_energy=10.0),
        ])
        result = exhaustive_search(wl, arch, max_evaluations=500_000)
        assert result.found
        assert result.valid
        assert result.evaluations > 10
