"""Tests for the Sunstone scheduler (§III-C, §V-C)."""

import pytest

from repro.arch import UNIFIED, Architecture, MemoryLevel, conventional, simba_like, tiny
from repro.baselines import exhaustive_search
from repro.core import (
    INTRA_LEVEL_ORDERS,
    SchedulerOptions,
    SunstoneScheduler,
    schedule,
)
from repro.workloads import RESNET18_LAYERS, conv1d, conv2d, mttkrp

# ``small_conv`` / ``small_arch`` fixtures come from tests/conftest.py
# (built by tests/harness.py, shared with the batch-generation suite).


class TestBasics:
    def test_finds_valid_mapping(self, small_conv, small_arch):
        result = schedule(small_conv, small_arch)
        assert result.found
        assert result.cost.valid
        assert result.mapping.is_valid

    def test_factor_products_hold(self, small_conv, small_arch):
        result = schedule(small_conv, small_arch)
        for dim, size in small_conv.dims.items():
            product = 1
            for lvl in result.mapping.levels:
                product *= lvl.temporal_factor(dim) * lvl.spatial_factor(dim)
            assert product == size

    def test_stats_recorded(self, small_conv, small_arch):
        result = schedule(small_conv, small_arch)
        assert result.stats.evaluations > 0
        assert result.stats.wall_time_s > 0
        assert result.stats.trie.candidates > 0

    def test_uses_parallelism(self, small_conv, small_arch):
        result = schedule(small_conv, small_arch)
        assert result.mapping.used_lanes() > 1

    def test_energy_objective(self, small_conv, small_arch):
        edp_result = schedule(small_conv, small_arch)
        energy_result = schedule(
            small_conv, small_arch, SchedulerOptions(objective="energy"))
        assert energy_result.energy_pj <= edp_result.energy_pj * 1.001

    def test_not_found_when_impossible(self, small_conv):
        impossible = tiny(l1_words=2, l2_words=3, pes=4)
        result = schedule(small_conv, impossible)
        assert not result.found


class TestPolish:
    def test_polish_skips_only_rejected_mappings(self, monkeypatch,
                                                 small_conv, small_arch):
        """The polish drops a trial only when ``build_mapping`` rejects it
        (a ``MappingError``); any other exception is a bug and must
        surface instead of silently shrinking the neighbourhood."""
        import repro.core.scheduler as scheduler_module

        def broken(*args, **kwargs):
            raise KeyError("trial")

        monkeypatch.setattr(scheduler_module, "build_mapping", broken)
        with pytest.raises(KeyError, match="trial"):
            schedule(small_conv, small_arch)


class TestOptionsValidation:
    def test_bad_objective(self):
        with pytest.raises(ValueError):
            SchedulerOptions(objective="speed")

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            SchedulerOptions(direction="sideways")

    def test_bad_intra_order(self):
        with pytest.raises(ValueError):
            SchedulerOptions(intra_level_order="upside-down")

    def test_bad_slack(self):
        with pytest.raises(ValueError):
            SchedulerOptions(alpha_slack=0.5)


class TestVsExhaustiveOracle:
    """Sunstone's pruning must not reject all optimal mappings."""

    def test_matches_oracle_on_tiny_problem(self):
        wl = conv1d(K=2, C=2, P=4, R=2)
        arch = Architecture("oracle-arch", [
            MemoryLevel("L1", {UNIFIED: 16}, fanout=2, read_energy=1.0,
                        write_energy=1.0),
            MemoryLevel("DRAM", None, read_energy=50.0, write_energy=50.0),
        ], mac_energy=0.5)
        oracle = exhaustive_search(wl, arch, max_evaluations=2_000_000,
                                   orders_per_level=24)
        sunstone = schedule(wl, arch, SchedulerOptions(
            alpha_slack=3.0, beam_width=256))
        assert oracle.found and sunstone.found
        # Sunstone's pruned search finds a mapping of equal quality.
        assert sunstone.edp <= oracle.edp * 1.0001

    def test_matches_oracle_matmul(self):
        from repro.workloads import make_workload
        wl = make_workload(
            "mm", {"I": 4, "J": 4, "K": 4},
            {"A": ["I", "K"], "B": ["K", "J"], "out": ["I", "J"]},
            outputs=["out"],
        )
        arch = Architecture("oracle-arch", [
            MemoryLevel("L1", {UNIFIED: 12}, fanout=2, read_energy=1.0,
                        write_energy=1.0),
            MemoryLevel("DRAM", None, read_energy=50.0, write_energy=50.0),
        ], mac_energy=0.5)
        oracle = exhaustive_search(wl, arch, max_evaluations=4_000_000)
        sunstone = schedule(wl, arch, SchedulerOptions(
            alpha_slack=3.0, beam_width=256))
        assert sunstone.edp <= oracle.edp * 1.0001
        # And does so with far fewer evaluations.
        assert sunstone.stats.evaluations < oracle.evaluations / 10


class TestDirections:
    def test_top_down_finds_valid_mapping(self, small_conv, small_arch):
        result = schedule(small_conv, small_arch,
                          SchedulerOptions(direction="top-down"))
        assert result.found
        assert result.cost.valid

    def test_bottom_up_examines_fewer_candidates(self):
        """Table VI: bottom-up explores an order of magnitude less."""
        wl = conv2d(N=1, K=16, C=16, P=14, Q=14, R=3, S=3)
        arch = conventional()
        bu = schedule(wl, arch, SchedulerOptions(direction="bottom-up",
                                                 polish=False))
        td = schedule(wl, arch, SchedulerOptions(direction="top-down",
                                                 polish=False))
        assert bu.found and td.found
        assert bu.stats.evaluations < td.stats.evaluations


class TestIntraLevelOrders:
    @pytest.mark.parametrize("mode", INTRA_LEVEL_ORDERS)
    def test_all_modes_find_valid_mappings(self, small_conv, small_arch, mode):
        result = schedule(small_conv, small_arch,
                          SchedulerOptions(intra_level_order=mode))
        assert result.found
        assert result.cost.valid

    def test_modes_agree_on_quality(self, small_conv, small_arch):
        """Table VI: intra-level order doesn't significantly change EDP."""
        edps = [
            schedule(small_conv, small_arch,
                     SchedulerOptions(intra_level_order=mode)).edp
            for mode in INTRA_LEVEL_ORDERS
        ]
        assert max(edps) <= min(edps) * 1.25


class TestPruningKnobs:
    def test_alpha_beta_reduces_space(self, small_conv, small_arch):
        with_ab = schedule(small_conv, small_arch, SchedulerOptions(
            alpha_beta=True, alpha_slack=1.1, beam_width=None))
        without = schedule(small_conv, small_arch, SchedulerOptions(
            alpha_beta=False, beam_width=None))
        assert with_ab.stats.evaluations <= without.stats.evaluations
        assert with_ab.found

    def test_beam_bounds_frontier(self, small_conv, small_arch):
        narrow = schedule(small_conv, small_arch,
                          SchedulerOptions(beam_width=2))
        assert narrow.found

    def test_relaxed_utilization(self, small_conv, small_arch):
        relaxed = schedule(small_conv, small_arch, SchedulerOptions(
            utilization_threshold=0.5))
        assert relaxed.found


class TestArchitectures:
    def test_conventional_full_layer(self):
        wl = RESNET18_LAYERS[5].inference(batch=1)
        result = schedule(wl, conventional())
        assert result.found
        assert result.cost.valid
        assert result.cost.utilization > 0.5

    def test_simba_deep_hierarchy(self):
        wl = RESNET18_LAYERS[5].inference(batch=16)
        result = schedule(wl, simba_like())
        assert result.found
        assert result.cost.valid
        # The deep hierarchy must actually be used: PE buffers hold tiles.
        pebuf = result.mapping.occupancy(1)
        assert sum(pebuf.values()) > 3

    def test_weights_respect_register_capacity(self):
        wl = RESNET18_LAYERS[5].inference(batch=16)
        result = schedule(wl, simba_like())
        regs = result.mapping.occupancy(0)
        assert regs.get("weight", 0) <= 8

    def test_mttkrp_versatility(self):
        wl = mttkrp(I=64, K=64, L=64, J=32)
        result = schedule(wl, conventional())
        assert result.found
        assert result.cost.valid
