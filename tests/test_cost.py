"""Tests for energy/latency/EDP evaluation."""

import math

import pytest

from repro.arch import UNIFIED, Architecture, MemoryLevel, tiny
from repro.mapping import build_mapping
from repro.model import INVALID_COST, edp, evaluate
from repro.workloads import conv1d


@pytest.fixture
def setup():
    wl = conv1d(K=4, C=4, P=14, R=3)
    arch = tiny(l1_words=64, l2_words=2048, pes=4)
    mapping = build_mapping(
        wl, arch,
        temporal=[{"P": 7, "K": 2, "C": 2, "R": 3}, {"P": 2, "K": 2, "C": 2}, {}],
        orders=[["P", "K", "C", "R"], ["P", "K", "C"], []],
    )
    return wl, arch, mapping


class TestEnergyComposition:
    def test_total_is_sum_of_parts(self, setup):
        _, arch, mapping = setup
        res = evaluate(mapping)
        parts = sum(res.level_energy.values()) + res.compute_energy \
            + res.noc_energy
        assert res.energy_pj == pytest.approx(parts)

    def test_compute_energy(self, setup):
        wl, arch, mapping = setup
        res = evaluate(mapping)
        assert res.compute_energy == pytest.approx(
            wl.total_operations * arch.mac_energy)

    def test_level_energy_reflects_access_counts(self, setup):
        _, arch, mapping = setup
        res = evaluate(mapping, keep_accesses=True)
        acc = res.accesses.levels[1]
        expected = (acc.reads * arch.levels[1].read_energy
                    + acc.writes * arch.levels[1].write_energy)
        assert res.level_energy["L2"] == pytest.approx(expected)

    def test_accesses_not_kept_by_default(self, setup):
        _, _, mapping = setup
        assert evaluate(mapping).accesses is None


class TestLatency:
    def test_compute_bound(self, setup):
        wl, _, mapping = setup
        res = evaluate(mapping)
        # No spatial factors: latency at least one cycle per MAC.
        assert res.cycles >= wl.total_operations

    def test_spatial_speedup(self):
        wl = conv1d(K=4, C=4, P=14, R=3)
        arch = tiny(l1_words=64, l2_words=2048, pes=4)
        serial = build_mapping(wl, arch, temporal=[{"P": 7, "R": 3}, {}, {}])
        parallel = build_mapping(
            wl, arch, temporal=[{"P": 7, "R": 3}, {}, {}],
            spatial=[{"K": 4}, {}, {}],
        )
        assert evaluate(parallel).cycles < evaluate(serial).cycles

    def test_bandwidth_bound(self):
        wl = conv1d(K=4, C=4, P=14, R=3)
        arch = tiny(l1_words=64, l2_words=2048, pes=4)
        slow_dram = arch.with_level("DRAM", read_bandwidth=0.001,
                                    write_bandwidth=0.001)
        m_fast = build_mapping(wl, arch, temporal=[{"P": 7, "R": 3}, {}, {}])
        m_slow = build_mapping(wl, slow_dram,
                               temporal=[{"P": 7, "R": 3}, {}, {}])
        assert evaluate(m_slow).cycles > evaluate(m_fast).cycles


class TestValidity:
    def test_invalid_flagged_but_costed(self):
        wl = conv1d(K=4, C=4, P=14, R=3)
        arch = tiny(l1_words=8, l2_words=2048, pes=4)
        m = build_mapping(wl, arch,
                          temporal=[{"P": 14, "K": 4, "C": 4, "R": 3}, {}, {}])
        res = evaluate(m)
        assert not res.valid
        assert res.violations
        assert math.isfinite(res.energy_pj)

    def test_edp_helper_returns_inf_for_invalid(self):
        wl = conv1d(K=4, C=4, P=14, R=3)
        arch = tiny(l1_words=8, l2_words=2048, pes=4)
        m = build_mapping(wl, arch,
                          temporal=[{"P": 14, "K": 4, "C": 4, "R": 3}, {}, {}])
        assert edp(m) == INVALID_COST

    def test_edp_matches_product(self, setup):
        _, _, mapping = setup
        res = evaluate(mapping)
        assert res.edp == pytest.approx(res.energy_pj * res.cycles)

    def test_summary_mentions_validity(self, setup):
        _, _, mapping = setup
        assert "valid" in evaluate(mapping).summary()

