"""Tests for network-level scheduling."""

import pytest

from repro.arch import conventional, tiny
from repro.core import SchedulerOptions
from repro.core.network import NetworkSchedule, schedule_network
from repro.workloads import RESNET18_LAYERS, conv1d, conv2d


class TestScheduleNetwork:
    def test_all_layers_scheduled(self):
        layers = [
            conv2d(N=1, K=16, C=16, P=14, Q=14, R=3, S=3, name="a"),
            conv2d(N=1, K=32, C=16, P=7, Q=7, R=3, S=3, name="b"),
        ]
        net = schedule_network(layers, conventional())
        assert net.all_found
        assert len(net.layers) == 2
        assert net.total_energy_pj > 0
        assert net.total_cycles > 0

    def test_shape_deduplication(self):
        base = conv2d(N=1, K=16, C=16, P=14, Q=14, R=3, S=3, name="x")
        twin = conv2d(N=1, K=16, C=16, P=14, Q=14, R=3, S=3, name="y")
        other = conv2d(N=1, K=32, C=16, P=14, Q=14, R=3, S=3, name="z")
        net = schedule_network([base, twin, other], conventional())
        assert net.unique_searches == 2
        assert net.layers[1].shared_with == "x"
        assert net.layers[2].shared_with is None
        # Shared layers reuse the exact same result object.
        assert net.layers[1].result is net.layers[0].result

    def test_totals_are_sums(self):
        layers = [conv1d(K=4, C=4, P=14, R=3),
                  conv1d(K=8, C=4, P=14, R=3, )]
        layers[1] = conv1d(K=8, C=4, P=14, R=3)
        arch = tiny(l1_words=64, l2_words=512, pes=4)
        net = schedule_network(layers, arch)
        assert net.total_energy_pj == pytest.approx(
            sum(e.result.cost.energy_pj for e in net.layers))
        assert net.total_edp == pytest.approx(
            net.total_energy_pj * net.total_cycles)

    def test_summary_mentions_sharing(self):
        base = conv2d(N=1, K=16, C=16, P=7, Q=7, R=3, S=3, name="first")
        twin = conv2d(N=1, K=16, C=16, P=7, Q=7, R=3, S=3, name="second")
        net = schedule_network([base, twin], conventional())
        text = net.summary()
        assert "shared with first" in text
        assert "total:" in text

    def test_options_forwarded(self):
        layers = [conv1d(K=4, C=4, P=14, R=3)]
        arch = tiny(l1_words=64, l2_words=512, pes=4)
        net = schedule_network(layers, arch,
                               options=SchedulerOptions(objective="energy"))
        assert net.all_found

    def test_parallel_processes_match_serial(self):
        layers = [
            conv2d(N=1, K=16, C=16, P=14, Q=14, R=3, S=3, name="a"),
            conv2d(N=1, K=32, C=16, P=7, Q=7, R=3, S=3, name="b"),
            conv2d(N=1, K=16, C=16, P=14, Q=14, R=3, S=3, name="a2"),
        ]
        arch = conventional()
        serial = schedule_network(layers, arch)
        parallel = schedule_network(layers, arch, processes=2)
        assert parallel.all_found
        assert parallel.unique_searches == serial.unique_searches == 2
        assert parallel.total_energy_pj == pytest.approx(
            serial.total_energy_pj)
        assert parallel.layers[2].shared_with == "a"

    def test_resnet18_has_shared_shapes(self):
        # The full ResNet-18 layer list (with repeats) would dedupe; the
        # distinct-shape list should not.
        layers = [l.inference(batch=1) for l in RESNET18_LAYERS[:4]]
        layers.append(RESNET18_LAYERS[1].inference(batch=1))  # repeat
        net = schedule_network(layers, conventional())
        assert net.unique_searches == 4
