"""Ablations of Sunstone's design choices (DESIGN.md §4).

Quantifies what each pruning/refinement mechanism contributes, on a
ResNet-18 layer (conv2_x: large spatial extents, so sliding-window
overlap matters) mapped to the Simba-like architecture:

* alpha-beta pruning on/off — search-size effect;
* high-throughput unrolling pruning on/off (utilisation threshold);
* sliding-window partial reuse in the cost model on/off — EDP effect;
* greedy polish on/off — solution-quality effect;
* the Tiling-Principle growth restriction vs all-dims growth is covered by
  the Table I space comparison (Interstellar enumerates all dims).

Analytic branch-and-bound (``repro.mapspace.bounds``) prunes only in the
exhaustive walker.  Its gates are tier-1 tests: ``tests/test_bounds.py``
pins its winners to the test oracle's argmin and asserts that it prunes
effectively.  Run the ablations with pytest::

    PYTHONPATH=src pytest benchmarks/bench_ablation_pruning.py --benchmark-only -s
"""

import pytest

from repro.arch import simba_like
from repro.core import SchedulerOptions, schedule
from repro.workloads import RESNET18_LAYERS

LAYER = next(l for l in RESNET18_LAYERS if l.name == "conv2_x")


@pytest.fixture(scope="module")
def workload():
    # Batch 1 keeps the deliberately-unpruned ablation configurations
    # affordable; the relative effects are batch-independent.
    return LAYER.inference(batch=1)


@pytest.fixture(scope="module")
def arch():
    return simba_like()


@pytest.fixture(scope="module")
def baseline(workload, arch):
    return schedule(workload, arch)


def test_alpha_beta_reduces_space(workload, arch, baseline, paper_report):
    no_ab = schedule(workload, arch, SchedulerOptions(alpha_beta=False,
                                                      beam_width=256,
                                                      polish=False))
    with_ab = schedule(workload, arch, SchedulerOptions(alpha_beta=True,
                                                        beam_width=256,
                                                        polish=False))
    paper_report("Ablation: alpha-beta pruning", [
        f"without: {no_ab.stats.evaluations} evaluations, "
        f"EDP {no_ab.edp:.3e}",
        f"with:    {with_ab.stats.evaluations} evaluations, "
        f"EDP {with_ab.edp:.3e}",
    ])
    assert with_ab.stats.evaluations <= no_ab.stats.evaluations
    assert with_ab.edp <= no_ab.edp * 1.1


def test_high_throughput_pruning(workload, arch, paper_report):
    strict = schedule(workload, arch,
                      SchedulerOptions(utilization_threshold=1.0,
                                       polish=False))
    relaxed = schedule(workload, arch,
                       SchedulerOptions(utilization_threshold=0.25,
                                        polish=False))
    paper_report("Ablation: high-throughput unrolling pruning", [
        f"strict (util=1.0):  {strict.stats.evaluations} evals, "
        f"EDP {strict.edp:.3e}",
        f"relaxed (util=.25): {relaxed.stats.evaluations} evals, "
        f"EDP {relaxed.edp:.3e}",
    ])
    # Relaxing the threshold enlarges the space without helping quality.
    assert strict.stats.evaluations <= relaxed.stats.evaluations
    assert strict.edp <= relaxed.edp * 1.1


def test_partial_reuse_model(workload, arch, paper_report):
    with_pr = schedule(workload, arch,
                       SchedulerOptions(partial_reuse=True))
    without = schedule(workload, arch,
                       SchedulerOptions(partial_reuse=False))
    paper_report("Ablation: sliding-window partial reuse", [
        f"modelled: EDP {with_pr.edp:.3e}",
        f"ignored:  EDP {without.edp:.3e} (halos refetched)",
    ])
    # Modelling window overlap can only reduce counted traffic.
    assert with_pr.edp <= without.edp * 1.001


def test_polish_contribution(workload, arch, paper_report):
    raw = schedule(workload, arch, SchedulerOptions(polish=False))
    polished = schedule(workload, arch, SchedulerOptions(polish=True))
    paper_report("Ablation: greedy polish", [
        f"sweep only: EDP {raw.edp:.3e} ({raw.stats.evaluations} evals)",
        f"polished:   EDP {polished.edp:.3e} "
        f"({polished.stats.evaluations} evals)",
    ])
    assert polished.edp <= raw.edp * 1.0001


def test_beam_width_sensitivity(workload, arch, paper_report):
    lines = []
    edps = {}
    for beam in (8, 48, 128):
        result = schedule(workload, arch,
                          SchedulerOptions(beam_width=beam, polish=False))
        edps[beam] = result.edp
        lines.append(f"beam {beam:>4}: {result.stats.evaluations:>7} evals, "
                     f"EDP {result.edp:.3e}")
    paper_report("Ablation: beam width", lines)
    # Wider beams never hurt solution quality.
    assert edps[128] <= edps[8] * 1.05
