"""Fig. 6: non-DNN tensor workloads on the conventional accelerator.

MTTKRP (rank 32), TTMc (rank 8) and SDDMM (rank 512) over the published
FROSTT / SuiteSparse mode sizes, comparing Sunstone against the
Timeloop-like random search on both solution EDP (Fig. 6a) and
time-to-solution (Fig. 6b).

Paper shape: Sunstone's EDP is equal or better on every workload, and its
time-to-solution is orders of magnitude shorter (up to ~800x).
"""

import pytest

from repro.arch import conventional
from repro.baselines import TimeloopConfig, timeloop_search
from repro.core import SchedulerOptions, schedule
from repro.model import evaluate
from repro.sparse import workload_sparsity
from repro.workloads import (
    mttkrp_from_frostt,
    sddmm_from_suitesparse,
    ttmc_from_frostt,
)

WORKLOADS = [
    mttkrp_from_frostt("nell2", rank=32),
    mttkrp_from_frostt("netflix", rank=32),
    mttkrp_from_frostt("poisson1", rank=32),
    ttmc_from_frostt("nell2", rank=8),
    ttmc_from_frostt("netflix", rank=8),
    ttmc_from_frostt("poisson1", rank=8),
    sddmm_from_suitesparse("bcsstk17", rank=512),
    sddmm_from_suitesparse("cant", rank=512),
]

# The paper's TL-fast budget (Table V): 20000 sampled candidates, victory
# condition 25 consecutive non-improving valid mappings.
TL_CONFIG = TimeloopConfig(timeout=20000, victory_condition=25)


@pytest.fixture(scope="module")
def results():
    arch = conventional()
    rows = {}
    for wl in WORKLOADS:
        sun = schedule(wl, arch)
        tl = timeloop_search(wl, arch, TL_CONFIG)
        rows[wl.name] = (sun, tl)
    return rows


def test_fig6a_edp(results, paper_report):
    lines = [f"{'workload':<18} {'Sunstone EDP':>13} {'TL EDP':>13} "
             f"{'TL/Sun':>7}"]
    for name, (sun, tl) in results.items():
        ratio = tl.edp / sun.edp if sun.found and tl.found else float("nan")
        lines.append(f"{name:<18} {sun.edp:>13.3e} {tl.edp:>13.3e} "
                     f"{ratio:>7.2f}")
    paper_report("Fig. 6a: non-DNN workload EDP (conventional accelerator)",
                 lines)
    for name, (sun, tl) in results.items():
        assert sun.found and sun.cost.valid, name
        if tl.found:
            # Sunstone never loses on EDP (Fig. 6a).
            assert sun.edp <= tl.edp * 1.0001, name


def test_fig6b_time_to_solution(results, paper_report):
    """Fig. 6b compares against Timeloop run to convergence; TL-fast's
    early victory condition makes it quick but inaccurate (Fig. 6a), so
    the speedup claim is measured against the TL-slow configuration on a
    subset."""
    lines = [f"{'workload':<18} {'Sunstone (s)':>12} {'TL-fast (s)':>11}"]
    for name, (sun, tl) in results.items():
        lines.append(
            f"{name:<18} {sun.stats.wall_time_s:>12.2f} "
            f"{tl.wall_time_s:>11.2f}"
        )
    slow_config = TimeloopConfig(timeout=40000, victory_condition=1500)
    arch = conventional()
    lines.append("-" * 44)
    speedups = []
    for wl in WORKLOADS[:3]:
        sun, _ = results[wl.name]
        tl_slow = timeloop_search(wl, arch, slow_config)
        speedup = tl_slow.wall_time_s / max(sun.stats.wall_time_s, 1e-9)
        speedups.append(speedup)
        lines.append(f"{wl.name:<18} vs TL-slow: {tl_slow.wall_time_s:>7.1f}s"
                     f"  speedup {speedup:>6.1f}x"
                     f"  (EDP ratio {tl_slow.edp / sun.edp:.2f})")
    paper_report("Fig. 6b: time-to-solution (conventional accelerator)",
                 lines)
    # Run-to-convergence Timeloop is consistently slower.
    assert all(s > 2.0 for s in speedups)


@pytest.mark.parametrize("wl", WORKLOADS[:3], ids=lambda w: w.name)
def test_sunstone_mttkrp_benchmark(benchmark, wl):
    arch = conventional()
    result = benchmark.pedantic(lambda: schedule(wl, arch),
                                rounds=1, iterations=1)
    assert result.found
    benchmark.extra_info["edp"] = result.edp
    benchmark.extra_info["evaluations"] = result.stats.evaluations


# ---------------------------------------------------------------------------
# Sparse variant: the same workloads under their nnz-derived sparsity
# ---------------------------------------------------------------------------

def _sparse_rows(workloads, arch):
    """Schedule each workload dense and under its attached nnz-derived
    sparsity spec; report the sparse model's view of both mappings."""
    rows = []
    for wl in workloads:
        spec = workload_sparsity(wl)
        dense = schedule(wl, arch, SchedulerOptions(objective="energy"))
        sparse = schedule(wl, arch,
                          SchedulerOptions(objective="energy",
                                           sparsity=spec))
        dense_under_sparse = evaluate(dense.mapping, sparsity=spec)
        rows.append((wl, spec, dense, sparse, dense_under_sparse))
    return rows


def test_fig6_sparse_model(paper_report):
    """Sparseloop-style sparsity on the Fig. 6 workloads: scheduling with
    the sparse model never loses to the dense-model choice (both scored
    under the sparse model), and real sparsity cuts modelled energy."""
    arch = conventional()
    rows = _sparse_rows([WORKLOADS[0], WORKLOADS[3], WORKLOADS[6]], arch)
    lines = [f"{'workload':<18} {'dense uJ':>10} {'sparse uJ':>10} "
             f"{'save':>6}"]
    for wl, spec, dense, sparse, dus in rows:
        lines.append(f"{wl.name:<18} {dus.energy_pj / 1e6:>10.2f} "
                     f"{sparse.cost.energy_pj / 1e6:>10.2f} "
                     f"{1 - sparse.cost.energy_pj / dus.energy_pj:>6.1%}")
    paper_report("Fig. 6 (sparse): nnz-derived sparsity, sparse-aware "
                 "scheduling vs dense-model choice", lines)
    for wl, spec, dense, sparse, dus in rows:
        assert sparse.found and sparse.cost.valid, wl.name
        # The sparse-aware search never loses under the sparse model.
        assert sparse.cost.energy_pj <= dus.energy_pj * 1.0001, wl.name
        # Real (density << 1) sparsity saves energy vs the dense model.
        assert sparse.cost.energy_pj < dense.cost.energy_pj, wl.name


def main(argv=None):
    """Standalone entry: ``python benchmarks/bench_fig6_nondnn.py``.

    Schedules the Fig. 6 non-DNN workloads on the conventional
    accelerator; with ``--sparse`` each workload is also scheduled under
    its nnz-derived sparsity spec (FROSTT / SuiteSparse densities) and the
    dense-model mapping is re-scored by the sparse model for comparison.
    """
    import argparse
    import time

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small ranks and a 3-workload subset")
    parser.add_argument("--sparse", action="store_true",
                        help="schedule under the nnz-derived sparsity "
                             "specs as well")
    args = parser.parse_args(argv)

    arch = conventional()
    if args.quick:
        workloads = [
            mttkrp_from_frostt("nell2", rank=8),
            ttmc_from_frostt("nell2", rank=4),
            sddmm_from_suitesparse("bcsstk17", rank=32),
        ]
    else:
        workloads = WORKLOADS

    start = time.perf_counter()
    if args.sparse:
        rows = _sparse_rows(workloads, arch)
        print(f"{'workload':<18} {'density':>9} {'dense uJ':>10} "
              f"{'sparse uJ':>10} {'save':>6}")
        for wl, spec, dense, sparse, dus in rows:
            density = spec.get("A").density.expected_density()
            print(f"{wl.name:<18} {density:>9.2e} "
                  f"{dus.energy_pj / 1e6:>10.2f} "
                  f"{sparse.cost.energy_pj / 1e6:>10.2f} "
                  f"{1 - sparse.cost.energy_pj / dus.energy_pj:>6.1%}")
            if not sparse.found or not sparse.cost.valid:
                print(f"no valid sparse mapping for {wl.name}")
                return 1
    else:
        print(f"{'workload':<18} {'EDP':>12} {'energy(uJ)':>11}")
        for wl in workloads:
            result = schedule(wl, arch)
            if not result.found:
                print(f"no mapping found for {wl.name}")
                return 1
            print(f"{wl.name:<18} {result.edp:>12.3e} "
                  f"{result.cost.energy_pj / 1e6:>11.2f}")
    print(f"wall time: {time.perf_counter() - start:.2f}s "
          f"({len(workloads)} workloads, "
          f"sparse={'on' if args.sparse else 'off'})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
