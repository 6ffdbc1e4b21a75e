"""Ablations of Sunstone's design choices (DESIGN.md §4).

Quantifies what each pruning/refinement mechanism contributes, on a
ResNet-18 layer (conv2_x: large spatial extents, so sliding-window
overlap matters) mapped to the Simba-like architecture:

* alpha-beta pruning on/off — search-size effect;
* high-throughput unrolling pruning on/off (utilisation threshold);
* sliding-window partial reuse in the cost model on/off — EDP effect;
* greedy polish on/off — solution-quality effect;
* the Tiling-Principle growth restriction vs all-dims growth is covered by
  the Table I space comparison (Interstellar enumerates all dims);
* analytic branch-and-bound pruning on/off (``repro.mapspace.bounds``) in
  the exhaustive walker, the one searcher that tests bounds — candidates
  skipped and end-to-end wall-clock, winner bit-identical.  Sunstone's
  beam sweeps evaluate every candidate exactly and only report the
  whole-space certificate, so they have no bound toggle to ablate.

The bound ablation also runs standalone (the other rows are pytest-only)::

    PYTHONPATH=src python benchmarks/bench_ablation_pruning.py

which writes ``BENCH_bound.json`` next to this repo's README.  CI runs
``--quick --check``: a small sweep, plus bit-identity assertions between
the bound-on and bound-off searches.  The committed ``BENCH_bound.json``
is the historical record of the last full run, which still carried two
Sunstone rows.
"""

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if not any((Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(REPO_ROOT / "src"))

import pytest

from repro.arch import simba_like, tiny
from repro.baselines.exhaustive import exhaustive_search
from repro.core import SchedulerOptions, schedule
from repro.model import HAVE_NUMPY
from repro.search import atomic_write_json, mapping_fingerprint
from repro.workloads import RESNET18_LAYERS, conv1d, mttkrp

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


# ---------------------------------------------------------------------------
# Branch-and-bound ablation (standalone script -> BENCH_bound.json)
# ---------------------------------------------------------------------------

def _small_arch():
    """Two-level machine small enough for exhaustive bound sweeps."""
    return tiny(l1_words=64, l2_words=512, pes=4)


def _bound_row(label, run):
    """Run one search bound-off then bound-on and compare the outcomes.

    ``run(bound)`` returns ``(found, fingerprint, edp, energy,
    evaluations, skipped, certificate, wall_s)``.
    """
    off = run(False)
    on = run(True)
    identical = off[:4] == on[:4]
    evals_on, skipped = on[4], on[5]
    considered = evals_on + skipped
    row = {
        "label": label,
        "identical": identical,
        "evaluations_off": off[4],
        "evaluations_on": evals_on,
        "candidates_skipped": skipped,
        "pruned_pct": (100.0 * skipped / considered) if considered else 0.0,
        "wall_off_s": off[7],
        "wall_on_s": on[7],
        "speedup": (off[7] / on[7]) if on[7] else 0.0,
        "certificate": on[6],
    }
    gap = (on[6] or {}).get("gap_pct")
    print(f"{label}: off {off[4]} evals {off[7]:.2f}s | "
          f"on {evals_on} evals {on[7]:.2f}s | "
          f"pruned {row['pruned_pct']:.1f}% | "
          f"speedup {row['speedup']:.2f}x | identical {identical}"
          + (f" | gap {gap:.2f}%" if gap is not None else ""))
    return row


def _exhaustive_runner(workload, arch, orders_per_level):
    def run(bound):
        start = time.perf_counter()
        result = exhaustive_search(workload, arch,
                                   orders_per_level=orders_per_level,
                                   max_evaluations=5_000_000,
                                   bound=bound)
        wall = time.perf_counter() - start
        stats = result.search_stats
        return (result.found,
                mapping_fingerprint(result.mapping) if result.found
                else None,
                result.cost.edp if result.found else None,
                result.cost.energy_pj if result.found else None,
                result.evaluations,
                stats.bound_candidates_skipped if stats else 0,
                result.certificate,
                wall)
    return run


def bound_ablation(quick):
    """All bound on/off ablation rows for the requested size."""
    if quick:
        cases = [
            ("exhaustive/mttkrp-4x4x2x4",
             _exhaustive_runner(mttkrp(4, 4, 2, 4), tiny(), 2)),
        ]
    else:
        small = _small_arch()
        cases = [
            # The headline Table I-style sweep: a full enumeration of the
            # MTTKRP mapspace on the two-level machine.
            ("exhaustive/mttkrp-8x8x4x8",
             _exhaustive_runner(mttkrp(8, 8, 4, 8), small, 2)),
            ("exhaustive/conv1d-8x8x16x3",
             _exhaustive_runner(conv1d(8, 8, 16, 3), small, 2)),
        ]
    return [_bound_row(label, run) for label, run in cases]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Branch-and-bound pruning ablation.")
    parser.add_argument("--quick", action="store_true",
                        help="small sweeps (CI smoke, no JSON by default)")
    parser.add_argument("--check", action="store_true",
                        help="assert bound-on/off winners are "
                             "bit-identical and pruning is effective")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write results to PATH (default: "
                             "BENCH_bound.json at the repo root unless "
                             "--quick)")
    args = parser.parse_args(argv)

    rows = bound_ablation(args.quick)
    headline = rows[0]
    report = {
        "numpy": HAVE_NUMPY,
        "quick": bool(args.quick),
        "rows": rows,
        "headline_pruned_pct": headline["pruned_pct"],
        "headline_speedup": headline["speedup"],
    }
    print(f"headline ({headline['label']}): "
          f"{headline['pruned_pct']:.1f}% of candidates pruned, "
          f"{headline['speedup']:.2f}x end-to-end")

    path = args.json
    if path is None and not args.quick:
        path = str(REPO_ROOT / "BENCH_bound.json")
    if path:
        # Atomic write: an interrupted run must never leave a truncated
        # BENCH_bound.json for downstream tooling to choke on.
        atomic_write_json(path, report)
        print(f"wrote {path}")

    if args.check:
        bad = [r["label"] for r in rows if not r["identical"]]
        assert not bad, f"bound-on winner diverges from bound-off: {bad}"
        # The exhaustive sweep must prune a substantial share of its
        # space (the quick sweep included); wall-clock is asserted only
        # on the full-size run, where timing is meaningful.
        assert headline["pruned_pct"] >= 30.0, (
            f"headline pruned {headline['pruned_pct']:.1f}% < 30%")
        if not args.quick:
            assert headline["speedup"] >= 1.5, (
                f"headline speedup {headline['speedup']:.2f}x < 1.5x")
        print("check: winners bit-identical with bounds on/off; "
              "pruning effective")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
