"""Model-evaluation and candidate-generation throughput.

Times the cost-model pipelines from ``docs/PERF.md`` on sweep-like
cohorts (candidates sharing their inner levels, as the level sweep emits
them) and reports evaluations/second:

* ``scalar``  — one ``evaluate()`` call per mapping;
* ``batch``   — ``evaluate_batch()`` per cohort (the numpy-vectorised
  path the search engine uses).

It also times the *generation* stage on the same candidate streams
(candidates/second), and the two stages end to end:

* ``gen scalar``  — ``build_mapping()`` per candidate (one ``Mapping``
  dataclass each, the historical producer);
* ``gen batch``   — one :class:`~repro.mapspace.batch.NestCohort` per
  cohort, staged straight to int64 factor matrices;
* ``e2e scalar`` / ``e2e batch`` — generation + evaluation through the
  respective pipeline, which is what a mapper actually pays per
  candidate.

Workloads: a ResNet-18 layer on the DianNao-like machine (the paper's
Fig. 9 setting) and an MTTKRP on the conventional machine.  Run it from
the repo root::

    PYTHONPATH=src python benchmarks/bench_model_throughput.py

which writes ``BENCH_model.json`` next to this repo's README (the
committed file predates the removal of the ``partial`` mode and keeps
its ``partial_*`` keys as the historical record).  CI runs
``--quick --check`` as a smoke test: small cohorts, plus a bit-identity
assertion between the pipelines (including generation: same
fingerprints, same costs).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if not any((Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(REPO_ROOT / "src"))

import random

from repro.arch import conventional, diannao_like
from repro.baselines.common import prime_factors
from repro.mapping import build_mapping
from repro.mapspace.batch import NestCohort
from repro.model import HAVE_NUMPY, evaluate, evaluate_batch
from repro.workloads import RESNET18_LAYERS, mttkrp

_FIELDS = ("energy_pj", "cycles", "valid", "violations", "level_energy",
           "compute_energy", "noc_energy", "utilization")


def sweep_specs(workload, arch, rng, n_cohorts, cohort_size):
    """Cohorts of raw factor specs from one level sweep over the outer
    levels.

    The inner levels are decided once — exactly the state ``_sweep()``
    carries between steps — and every candidate redistributes the
    remaining prime factors over the two outermost levels.  Terms whose
    child level sits below the perturbed levels repeat across candidates,
    which the vectorised path computes once per cohort.  Each spec is
    ``(temporal_dicts, spatial_dicts, orders)`` — what the generation
    stage turns into a ``Mapping`` (scalar) or a cohort row (batch).
    """
    num = arch.num_levels
    factors = [(d, p) for d, size in workload.dims.items()
               for p in prime_factors(size)]
    rng.shuffle(factors)
    split = len(factors) // 2
    lower_t = [dict() for _ in range(num)]
    lower_s = [dict() for _ in range(num)]
    for d, p in factors[:split]:
        lvl = rng.randrange(max(1, num - 1))
        if rng.random() < 0.25 and arch.levels[lvl].fanout > 1:
            lower_s[lvl][d] = lower_s[lvl].get(d, 1) * p
        else:
            lower_t[lvl][d] = lower_t[lvl].get(d, 1) * p
    orders = [list(workload.dims) for _ in range(num)]
    cohorts = []
    for _ in range(n_cohorts):
        cohort = []
        for _ in range(cohort_size):
            temporal = [dict(t) for t in lower_t]
            spatial = [dict(s) for s in lower_s]
            for d, p in factors[split:]:
                lvl = num - 1 if rng.random() < 0.5 else num - 2
                temporal[lvl][d] = temporal[lvl].get(d, 1) * p
            cohort.append((temporal, spatial, orders))
        cohorts.append(cohort)
    return cohorts


def build_spec(workload, arch, spec):
    temporal, spatial, orders = spec
    return build_mapping(workload, arch, temporal, spatial, orders)


def spec_to_nests(spec):
    """The ``NestCohort`` candidate equivalent to ``build_spec``'s
    Mapping: full-order temporal nests (trivial factors included) and
    sorted spatial factor tuples."""
    temporal, spatial, orders = spec
    nests = tuple(
        tuple((d, temporal[lvl].get(d, 1)) for d in orders[lvl])
        for lvl in range(len(temporal))
    )
    spatials = tuple(
        tuple(sorted(spatial[lvl].items()))
        for lvl in range(len(spatial))
    )
    return nests, spatials


def sweep_cohorts(workload, arch, rng, n_cohorts, cohort_size):
    """The spec cohorts materialised as mappings (evaluation modes)."""
    return [
        [build_spec(workload, arch, spec) for spec in cohort]
        for cohort in sweep_specs(workload, arch, rng, n_cohorts,
                                  cohort_size)
    ]


def run_scalar(cohorts):
    start = time.perf_counter()
    out = []
    for cohort in cohorts:
        for mapping in cohort:
            out.append(evaluate(mapping))
    return out, time.perf_counter() - start


def run_batch(cohorts):
    start = time.perf_counter()
    out = []
    for cohort in cohorts:
        out.extend(evaluate_batch(cohort))
    return out, time.perf_counter() - start


_MODES = (("scalar", run_scalar), ("batch", run_batch))


# ---------------------------------------------------------------------------
# generation stage and end-to-end (generation + evaluation)
# ---------------------------------------------------------------------------

def run_gen_scalar(workload, arch, spec_cohorts):
    start = time.perf_counter()
    out = []
    for cohort in spec_cohorts:
        out.append([build_spec(workload, arch, spec) for spec in cohort])
    return out, time.perf_counter() - start


def run_gen_batch(workload, arch, spec_cohorts):
    start = time.perf_counter()
    out = []
    for cohort in spec_cohorts:
        nest_cohort = NestCohort.from_nests(
            workload, arch, [spec_to_nests(spec) for spec in cohort])
        nest_cohort.geometry()  # stage the factor matrices
        out.append(nest_cohort)
    return out, time.perf_counter() - start


def run_e2e_scalar(workload, arch, spec_cohorts):
    start = time.perf_counter()
    out = []
    for cohort in spec_cohorts:
        for spec in cohort:
            out.append(evaluate(build_spec(workload, arch, spec)))
    return out, time.perf_counter() - start


def run_e2e_batch(workload, arch, spec_cohorts):
    start = time.perf_counter()
    out = []
    for cohort in spec_cohorts:
        nest_cohort = NestCohort.from_nests(
            workload, arch, [spec_to_nests(spec) for spec in cohort])
        costs = nest_cohort.evaluate_rows(range(len(cohort)), True, None)
        if costs is None:  # no numpy: per-row scalar fallback
            costs = [evaluate(nest_cohort.materialize(i))
                     for i in range(len(cohort))]
        out.extend(costs)
    return out, time.perf_counter() - start


def bench_generation(workload, arch, *, n_cohorts, cohort_size, repeats,
                     check):
    rng = random.Random(0)
    spec_cohorts = sweep_specs(workload, arch, rng, n_cohorts, cohort_size)
    n_cands = sum(len(c) for c in spec_cohorts)
    evaluate(build_spec(workload, arch, spec_cohorts[0][0]))  # warm memos

    row = {"candidates": n_cands}
    outputs = {}
    modes = (("gen_scalar", run_gen_scalar), ("gen_batch", run_gen_batch),
             ("e2e_scalar", run_e2e_scalar), ("e2e_batch", run_e2e_batch))
    for name, runner in modes:
        best = float("inf")
        for _ in range(repeats):
            gc.collect()
            gc.disable()
            try:
                out, elapsed = runner(workload, arch, spec_cohorts)
            finally:
                gc.enable()
            best = min(best, elapsed)
        outputs[name] = out
        unit = "cands" if name.startswith("gen") else "evals"
        row[f"{name}_{unit}_per_s"] = n_cands / best
        row[f"{name}_time_s"] = best
    row["speedup_gen_batch_vs_scalar"] = (
        row["gen_batch_cands_per_s"] / row["gen_scalar_cands_per_s"])
    row["speedup_e2e_batch_vs_scalar"] = (
        row["e2e_batch_evals_per_s"] / row["e2e_scalar_evals_per_s"])

    if check:
        from repro.search import mapping_fingerprint
        flat_mappings = [m for cohort in outputs["gen_scalar"]
                         for m in cohort]
        rebuilt = [cohort.materialize(i) for cohort in outputs["gen_batch"]
                   for i in range(len(cohort))]
        for i, (a, b) in enumerate(zip(flat_mappings, rebuilt)):
            assert mapping_fingerprint(a) == mapping_fingerprint(b), (
                f"{workload.name}: batch generation candidate {i} "
                f"diverges from build_mapping")
        for i, oracle in enumerate(outputs["e2e_scalar"]):
            got = outputs["e2e_batch"][i]
            for field in _FIELDS:
                assert getattr(oracle, field) == getattr(got, field), (
                    f"{workload.name}: e2e batch result {i} diverges "
                    f"from scalar on {field}")
    return row


def bench_workload(workload, arch, *, n_cohorts, cohort_size, repeats,
                   check):
    rng = random.Random(0)
    cohorts = sweep_cohorts(workload, arch, rng, n_cohorts, cohort_size)
    n_evals = sum(len(c) for c in cohorts)
    evaluate(cohorts[0][0])  # warm the model-info / footprint memos

    row = {"evaluations": n_evals}
    results = {}
    for name, runner in _MODES:
        best = float("inf")
        for _ in range(repeats):
            # Time with the cyclic GC paused (pyperf-style) so allocation
            # churn does not jitter the comparison; results are identical.
            gc.collect()
            gc.disable()
            try:
                out, elapsed = runner(cohorts)
            finally:
                gc.enable()
            best = min(best, elapsed)
        results[name] = out
        row[f"{name}_evals_per_s"] = n_evals / best
        row[f"{name}_time_s"] = best
    row["speedup_batch_vs_scalar"] = (
        row["batch_evals_per_s"] / row["scalar_evals_per_s"])

    if check:
        for i, oracle in enumerate(results["scalar"]):
            got = results["batch"][i]
            for field in _FIELDS:
                assert getattr(oracle, field) == getattr(got, field), (
                    f"{workload.name}: batch result {i} diverges from "
                    f"scalar on {field}")
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Cost-model evaluation throughput benchmark.")
    parser.add_argument("--quick", action="store_true",
                        help="small cohorts (CI smoke, no JSON by default)")
    parser.add_argument("--check", action="store_true",
                        help="assert the vectorised pipelines agree "
                             "bitwise with the scalar one")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write results to PATH (default: "
                             "BENCH_model.json at the repo root unless "
                             "--quick)")
    args = parser.parse_args(argv)

    if args.quick:
        shape = dict(n_cohorts=2, cohort_size=16, repeats=1)
    else:
        # The engine evaluates a whole sweep level per evaluate_many()
        # call (scheduler._sweep) and the exhaustive baseline flushes
        # batches of >= 256, so several-hundred-candidate cohorts are
        # the real operating regime.
        shape = dict(n_cohorts=4, cohort_size=512, repeats=5)
    shape["check"] = args.check

    cases = [
        ("resnet18-conv2_x/diannao",
         RESNET18_LAYERS[1].inference(batch=1), diannao_like()),
        ("mttkrp/conventional",
         mttkrp(I=32, K=16, L=16, J=32), conventional()),
    ]

    report = {
        "numpy": HAVE_NUMPY,
        "quick": bool(args.quick),
        "workloads": {},
    }
    for label, workload, arch in cases:
        row = bench_workload(workload, arch, **shape)
        row.update(bench_generation(workload, arch, **shape))
        report["workloads"][label] = row
        print(f"{label}: {row['evaluations']} evals | "
              f"scalar {row['scalar_evals_per_s']:.0f}/s, "
              f"batch {row['batch_evals_per_s']:.0f}/s "
              f"({row['speedup_batch_vs_scalar']:.2f}x)")
        print(f"{label}: generation "
              f"scalar {row['gen_scalar_cands_per_s']:.0f} cands/s, "
              f"batch {row['gen_batch_cands_per_s']:.0f} cands/s "
              f"({row['speedup_gen_batch_vs_scalar']:.2f}x) | "
              f"end-to-end "
              f"scalar {row['e2e_scalar_evals_per_s']:.0f}/s, "
              f"batch {row['e2e_batch_evals_per_s']:.0f}/s "
              f"({row['speedup_e2e_batch_vs_scalar']:.2f}x)")

    headline_row = report["workloads"]["resnet18-conv2_x/diannao"]
    headline = headline_row["speedup_batch_vs_scalar"]
    report["headline_speedup_batch_vs_scalar"] = headline
    report["headline_speedup_e2e_batch_vs_scalar"] = (
        headline_row["speedup_e2e_batch_vs_scalar"])
    print(f"headline (ResNet-18 layer, DianNao-like): "
          f"{headline:.2f}x batch vs scalar eval, "
          f"{headline_row['speedup_e2e_batch_vs_scalar']:.2f}x "
          f"end-to-end (generation + evaluation)")

    path = args.json
    if path is None and not args.quick:
        path = str(REPO_ROOT / "BENCH_model.json")
    if path:
        # Atomic write: an interrupted run must never leave a truncated
        # BENCH_model.json for downstream tooling to choke on.
        from repro.search import atomic_write_json
        atomic_write_json(path, report)
        print(f"wrote {path}")
    if args.check:
        print("check: scalar and batch agree bitwise "
              "(evaluation, generation and end-to-end)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
