"""Fig. 9: tiling and unrolling overheads on a DianNao-like accelerator.

Schedules every ResNet-18 layer for the DianNao-like machine, compiles each
mapping to the 256-bit instruction stream, simulates it, and compares
against the naive stream-from-DRAM execution.

Paper reference points: the dataflow-optimized execution of ResNet-18 is
~2.9x more energy efficient overall; instruction overhead ~5% and data
reordering ~0.2% of total energy; all layers compile to ~4.1 M instructions
(the paper compiles at batch > 1; instruction counts scale with tiles).
"""

import pytest

from repro.arch import diannao_like
from repro.core import schedule
from repro.sim import compile_mapping, compile_naive, run_program
from repro.workloads import RESNET18_LAYERS


@pytest.fixture(scope="module")
def network_results():
    arch = diannao_like()
    rows = {}
    for index, layer in enumerate(RESNET18_LAYERS):
        wl = layer.inference(batch=1)
        scheduled = schedule(wl, arch)
        assert scheduled.found, layer.name
        # Only the network input pays the reordering pass; every other
        # ifmap is produced pre-ordered by the upstream layer.
        program = compile_mapping(scheduled.mapping,
                                  reorder_inputs=(index == 0))
        rows[layer.name] = {
            "optimized": run_program(program),
            "naive": run_program(compile_naive(wl)),
            "instructions": program.num_instructions,
        }
    return rows


def test_fig9a_energy_ratio(network_results, paper_report):
    lines = [f"{'layer':<10} {'naive/optimized':>15} {'instr %':>8} "
             f"{'reorder %':>9}"]
    total_opt = total_naive = 0.0
    for layer, row in network_results.items():
        opt, naive = row["optimized"], row["naive"]
        norm = opt.normalized_breakdown()
        lines.append(
            f"{layer:<10} {naive.total_energy / opt.total_energy:>14.2f}x "
            f"{norm['Instructions']:>8.1%} {norm['Reordering']:>9.2%}"
        )
        total_opt += opt.total_energy
        total_naive += naive.total_energy
    overall = total_naive / total_opt
    lines.append("-" * 46)
    lines.append(f"{'overall':<10} {overall:>14.2f}x   (paper: 2.9x)")
    paper_report("Fig. 9a: naive vs dataflow-optimized energy "
                 "(ResNet-18, DianNao-like)", lines)

    assert overall > 2.0  # tiling + unrolling clearly win
    for layer, row in network_results.items():
        assert row["naive"].total_energy >= row["optimized"].total_energy


def test_fig9a_overheads_are_small(network_results):
    total_opt = sum(r["optimized"].total_energy
                    for r in network_results.values())
    instr = sum(r["optimized"].energy_breakdown["Instructions"]
                for r in network_results.values())
    reorder = sum(r["optimized"].energy_breakdown["Reordering"]
                  for r in network_results.values())
    # Paper: ~5% instructions, ~0.2% reordering.
    assert instr / total_opt < 0.10
    assert reorder / total_opt < 0.02


def test_fig9b_energy_breakdown(network_results, paper_report):
    components = ("DRAM", "NBin", "NBout", "SB", "MAC", "Instructions")
    lines = [f"{'layer':<10} " + " ".join(f"{c:>7}" for c in components)]
    for layer, row in network_results.items():
        norm = row["optimized"].normalized_breakdown()
        lines.append(f"{layer:<10} " + " ".join(
            f"{norm[c]:>7.1%}" for c in components
        ))
    paper_report("Fig. 9b: per-component energy breakdown (ResNet-18)",
                 lines)
    # Every component participates somewhere in the network.
    summed = {c: sum(r["optimized"].energy_breakdown[c]
                     for r in network_results.values())
              for c in components}
    for component in components:
        assert summed[component] > 0, component


def test_instruction_budget(network_results, paper_report):
    total = sum(r["instructions"] for r in network_results.values())
    paper_report("Instruction count", [
        f"ResNet-18 compiles to {total} 256-bit instructions at batch 1 "
        f"(paper: 4.1 M at training batch sizes)",
    ])
    # Far fewer instructions than operations (SIMD/FSM amortisation).
    assert total < 5_000_000


def test_compile_and_simulate_benchmark(benchmark):
    arch = diannao_like()
    wl = RESNET18_LAYERS[1].inference(batch=1)
    mapping = schedule(wl, arch).mapping

    def run():
        program = compile_mapping(mapping, reorder_inputs=False)
        return run_program(program)

    sim = benchmark.pedantic(run, rounds=1, iterations=1)
    assert sim.counts.macs == wl.total_operations


def main(argv=None):
    """Standalone entry: ``python benchmarks/bench_fig9_overheads.py``.

    Schedules the ResNet-18 layers (a subset with ``--quick``) on the
    DianNao-like machine through one shared evaluation engine, simulates
    the optimized and naive executions, and prints the per-layer energy
    ratios plus the engine's evaluation/cache statistics.
    """
    import argparse
    import time

    from repro.core import SchedulerOptions
    from repro.core.network import schedule_network

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="only the first 4 ResNet-18 layers")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable cost-result memoisation")
    parser.add_argument("--no-sim", action="store_true",
                        help="skip the compile+simulate overhead pass")
    args = parser.parse_args(argv)

    layers = RESNET18_LAYERS[:4] if args.quick else RESNET18_LAYERS
    arch = diannao_like()
    workloads = [layer.inference(batch=1) for layer in layers]
    options = SchedulerOptions(cache=not args.no_cache)

    start = time.perf_counter()
    network = schedule_network(workloads, arch, options)
    schedule_s = time.perf_counter() - start
    if not network.all_found:
        missing = [entry.workload.name for entry in network.layers
                   if not entry.result.found]
        print(f"no mapping found for {missing}")
        return 1

    print(f"{'layer':<10} {'EDP':>12} {'energy(uJ)':>11} "
          f"{'naive/opt':>10} {'instr %':>8}")
    total_opt = total_naive = 0.0
    for index, entry in enumerate(network.layers):
        result = entry.result
        line = (f"{entry.workload.name:<10} {result.edp:>12.3e} "
                f"{result.cost.energy_pj / 1e6:>11.2f}")
        if not args.no_sim:
            program = compile_mapping(result.mapping,
                                      reorder_inputs=(index == 0))
            opt = run_program(program)
            naive = run_program(compile_naive(entry.workload))
            total_opt += opt.total_energy
            total_naive += naive.total_energy
            norm = opt.normalized_breakdown()
            line += (f" {naive.total_energy / opt.total_energy:>9.2f}x "
                     f"{norm['Instructions']:>8.1%}")
        print(line)
    if total_opt:
        print(f"overall naive/optimized energy: "
              f"{total_naive / total_opt:.2f}x (paper: ~2.9x)")
    print(f"scheduling wall time: {schedule_s:.2f}s "
          f"({len(layers)} layers, "
          f"cache={'off' if args.no_cache else 'on'})")
    print(f"search engine: {network.search_stats.summary()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
