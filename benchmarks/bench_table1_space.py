"""Table I: search-space size per tool for an Inception-v3 example layer.

Reproduces the paper's headline scalability claim: the space Sunstone
actually explores is orders of magnitude smaller than what prior tools
define, while still finding equal-or-better mappings.

Paper reference points (Inception-v3 example layer, conventional arch):
Timeloop 3.69e10, Marvel 1.36e9, Interstellar 1.40e9, dMazeRunner 1.97e5,
Sunstone 5.89e3.  Absolute counts depend on counting conventions; the
ordering and the >=1e6 gap between Timeloop and Sunstone are the claims
under test.

Run directly with ``--check`` to assert the counts are bit-identical to
the pinned reference values below — the regression gate for the
declarative mapspace sizes (``repro.mapspace``) these rows are computed
from.
"""

import pytest

from repro.analysis import table1
from repro.arch import conventional
from repro.core import schedule
from repro.workloads import INCEPTION_EXAMPLE_LAYER

# Pinned (tiling, ordering, unrolling) per tool for the Inception-v3
# example layer on the conventional architecture.  Sunstone's row is the
# measured (deterministic) count of the candidates its search walks and
# evaluates.
REFERENCE_ROWS = {
    "timeloop": (918540, 5040, 4480),
    "marvel": (2007488, 840, 1),
    "interstellar": (918540, 10, 70),
    "dmazerunner": (45927, 10, 112),
    "sunstone": (1418, 1, 1),
}


@pytest.fixture(scope="module")
def layer():
    return INCEPTION_EXAMPLE_LAYER.inference(batch=1)


def test_table1_rows(layer, paper_report):
    rows = table1(layer, conventional())
    by_tool = {row.tool: row.total for row in rows}

    paper_report(
        "Table I: optimization-space size (Inception-v3 example layer)",
        [f"{row.tool:<14} {row.total:>12.2e}   {row.notes}"
         for row in rows],
    )

    assert by_tool["timeloop"] > by_tool["marvel"]
    assert by_tool["timeloop"] > by_tool["interstellar"]
    assert by_tool["marvel"] > by_tool["dmazerunner"]
    assert by_tool["interstellar"] > by_tool["dmazerunner"]
    assert by_tool["dmazerunner"] > by_tool["sunstone"]
    # Headline: up to 1e7x smaller than Timeloop's space.
    assert by_tool["timeloop"] / by_tool["sunstone"] > 1e6


def test_sunstone_space_benchmark(benchmark, layer):
    """Time-to-solution for the layer whose space Table I quotes."""
    arch = conventional()
    result = benchmark.pedantic(
        lambda: schedule(layer, arch), rounds=1, iterations=1,
    )
    assert result.found
    benchmark.extra_info["evaluations"] = result.stats.evaluations
    benchmark.extra_info["edp"] = result.edp


def main(argv=None) -> int:
    """Print the Table I rows; with ``--check``, assert they equal the
    pinned reference values exactly."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail unless every (tiling, ordering, "
                             "unrolling) triple matches the pinned "
                             "reference values")
    args = parser.parse_args(argv)

    layer = INCEPTION_EXAMPLE_LAYER.inference(batch=1)
    rows = table1(layer, conventional())
    print(f"{'tool':<14} {'tiling':>12} {'ordering':>9} {'unrolling':>10} "
          f"{'total':>12}")
    failures = []
    for row in rows:
        print(f"{row.tool:<14} {row.tiling:>12} {row.ordering:>9} "
              f"{row.unrolling:>10} {row.total:>12.2e}")
        if args.check:
            expected = REFERENCE_ROWS[row.tool]
            actual = (row.tiling, row.ordering, row.unrolling)
            if actual != expected:
                failures.append(f"{row.tool}: expected {expected}, "
                                f"got {actual}")
    if failures:
        print("space-size regression:")
        for line in failures:
            print(f"  {line}")
        return 1
    if args.check:
        print("all space sizes match the pinned reference values")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
