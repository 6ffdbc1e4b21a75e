"""repro.mapspace — candidate spaces, cohorts and bounds.

The searches generate their candidates with plain loops over the lists
:mod:`repro.core` builds (order tries, tiling trees, unrollings); this
package holds what they share: per-dimension factor lattices, the
full mapping space the exhaustive and sampling baselines are defined
over (its index decoder plus its closed-form size), the tile cap, the
one shard rule, evaluation-ready cohorts and the analytic bound model.
See docs/MAPSPACE.md.
"""

from .batch import (
    Cohort,
    MatrixCohort,
    NestCohort,
    SpaceDecoder,
)
from .bounds import BoundModel, Region
from .factor import (
    FactorLattice,
    ordered_factorizations,
    prime_factors,
)
from .mapspace import (
    assemble_mapping,
    assignment_slots,
    full_space_lattices,
    full_space_size,
    order_permutations,
    spatial_boundaries,
    stores_from_splits,
)
from .spaces import BoundStats, check_shard
from .tile import cap_tilings_by_footprint

__all__ = sorted([
    "BoundModel",
    "BoundStats",
    "Cohort",
    "FactorLattice",
    "MatrixCohort",
    "NestCohort",
    "Region",
    "SpaceDecoder",
    "assemble_mapping",
    "assignment_slots",
    "cap_tilings_by_footprint",
    "check_shard",
    "full_space_lattices",
    "full_space_size",
    "order_permutations",
    "ordered_factorizations",
    "prime_factors",
    "spatial_boundaries",
    "stores_from_splits",
])
