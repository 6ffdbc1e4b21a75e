"""repro.mapspace — declarative, deterministic mapping-space IR.

The mapspace IR separates *what the candidate space is* from *how a
strategy walks it*.  Axes (factor lattices, order tries, tile and unroll
choices) are :class:`Space` objects composed with products, dependent
spaces and named pruning passes; every composed space is deterministic,
sized, and walked one way, through ``enumerate(shard=)``.  See
docs/MAPSPACE.md.
"""

from .batch import (
    Cohort,
    MatrixCohort,
    NestCohort,
    full_space_cohorts,
)
from .bounds import BoundModel, Region
from .constraints import utilization_band, utilization_floor
from .factor import (
    DivisorSpace,
    FactorLattice,
    ordered_factorizations,
    prime_factors,
)
from .mapspace import (
    Mapspace,
    assemble_mapping,
    assignment_slots,
    full_mapping_space,
    spatial_boundaries,
    stores_from_splits,
)
from .order import OrderSpace, PermutationSpace
from .spaces import (
    BoundStats,
    DependentSpace,
    FilteredSpace,
    LazySpace,
    ListSpace,
    MappedSpace,
    ProductSpace,
    PruneStats,
    Space,
    TruncatedSpace,
    check_shard,
)
from .tile import (
    DivisorGridSpace,
    ExhaustiveTileSpace,
    TileSpace,
    cap_tilings_by_footprint,
)
from .unroll import UnrollSpace, unroll_size

__all__ = sorted([
    "BoundModel",
    "BoundStats",
    "Cohort",
    "DependentSpace",
    "DivisorGridSpace",
    "DivisorSpace",
    "ExhaustiveTileSpace",
    "FactorLattice",
    "FilteredSpace",
    "LazySpace",
    "ListSpace",
    "MappedSpace",
    "Mapspace",
    "MatrixCohort",
    "NestCohort",
    "OrderSpace",
    "PermutationSpace",
    "ProductSpace",
    "PruneStats",
    "Region",
    "Space",
    "TileSpace",
    "TruncatedSpace",
    "UnrollSpace",
    "assemble_mapping",
    "assignment_slots",
    "cap_tilings_by_footprint",
    "check_shard",
    "full_mapping_space",
    "full_space_cohorts",
    "ordered_factorizations",
    "prime_factors",
    "spatial_boundaries",
    "stores_from_splits",
    "unroll_size",
    "utilization_band",
    "utilization_floor",
])
