"""Timeloop-style random search over the full mapping space (§V, "TL").

Timeloop's mapper samples the unrestricted space — every combination of
per-level tilings over *all* dimensions, all loop permutations, and all
spatial unrollings — uniformly at random, keeps the best valid mapping, and
stops on either a *timeout* (total sampled candidates) or a *victory
condition* (consecutive valid candidates without improvement).  The paper's
fast/slow hyperparameters (Table V) are exposed as presets.

Optional :class:`MappingConstraints` mirror the user-supplied search-space
constraints Timeloop needs before it can be invoked on deep hierarchies
such as the Simba-like architecture (§V-B3).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Sequence

from ..arch.spec import Architecture
from ..mapping.mapping import Mapping
from ..mapspace.factor import FactorLattice
from ..mapspace.mapspace import assemble_mapping, assignment_slots
from ..model.cost import CostResult
from ..search import SearchEngine
from ..sparse.spec import SparsitySpec
from ..workloads.expression import Workload
from .common import SearchResult, resolve_engine


@dataclass(frozen=True)
class TimeloopConfig:
    """Search hyperparameters (paper Table V)."""

    timeout: int = 20000  # total candidates sampled
    victory_condition: int = 25  # consecutive valid non-improving candidates
    seed: int = 0
    objective: str = "edp"
    wall_clock_limit_s: float | None = None  # the paper's 1-hour cap


TIMELOOP_FAST = TimeloopConfig(timeout=20000, victory_condition=25)
TIMELOOP_SLOW = TimeloopConfig(timeout=80000, victory_condition=1500)


@dataclass(frozen=True)
class MappingConstraints:
    """User-provided search-space constraints (needed for deep hierarchies).

    ``spatial_dims[level]`` restricts which dimensions may be spatially
    unrolled at a level's boundary; ``temporal_dims[level]`` restricts which
    dimensions may receive temporal factors at a level (others stay 1).
    Levels absent from the dictionaries are unconstrained.
    """

    spatial_dims: dict[int, tuple[str, ...]] = field(default_factory=dict)
    temporal_dims: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def allows_temporal(self, level: int, dim: str) -> bool:
        allowed = self.temporal_dims.get(level)
        return allowed is None or dim in allowed

    def allows_spatial(self, level: int, dim: str) -> bool:
        allowed = self.spatial_dims.get(level)
        return allowed is None or dim in allowed


def sample_random_mapping(
    workload: Workload,
    arch: Architecture,
    rng: random.Random,
    constraints: MappingConstraints | None = None,
) -> Mapping:
    """Draw one uniformly random mapping (possibly invalid).

    Each dimension's prime factors land on its (possibly constrained)
    :func:`~repro.mapspace.mapspace.assignment_slots` via
    :meth:`FactorLattice.sample`, whose RNG consumption (one ``choice``
    per prime) is contractually identical to the historical sampler, so
    seeded runs reproduce the exact same candidate stream."""
    num = arch.num_levels
    temporal = [dict[str, int]() for _ in range(num)]
    spatial = [dict[str, int]() for _ in range(num)]

    for dim, size in workload.dims.items():
        slots = assignment_slots(arch, constraints, dim)
        split = FactorLattice(dim, size, slots).sample(rng)
        for (kind, level), factor in split.items():
            if factor == 1:
                continue
            store = temporal if kind == "t" else spatial
            store[level][dim] = store[level].get(dim, 1) * factor

    orders = []
    for _ in range(num):
        order = list(workload.dim_names)
        rng.shuffle(order)
        orders.append(order)
    return assemble_mapping(workload, arch, temporal, spatial, orders)


def timeloop_search(
    workload: Workload,
    arch: Architecture,
    config: TimeloopConfig = TIMELOOP_FAST,
    constraints: MappingConstraints | None = None,
    partial_reuse: bool = True,
    engine: SearchEngine | None = None,
    cache: bool = True,
    sparsity: SparsitySpec | None = None,
    cache_size: int | None = None,
) -> SearchResult:
    """Run the Timeloop-like random search.

    Candidates are drawn, evaluated and counted one at a time, in the
    sampler's order, until the victory condition or the timeout.
    """
    rng = random.Random(config.seed)
    start = time.perf_counter()
    best: tuple[float, Mapping, CostResult] | None = None
    since_improvement = 0
    sampled = 0

    eng = resolve_engine(engine, cache, partial_reuse, sparsity, cache_size)
    while sampled < config.timeout:
        if (config.wall_clock_limit_s is not None
                and time.perf_counter() - start > config.wall_clock_limit_s):
            break
        mapping = sample_random_mapping(workload, arch, rng, constraints)
        (cost,) = eng.evaluate_many([mapping])
        sampled += 1
        if not cost.valid:
            continue
        value = cost.edp if config.objective == "edp" else cost.energy_pj
        if best is None or value < best[0]:
            best = (value, mapping, cost)
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= config.victory_condition:
                break

    elapsed = time.perf_counter() - start
    stats = eng.stats
    if best is None:
        return SearchResult(
            mapper="timeloop-like",
            mapping=None,
            cost=None,
            evaluations=sampled,
            wall_time_s=elapsed,
            invalid_reason="no valid mapping sampled",
            search_stats=stats,
        )
    return SearchResult(
        mapper="timeloop-like",
        mapping=best[1],
        cost=best[2],
        evaluations=sampled,
        wall_time_s=elapsed,
        search_stats=stats,
    )


def simba_constraints(arch: Architecture) -> MappingConstraints:
    """Search-space constraints analogous to those shipped with Timeloop for
    Simba-like architectures [42]: weights-stationary registers (only K
    temporally inside the PE datapath) and channel-parallel boundaries."""
    return MappingConstraints(
        spatial_dims={0: ("C", "K"), 1: ("C", "K", "P", "Q")},
        temporal_dims={0: ("K", "N", "P", "Q")},
    )
