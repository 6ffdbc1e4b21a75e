"""GAMMA-like genetic-algorithm mapper (related work, §VI).

GAMMA [Kao & Krishna, ICCAD'20] evolves mappings with a genetic algorithm:
a population of candidate mappings undergoes crossover (exchanging per-level
decisions between parents) and mutation (re-splitting one dimension's
factors, permuting one level's order, re-rolling one boundary's unrolling),
ranked by the cost model.  The paper cites it as a black-box alternative
whose approximation of the problem can miss structure; it is included here
both as an additional baseline and as a stress test for the cost model.

Chromosome encoding: per dimension, a placement of its prime factors into
(level, temporal/spatial) slots; per level, a loop-order permutation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from ..arch.spec import Architecture
from ..mapping.mapping import Mapping
from ..mapspace.factor import prime_factors
from ..mapspace.mapspace import assemble_mapping, assignment_slots
from ..model.cost import CostResult
from ..search import SearchEngine
from ..sparse.spec import SparsitySpec
from ..workloads.expression import Workload
from .common import SearchResult, resolve_engine


@dataclass(frozen=True)
class GammaConfig:
    """Genetic-algorithm hyperparameters (GAMMA's defaults scaled down)."""

    population: int = 60
    generations: int = 25
    elite_fraction: float = 0.2
    mutation_rate: float = 0.25
    seed: int = 0
    objective: str = "edp"


@dataclass
class _Genome:
    # placements[dim] = list of (kind, level) per prime factor of the dim
    placements: dict[str, list[tuple[str, int]]]
    orders: list[tuple[str, ...]]


class _GammaSearch:
    def __init__(self, workload: Workload, arch: Architecture,
                 config: GammaConfig, engine: SearchEngine) -> None:
        self.workload = workload
        self.arch = arch
        self.config = config
        self.engine = engine
        self.rng = random.Random(config.seed)
        self.primes = {
            dim: prime_factors(size) for dim, size in workload.dims.items()
        }
        # Chromosome slots are the canonical mapspace assignment slots
        # (temporal per level, spatial at fanout boundaries).
        self.slots = assignment_slots(arch)
        self.evaluations = 0

    # -- genome operations -------------------------------------------------
    def random_genome(self) -> _Genome:
        placements = {
            dim: [self.rng.choice(self.slots) for _ in primes]
            for dim, primes in self.primes.items()
        }
        orders = []
        for _ in range(self.arch.num_levels):
            order = list(self.workload.dim_names)
            self.rng.shuffle(order)
            orders.append(tuple(order))
        return _Genome(placements, orders)

    def crossover(self, a: _Genome, b: _Genome) -> _Genome:
        placements = {}
        for dim in self.primes:
            donor = a if self.rng.random() < 0.5 else b
            placements[dim] = list(donor.placements[dim])
        orders = [
            (a if self.rng.random() < 0.5 else b).orders[i]
            for i in range(self.arch.num_levels)
        ]
        return _Genome(placements, orders)

    def mutate(self, genome: _Genome) -> None:
        roll = self.rng.random()
        if roll < 0.5 and self.primes:
            # Re-place one prime factor of one dimension.
            dim = self.rng.choice(list(self.primes))
            if genome.placements[dim]:
                index = self.rng.randrange(len(genome.placements[dim]))
                genome.placements[dim][index] = self.rng.choice(self.slots)
        else:
            # Re-shuffle one level's loop order.
            level = self.rng.randrange(self.arch.num_levels)
            order = list(genome.orders[level])
            self.rng.shuffle(order)
            genome.orders[level] = tuple(order)

    # -- decoding & fitness -------------------------------------------------
    def decode(self, genome: _Genome) -> Mapping:
        num = self.arch.num_levels
        temporal = [dict[str, int]() for _ in range(num)]
        spatial = [dict[str, int]() for _ in range(num)]
        for dim, placement in genome.placements.items():
            for prime, (kind, level) in zip(self.primes[dim], placement):
                store = temporal if kind == "t" else spatial
                store[level][dim] = store[level].get(dim, 1) * prime
        return assemble_mapping(self.workload, self.arch, temporal, spatial,
                                genome.orders)

    def _value(self, cost: CostResult) -> float:
        value = cost.edp if self.config.objective == "edp" \
            else cost.energy_pj
        if not cost.valid:
            value *= 1e6  # heavily penalise, GAMMA-style, but keep gradient
        return value

    # -- main loop ----------------------------------------------------------
    def run(self) -> tuple[Mapping, CostResult] | None:
        population = [self.random_genome()
                      for _ in range(self.config.population)]
        best: tuple[float, Mapping, CostResult] | None = None
        for _ in range(self.config.generations):
            # One whole generation is a natural evaluation batch.
            mappings = [self.decode(genome) for genome in population]
            costs = self.engine.evaluate_many(mappings)
            self.evaluations += len(population)
            ranked = []
            for genome, mapping, cost in zip(population, mappings, costs):
                value = self._value(cost)
                ranked.append((value, genome))
                if cost.valid and (best is None or value < best[0]):
                    best = (value, mapping, cost)
            ranked.sort(key=lambda item: item[0])
            elite_count = max(2, int(self.config.elite_fraction
                                     * self.config.population))
            elites = [genome for _, genome in ranked[:elite_count]]
            children = list(elites)
            while len(children) < self.config.population:
                mother, father = self.rng.sample(elites, 2)
                child = self.crossover(mother, father)
                if self.rng.random() < self.config.mutation_rate:
                    self.mutate(child)
                children.append(child)
            population = children
        if best is None:
            return None
        return best[1], best[2]


def gamma_search(
    workload: Workload,
    arch: Architecture,
    config: GammaConfig = GammaConfig(),
    partial_reuse: bool = True,
    engine: SearchEngine | None = None,
    cache: bool = True,
    sparsity: SparsitySpec | None = None,
    cache_size: int | None = None,
) -> SearchResult:
    """Run the GAMMA-like genetic search."""
    start = time.perf_counter()
    engine = resolve_engine(engine, cache, partial_reuse, sparsity,
                            cache_size)
    search = _GammaSearch(workload, arch, config, engine)
    outcome = search.run()
    elapsed = time.perf_counter() - start
    if outcome is None:
        return SearchResult(
            mapper="gamma-like",
            mapping=None,
            cost=None,
            evaluations=search.evaluations,
            wall_time_s=elapsed,
            invalid_reason="no valid individual evolved",
            search_stats=engine.stats,
        )
    mapping, cost = outcome
    return SearchResult(
        mapper="gamma-like",
        mapping=mapping,
        cost=cost,
        evaluations=search.evaluations,
        wall_time_s=elapsed,
        search_stats=engine.stats,
    )
