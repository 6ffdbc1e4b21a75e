"""The mapper front door: every mapper of the comparison (§V), run one way.

``repro compare``, every serve task and the validity survey run a mapper
through :func:`run_mapper` and read its :class:`SearchResult`, so the
paper's one cost model and one validity rule judge every mapper through
the same fields.  The module holds:

* ``MAPPERS``, the mapper names in the comparison's order;
* :func:`select_mappers`, the one selection rule;
* one runner per mapper, ``(workload, arch, options, engine=None) ->
  SearchResult``.  Only Sunstone takes an injected engine; the baselines
  build their own, in their exact cold configuration;
* :func:`result_doc` and :func:`cost_doc`, the JSON documents of a
  mapper's outcome (a ``repro compare`` row, a serve task part).

Runners call each search through this module's global name at call time,
so a wrapper patched onto that name sees every call.
"""

from __future__ import annotations

from typing import Sequence

from .arch.spec import Architecture
from .baselines import (
    TIMELOOP_FAST,
    SearchResult,
    cosa_search,
    dmazerunner_search,
    gamma_search,
    interstellar_search,
    timeloop_search,
)
from .baselines.common import from_schedule
from .core import SchedulerOptions, schedule
from .mapping.serialize import mapping_to_dict
from .model.cost import CostResult
from .search import SearchEngine
from .workloads.expression import Workload

MAPPERS = (
    "sunstone",
    "timeloop-like",
    "dmazerunner-like",
    "interstellar-like",
    "cosa-like",
    "gamma-like",
)


def _key(name: str) -> str:
    """The part of a mapper name that selects it (``timeloop-like`` and
    ``timeloop`` both select ``timeloop-like``)."""
    return name.split("-")[0]


def selection_keys(chosen: str | Sequence[str] | None) -> list[str] | None:
    """The canonical form of a mapper selection: the sorted distinct keys
    of ``chosen``, which is ``None`` (every mapper), a comma-separated
    string or a list of names.  An unknown name raises ValueError naming
    it."""
    if chosen is None:
        return None
    if isinstance(chosen, str):
        chosen = [m.strip() for m in chosen.split(",") if m.strip()]
    known = sorted({_key(name) for name in MAPPERS})
    for name in chosen:
        if _key(name) not in known:
            raise ValueError(f"unknown mapper {name!r}; choose from {known}")
    return sorted({_key(name) for name in chosen})


def select_mappers(chosen: str | Sequence[str] | None = None) -> list[str]:
    """The mappers a selection runs, in ``MAPPERS`` order: Sunstone first
    and always, then every baseline ``chosen`` names (see
    :func:`selection_keys`)."""
    keys = selection_keys(chosen)
    return [name for name in MAPPERS
            if keys is None or name == "sunstone" or _key(name) in keys]


def run_sunstone(workload: Workload, arch: Architecture,
                 options: SchedulerOptions,
                 engine: SearchEngine | None = None) -> SearchResult:
    return from_schedule("sunstone",
                         schedule(workload, arch, options, engine=engine))


def run_timeloop(workload: Workload, arch: Architecture,
                 options: SchedulerOptions,
                 engine: SearchEngine | None = None) -> SearchResult:
    return timeloop_search(workload, arch, TIMELOOP_FAST,
                           cache=options.cache, sparsity=options.sparsity,
                           cache_size=options.cache_size)


def run_dmazerunner(workload: Workload, arch: Architecture,
                    options: SchedulerOptions,
                    engine: SearchEngine | None = None) -> SearchResult:
    return dmazerunner_search(workload, arch, cache=options.cache,
                              sparsity=options.sparsity,
                              cache_size=options.cache_size,
                              shard=options.shard)


def run_interstellar(workload: Workload, arch: Architecture,
                     options: SchedulerOptions,
                     engine: SearchEngine | None = None) -> SearchResult:
    return interstellar_search(workload, arch, cache=options.cache,
                               sparsity=options.sparsity,
                               cache_size=options.cache_size,
                               shard=options.shard)


def run_cosa(workload: Workload, arch: Architecture,
             options: SchedulerOptions,
             engine: SearchEngine | None = None) -> SearchResult:
    return cosa_search(workload, arch, sparsity=options.sparsity,
                       cache_size=options.cache_size)


def run_gamma(workload: Workload, arch: Architecture,
              options: SchedulerOptions,
              engine: SearchEngine | None = None) -> SearchResult:
    return gamma_search(workload, arch, cache=options.cache,
                        sparsity=options.sparsity,
                        cache_size=options.cache_size)


RUNNERS = dict(zip(MAPPERS, (run_sunstone, run_timeloop, run_dmazerunner,
                             run_interstellar, run_cosa, run_gamma)))


def run_mapper(name: str, workload: Workload, arch: Architecture,
               options: SchedulerOptions,
               engine: SearchEngine | None = None) -> SearchResult:
    """Run the mapper called ``name`` (one of ``MAPPERS``)."""
    return RUNNERS[name](workload, arch, options, engine=engine)


def cost_doc(cost: CostResult) -> dict:
    """The JSON document of a cost breakdown."""
    return {
        "energy_pj": cost.energy_pj,
        "cycles": cost.cycles,
        "edp": cost.edp,
        "valid": cost.valid,
        "violations": list(cost.violations),
        "utilization": cost.utilization,
        "compute_energy": cost.compute_energy,
        "noc_energy": cost.noc_energy,
        "chip2chip_energy": cost.chip2chip_energy,
        "level_energy": dict(cost.level_energy),
    }


def result_doc(result: SearchResult) -> dict:
    """The JSON document of one mapper's outcome: a ``repro compare``
    row, and the part a serve task returns."""
    return {
        "mapper": result.mapper,
        "found": result.found,
        "status": "ok" if result.valid else "invalid",
        "evaluations": result.evaluations,
        "wall_time_s": result.wall_time_s,
        "cost": cost_doc(result.cost) if result.found else None,
        "mapping": mapping_to_dict(result.mapping) if result.found else None,
        "search": (result.search_stats.to_dict()
                   if result.search_stats is not None else None),
        "certificate": result.certificate,
    }
