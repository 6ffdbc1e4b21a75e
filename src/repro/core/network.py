"""Network-level scheduling: map a whole model, layer by layer.

Dataflow optimisation is per-layer, but users schedule *networks*.  This
module adds the obvious production conveniences:

* shape deduplication — ResNet-18 has 20 conv layers but only 11 distinct
  shapes; identical shapes share one search;
* aggregated network totals (energy, cycles, EDP) and per-layer reports.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Sequence

from ..arch.spec import Architecture
from ..core.scheduler import (
    ScheduleResult,
    SchedulerOptions,
    SchedulerStats,
    SunstoneScheduler,
)
from ..mapping.serialize import mapping_from_dict, mapping_to_dict
from ..model.cost import evaluate as _model_evaluate
from ..procpool import watch_parent
from ..search import CheckpointJournal, SearchEngine, SearchStats
from ..workloads.expression import Workload


def _schedule_one(args: tuple[Workload, Architecture,
                              SchedulerOptions | None]) -> ScheduleResult:
    """Top-level worker so process pools can pickle it."""
    workload, arch, options = args
    return SunstoneScheduler(workload, arch, options).schedule()


@dataclass
class LayerSchedule:
    """One layer's outcome within a network schedule."""

    workload: Workload
    result: ScheduleResult
    shared_with: str | None = None  # name of the layer whose search was reused


@dataclass
class NetworkSchedule:
    """Aggregate of per-layer schedules."""

    layers: list[LayerSchedule]
    wall_time_s: float = 0.0
    # Evaluation-engine totals across every layer search (merged from the
    # worker processes when layer-parallelism is used).
    search_stats: SearchStats = field(default_factory=SearchStats)

    @property
    def all_found(self) -> bool:
        return all(entry.result.found for entry in self.layers)

    @property
    def total_energy_pj(self) -> float:
        return sum(entry.result.cost.energy_pj for entry in self.layers
                   if entry.result.found)

    @property
    def total_cycles(self) -> float:
        # Layers execute back to back (no inter-layer pipelining).
        return sum(entry.result.cost.cycles for entry in self.layers
                   if entry.result.found)

    @property
    def total_edp(self) -> float:
        """Network EDP: total energy x total latency."""
        return self.total_energy_pj * self.total_cycles

    @property
    def unique_searches(self) -> int:
        return sum(1 for entry in self.layers if entry.shared_with is None)

    def summary(self) -> str:
        lines = [
            f"{'layer':<16} {'EDP':>12} {'energy(uJ)':>11} {'cycles':>12} "
            f"{'util':>5}  note"
        ]
        for entry in self.layers:
            result = entry.result
            if not result.found:
                lines.append(f"{entry.workload.name:<16} {'--':>12} "
                             f"{'--':>11} {'--':>12} {'--':>5}  NO MAPPING")
                continue
            note = (f"shared with {entry.shared_with}"
                    if entry.shared_with else "")
            lines.append(
                f"{entry.workload.name:<16} {result.edp:>12.3e} "
                f"{result.cost.energy_pj / 1e6:>11.2f} "
                f"{result.cost.cycles:>12.0f} "
                f"{result.cost.utilization:>5.0%}  {note}"
            )
        lines.append(
            f"total: energy {self.total_energy_pj / 1e6:.2f} uJ, "
            f"latency {self.total_cycles:.3e} cy, EDP {self.total_edp:.3e} "
            f"({self.unique_searches} unique searches, "
            f"{self.wall_time_s:.1f}s)"
        )
        if self.search_stats.requests:
            lines.append(f"search engine: {self.search_stats.summary()}")
        return "\n".join(lines)


def _shape_key(workload: Workload) -> tuple:
    return (
        tuple(sorted(workload.dims.items())),
        tuple(
            (t.name, t.role, t.is_output,
             tuple((e.dims, e.stride) for e in t.indices))
            for t in workload.tensors
        ),
    )


def _restore_layer(
    entry: dict,
    opts: SchedulerOptions,
    engine: SearchEngine | None = None,
) -> ScheduleResult:
    """Rebuild one journaled layer result.  The stored mapping is
    re-evaluated with the live cost model (through the shared engine when
    one exists), so the restored cost is bit-identical to a fresh search's."""
    stats = SchedulerStats()
    if engine is not None:
        stats.search = engine.stats
    stats.evaluations = entry["evaluations"]
    doc = entry.get("mapping")
    if doc is None:
        return ScheduleResult(None, None, stats, opts)
    mapping = mapping_from_dict(doc)
    if engine is not None:
        cost = engine.evaluate(mapping)
    else:
        cost = _model_evaluate(mapping, partial_reuse=opts.partial_reuse,
                               sparsity=opts.sparsity)
    return ScheduleResult(mapping, cost, stats, opts)


def schedule_network(
    workloads: Sequence[Workload],
    arch: Architecture,
    options: SchedulerOptions | None = None,
    processes: int | None = None,
    journal: CheckpointJournal | None = None,
) -> NetworkSchedule:
    """Schedule every layer of a network with Sunstone, deduplicating
    identical shapes.

    ``processes`` > 1 searches distinct shapes in parallel worker
    processes (the paper runs its tools with 8 threads).  Otherwise one
    evaluation engine (and hence one result cache) spans all layer
    searches, so near-identical layers dedupe at the evaluation level
    too.  Shape sharing never changes a result: a repeated shape would
    rerun the identical search.

    ``journal`` (a :class:`~repro.search.CheckpointJournal`) makes the
    run crash-safe: each completed layer search is persisted, and a
    journal opened with ``resume=True`` skips the already-finished layers
    — their stored mappings are re-evaluated with the live cost model, so
    the resumed network totals are bit-identical to an uninterrupted
    run's.
    """
    start = time.perf_counter()
    opts = options or SchedulerOptions()

    # Deduplicate first so parallel workers never repeat a search.
    keys = [_shape_key(workload) for workload in workloads]
    first_index: dict[tuple, int] = {}
    unique_indices: list[int] = []
    for i, key in enumerate(keys):
        if key in first_index:
            continue
        first_index[key] = i
        unique_indices.append(i)

    def restored(i: int, eng: SearchEngine | None = None
                 ) -> ScheduleResult | None:
        if journal is None:
            return None
        entry = journal.last("layer", index=i)
        if entry is None:
            return None
        return _restore_layer(entry, opts, engine=eng)

    def record(i: int, result: ScheduleResult) -> None:
        if journal is None:
            return
        journal.append({
            "type": "layer",
            "index": i,
            "name": workloads[i].name,
            "mapping": (mapping_to_dict(result.mapping)
                        if result.found else None),
            "evaluations": result.stats.evaluations,
        })

    totals = SearchStats()
    results: dict[int, ScheduleResult] = {}
    if processes and processes > 1:
        pending = []
        for i in unique_indices:
            prior = restored(i)
            if prior is not None:
                results[i] = prior
            else:
                pending.append(i)
        jobs = [(workloads[i], arch, options) for i in pending]
        if jobs:
            # Leaving the block terminates the pool, so an interrupt
            # (SIGTERM, Ctrl-C) drops the queued layers and stops the
            # running ones instead of finishing them first.
            with multiprocessing.Pool(processes,
                                      initializer=watch_parent) as pool:
                for i, result in zip(pending,
                                     pool.imap(_schedule_one, jobs)):
                    results[i] = result
                    totals.merge(result.stats.search)
                    record(i, result)
    else:
        # One shared engine (and result cache) spans every layer search.
        shared_engine = SearchEngine(cache=opts.cache,
                                     partial_reuse=opts.partial_reuse,
                                     sparsity=opts.sparsity,
                                     cache_size=opts.cache_size)
        if journal is not None:
            warm = journal.load_cache_snapshot()
            if warm is not None and shared_engine.cache is not None:
                for key, value in warm._entries.items():
                    shared_engine.cache.put(key, value)
        for i in unique_indices:
            prior = restored(i, shared_engine)
            if prior is not None:
                results[i] = prior
                continue
            results[i] = SunstoneScheduler(
                workloads[i], arch, options,
                engine=shared_engine).schedule()
            record(i, results[i])
            if journal is not None:
                journal.save_cache_snapshot(shared_engine.cache)
        totals = shared_engine.stats

    layers: list[LayerSchedule] = []
    for i, workload in enumerate(workloads):
        owner = i if i in results else first_index[keys[i]]
        if owner == i:
            layers.append(LayerSchedule(workload, results[owner]))
        else:
            layers.append(LayerSchedule(
                workload, results[owner],
                shared_with=workloads[owner].name,
            ))
    return NetworkSchedule(layers,
                           wall_time_s=time.perf_counter() - start,
                           search_stats=totals)
