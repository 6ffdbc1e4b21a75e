"""The Sunstone scheduler: level-by-level dataflow optimisation (§III-C, §V).

The optimiser proceeds memory level by memory level.  At each step it
chooses, jointly:

* the **loop ordering** of the parent level's nest (from the pruned trie of
  :mod:`repro.core.order_trie`) — this fixes which operand ``OP`` is
  temporally reused across the current level's tiles;
* the **tile** of the current level (from the tiling tree of
  :mod:`repro.core.tiling_tree`, grown only along ``OP``'s indexing
  dimensions — the Tiling Principle);
* the **spatial unrolling** of the current level's fanout boundary (from
  :mod:`repro.core.unrolling`, excluding ``OP``'s non-indexing dimensions —
  the Spatial Unrolling Principle).

Partial schedules are ranked by evaluating their trivial completion (all
residual factors at the outermost level) with the full cost model;
alpha-beta pruning discards partials whose estimate exceeds the best
estimate by more than a slack factor, and a beam bounds the frontier.

Both the paper's default **bottom-up** sweep and the ablated **top-down**
sweep are implemented, as are the three intra-level optimisation orders of
Table VI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from ..arch.spec import Architecture
from ..mapping.mapping import Mapping, MappingError, build_mapping
from ..mapping.placement import placement_table
from ..mapspace.batch import NestCohort
from ..mapspace.bounds import BoundModel
from ..mapspace.factor import prime_factors
from ..mapspace.spaces import BoundStats, check_shard
from ..mapspace.tile import cap_tilings_by_footprint
from ..mapping.serialize import mapping_from_dict, mapping_to_dict
from ..model.cost import CostResult
from ..search import (
    CheckpointJournal,
    MappingOutcome,
    SearchEngine,
    SearchStats,
    resolve_engine,
)
from ..sparse.spec import SparsitySpec
from ..workloads.expression import Workload
from .order_trie import OrderingCandidate, TrieStats, enumerate_orderings
from .tiling_tree import TilingStats, enumerate_all_tilings, enumerate_tilings
from .unrolling import (
    UnrollingStats,
    allowed_unroll_dims,
    unroll_candidates,
)

INTRA_LEVEL_ORDERS = (
    "ordering-tiling-unrolling",
    "tiling-unrolling-ordering",
    "unrolling-tiling-ordering",
)


@dataclass(frozen=True)
class SchedulerOptions:
    """Knobs of the Sunstone search.

    The defaults correspond to the paper's configuration: bottom-up,
    ordering -> tiling -> unrolling within a level, alpha-beta pruning on,
    high-throughput (maximal-utilisation) unrolling pruning on.
    """

    objective: str = "edp"  # "edp" or "energy"
    direction: str = "bottom-up"  # or "top-down"
    intra_level_order: str = "ordering-tiling-unrolling"
    alpha_beta: bool = True
    alpha_slack: float = 2.0
    beam_width: int | None = 48
    partial_reuse: bool = True
    utilization_threshold: float = 1.0
    max_unrolled_dims: int = 2
    # Per-step candidate caps (bottom-up sweeps): keep the tilings with the
    # largest footprints (most reuse) and the unrollings with the highest
    # utilisation.  None = unlimited.
    max_tilings_per_step: int | None = 10
    max_unrolls_per_step: int | None = 12
    # Greedy single-factor hill climb around the sweep's winner.
    polish: bool = True
    # When the capped search ends below full spatial utilisation, retry
    # once with widened caps and keep the better result.  Layers that
    # already saturate the array (the common case) never pay for this.
    auto_escalate: bool = True
    # Fingerprint-keyed memoisation of cost results.  Behaviour-preserving:
    # the best mapping and its cost are identical with the cache on or off.
    cache: bool = True
    # Entry cap of the result cache (None = default bound, 0 =
    # unbounded); behaviour-preserving like the cache itself.
    cache_size: int | None = None
    # Optional sparsity spec (repro.sparse) forwarded to every cost-model
    # evaluation.  None keeps the dense model bit-identical; the spec is
    # part of the evaluation-cache key, so dense and sparse searches never
    # exchange results.
    sparsity: SparsitySpec | None = None
    # Deterministic shard of the per-step candidate stream: ``(i, n)``
    # keeps only the candidates whose enumeration index is congruent to
    # ``i`` modulo ``n``.  The ``n`` shards are pairwise disjoint and
    # their union is the full stream, so cooperating processes can split
    # one search without coordination.  None = the whole space.
    shard: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.objective not in ("edp", "energy"):
            raise ValueError(f"unknown objective {self.objective}")
        if self.direction not in ("bottom-up", "top-down"):
            raise ValueError(f"unknown direction {self.direction}")
        if self.intra_level_order not in INTRA_LEVEL_ORDERS:
            raise ValueError(
                f"unknown intra-level order {self.intra_level_order}"
            )
        if self.alpha_slack < 1.0:
            raise ValueError("alpha_slack must be >= 1.0")
        if self.cache_size is not None and self.cache_size < 0:
            raise ValueError("cache_size must be >= 0 (0 = unbounded)")
        check_shard(self.shard)


@dataclass
class SchedulerStats:
    """Search-size and timing accounting (Table I, Table VI, Figs. 6-8)."""

    evaluations: int = 0
    pruned_alpha_beta: int = 0
    pruned_beam: int = 0
    wall_time_s: float = 0.0
    trie: TrieStats = field(default_factory=TrieStats)
    tiling: TilingStats = field(default_factory=TilingStats)
    unrolling: UnrollingStats = field(default_factory=UnrollingStats)
    # The optimality certificate of the phase's winner (docs/MAPSPACE.md).
    bound: BoundStats = field(default_factory=BoundStats)
    # Engine-side telemetry (shared with the engine, which may itself be
    # shared across searches — e.g. the layers of one network).
    search: SearchStats = field(default_factory=SearchStats)


@dataclass
class ScheduleResult(MappingOutcome):
    """Outcome of a scheduling run.

    ``mapping``/``cost`` and the ``found``/``valid``/``edp``/``energy_pj``
    accessors live on the shared :class:`~repro.search.result.MappingOutcome`
    base.
    """

    stats: SchedulerStats
    options: SchedulerOptions


@dataclass(frozen=True)
class _State:
    """A partial schedule.

    ``temporal[i]`` / ``spatial[i]`` hold decided factors per level (empty
    dict when undecided); ``orders[i]`` the decided nest order of level
    ``i``.  ``frontier`` tracks the per-dimension extents still to be
    assigned at the undecided levels.
    """

    temporal: tuple[dict[str, int], ...]
    spatial: tuple[dict[str, int], ...]
    orders: tuple[tuple[str, ...] | None, ...]
    frontier: dict[str, int]
    # Level where residual (undecided) factors are parked when the partial
    # schedule is completed for estimation: the outermost level for
    # bottom-up sweeps, the highest still-undecided level for top-down.
    sink_level: int = -1


def _state_key(state: _State) -> tuple:
    """Canonical, totally ordered identity of a partial schedule's
    decisions.  Used both to deduplicate frontier states and as the
    tie-break when ranking equal-cost candidates, so the winner never
    depends on arrival order."""
    return (
        tuple(tuple(sorted(t.items())) for t in state.temporal),
        tuple(tuple(sorted(s.items())) for s in state.spatial),
        tuple(o if o is not None else () for o in state.orders),
    )


class SunstoneScheduler:
    """Maps a tensor workload onto a spatial accelerator.

    Example::

        scheduler = SunstoneScheduler(conv2d(...), simba_like())
        result = scheduler.schedule()
        print(result.mapping, result.cost.summary())
    """

    def __init__(
        self,
        workload: Workload,
        arch: Architecture,
        options: SchedulerOptions | None = None,
        engine: SearchEngine | None = None,
        journal: CheckpointJournal | None = None,
    ) -> None:
        self.workload = workload
        self.arch = arch
        self.options = options or SchedulerOptions()
        # Frontier states frequently share (base, remaining) at a step, so
        # candidate enumeration is memoised per scheduler instance.
        self._tiling_cache: dict = {}
        self._unroll_cache: dict = {}
        # Growth and unroll dims depend only on an ordering's reused
        # tensors and the level.
        self._growth_memo: dict = {}
        self._allowed_memo: dict = {}
        self._placement = placement_table(workload, arch)
        # Evaluation engine: injected to share a result cache across
        # searches, or built from the options.
        self._engine = resolve_engine(
            engine, cache=self.options.cache,
            partial_reuse=self.options.partial_reuse,
            sparsity=self.options.sparsity,
            cache_size=self.options.cache_size)
        # Optional crash-safe checkpoint journal (docs/SEARCH.md): after
        # every completed sweep step the frontier and running best are
        # persisted, and a journal opened with ``resume=True`` continues
        # the search from the last completed step instead of restarting.
        self._journal = journal

    def _certify(self, stats: SchedulerStats, cost: CostResult) -> None:
        """Record the optimality certificate of a phase's winner: the
        analytic floor of the whole mapping space (which bounds the
        scheduler's restricted space from below too) against the
        winner's value, in ``stats.bound``.  One ``space_bound``
        call per phase; the sweep and the polish never test a bound,
        they evaluate every candidate exactly."""
        bnd = stats.bound
        bnd.lower_bound = BoundModel(
            self.workload, self.arch,
            objective=self.options.objective,
            partial_reuse=self.options.partial_reuse,
            sparsity=self.options.sparsity).space_bound()
        bnd.best_value = (cost.edp if self.options.objective == "edp"
                          else cost.energy_pj)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def schedule(self) -> ScheduleResult:
        """Run the search and return the best mapping found."""
        start = time.perf_counter()
        result = self._run_with_escalation()
        result.stats.wall_time_s = time.perf_counter() - start
        return result

    def _run_one_phase(self, phase: str) -> ScheduleResult:
        """Run one search phase, or restore it from the journal when a
        prior (interrupted) run already completed it.  The restored best
        mapping is *re-evaluated* with the live cost model, so its cost is
        bit-identical to what the uninterrupted run would report."""
        if self._journal is not None:
            done = self._journal.last("phase_done", phase=phase)
            if done is not None:
                return self._restore_phase_result(done)
        result = self._schedule_once(phase=phase)
        if self._journal is not None:
            self._journal.append({
                "type": "phase_done",
                "phase": phase,
                "mapping": (mapping_to_dict(result.mapping)
                            if result.found else None),
                "evaluations": result.stats.evaluations,
            })
            self._journal.save_cache_snapshot(self._engine.cache)
        return result

    def _restore_phase_result(self, entry: dict) -> ScheduleResult:
        stats = SchedulerStats()
        stats.search = self._engine.stats
        stats.evaluations = entry["evaluations"]
        doc = entry.get("mapping")
        if doc is None:
            return ScheduleResult(None, None, stats, self.options)
        mapping = mapping_from_dict(doc)
        cost = self._engine.evaluate(mapping)
        # The certificate is a pure function of the analytic model and
        # the journaled winner, so the restored run reports the same
        # line the uninterrupted one printed.
        self._certify(stats, cost)
        return ScheduleResult(mapping, cost, stats, self.options)

    def _run_with_escalation(self) -> ScheduleResult:
        result = self._run_one_phase("base")
        if (self.options.auto_escalate
                and self.options.beam_width is not None
                and result.found
                and result.cost.utilization < 1.0):
            # The capped search left lanes idle; widen the caps once.
            wide = replace(
                self.options,
                beam_width=max(128, self.options.beam_width * 2),
                max_tilings_per_step=(
                    None if self.options.max_tilings_per_step is None
                    else max(20, self.options.max_tilings_per_step * 2)),
                max_unrolls_per_step=(
                    None if self.options.max_unrolls_per_step is None
                    else max(24, self.options.max_unrolls_per_step * 2)),
                auto_escalate=False,
            )
            retry = SunstoneScheduler(self.workload, self.arch, wide,
                                      engine=self._engine,
                                      journal=self._journal)
            escalated = retry._run_one_phase("wide")
            escalated.stats.evaluations += result.stats.evaluations
            escalated.stats.bound.merge(result.stats.bound)
            if escalated.found:
                def value(r: ScheduleResult) -> float:
                    return (r.edp if self.options.objective == "edp"
                            else r.energy_pj)
                if value(escalated) < value(result):
                    result = escalated
                else:
                    result.stats.evaluations = escalated.stats.evaluations
        return result

    def _schedule_once(self, phase: str = "base") -> ScheduleResult:
        start = time.perf_counter()
        stats = SchedulerStats()
        stats.search = self._engine.stats
        orderings = enumerate_orderings(self.workload, stats=stats.trie)

        if self.options.direction == "bottom-up":
            best = self._sweep(orderings, stats, bottom_up=True, phase=phase)
        else:
            best = self._sweep(orderings, stats, bottom_up=False, phase=phase)

        if best is not None and self.options.polish:
            best = self._polish(best[0], best[1], stats)

        stats.wall_time_s = time.perf_counter() - start
        if best is None:
            return ScheduleResult(None, None, stats, self.options)
        mapping, cost = best
        self._certify(stats, cost)
        return ScheduleResult(mapping, cost, stats, self.options)

    # ------------------------------------------------------------------
    # greedy polish
    # ------------------------------------------------------------------
    def _polish(
        self,
        mapping: Mapping,
        cost: CostResult,
        stats: SchedulerStats,
        max_rounds: int = 24,
    ) -> tuple[Mapping, CostResult]:
        """Hill-climb around the sweep's winner.

        The neighbourhood moves one prime factor of one dimension between
        two *slots*, where a slot is a (kind, level) pair over temporal
        loops and spatial unrollings.  When single moves converge, paired
        exchange moves (evict one dimension's prime from a slot while
        pulling another dimension's prime in) cross the capacity valleys
        single moves cannot.  This recovers tile shapes and lane splits
        that mix the growth dimensions of different orderings — a blind
        spot of the pure per-ordering tiling tree.
        """
        def value_of(result: CostResult) -> float:
            return (result.edp if self.options.objective == "edp"
                    else result.energy_pj)

        num = self.arch.num_levels
        best_mapping, best_cost = mapping, cost
        best_value = value_of(cost)

        def snapshot():
            temporal = [dict(lvl.temporal_factors)
                        for lvl in best_mapping.levels]
            spatial = [dict(lvl.spatial_factors)
                       for lvl in best_mapping.levels]
            orders = [[d for d, _ in lvl.temporal]
                      for lvl in best_mapping.levels]
            return temporal, spatial, orders

        def slots():
            out = [("t", i) for i in range(num)]
            out += [("s", i) for i in range(num)
                    if self.arch.levels[i].fanout > 1]
            return out

        def get(state, kind, level, dim):
            temporal, spatial = state
            store = temporal if kind == "t" else spatial
            return store[level].get(dim, 1)

        def apply(state, changes):
            """changes: list of (kind, level, dim, multiplier-or-divisor)"""
            temporal = [dict(t) for t in state[0]]
            spatial = [dict(s) for s in state[1]]
            for kind, level, dim, p, direction in changes:
                store = temporal if kind == "t" else spatial
                current = store[level].get(dim, 1)
                if direction == "mul":
                    store[level][dim] = current * p
                else:
                    if current % p != 0:
                        return None
                    store[level][dim] = current // p
            return temporal, spatial

        def try_candidate(temporal, spatial, orders) -> bool:
            nonlocal best_mapping, best_cost, best_value
            try:
                candidate = build_mapping(
                    self.workload, self.arch,
                    temporal=[dict(t) for t in temporal],
                    spatial=[dict(s) for s in spatial],
                    orders=orders,
                )
            except MappingError:
                return False
            result = self._engine.evaluate(candidate)
            stats.evaluations += 1
            if result.valid and value_of(result) < best_value:
                best_mapping = candidate
                best_cost = result
                best_value = value_of(result)
                return True
            return False

        all_slots = slots()

        def single_moves(state):
            out = []
            for dim in self.workload.dim_names:
                for src in all_slots:
                    factor = get(state, src[0], src[1], dim)
                    if factor <= 1:
                        continue
                    for p in sorted(set(prime_factors(factor))):
                        for dst in all_slots:
                            if dst == src:
                                continue
                            trial = apply(state, [
                                (src[0], src[1], dim, p, "div"),
                                (dst[0], dst[1], dim, p, "mul"),
                            ])
                            if trial is not None:
                                out.append(trial)
            return out

        def exchange_moves(state):
            out = []
            dims = self.workload.dim_names
            for slot in all_slots:
                for d1 in dims:
                    f1 = get(state, slot[0], slot[1], d1)
                    if f1 <= 1:
                        continue
                    for p1 in sorted(set(prime_factors(f1))):
                        for d2 in dims:
                            if d2 == d1:
                                continue
                            for src in all_slots:
                                if src == slot:
                                    continue
                                f2 = get(state, src[0], src[1], d2)
                                if f2 <= 1:
                                    continue
                                for p2 in sorted(set(prime_factors(f2))):
                                    trial = apply(state, [
                                        (slot[0], slot[1], d1, p1, "div"),
                                        (src[0], src[1], d1, p1, "mul"),
                                        (src[0], src[1], d2, p2, "div"),
                                        (slot[0], slot[1], d2, p2, "mul"),
                                    ])
                                    if trial is not None:
                                        out.append(trial)
            return out

        for _ in range(max_rounds):
            temporal, spatial, orders = snapshot()
            state = (temporal, spatial)
            improved = False
            for trial in single_moves(state):
                if try_candidate(trial[0], trial[1], orders):
                    improved = True
            if not improved:
                for trial in exchange_moves(state):
                    if try_candidate(trial[0], trial[1], orders):
                        improved = True
                        break
            if not improved:
                break
        return best_mapping, best_cost

    # ------------------------------------------------------------------
    # search core
    # ------------------------------------------------------------------
    def _sweep(
        self,
        orderings: Sequence[OrderingCandidate],
        stats: SchedulerStats,
        bottom_up: bool,
        phase: str = "base",
    ) -> tuple[Mapping, CostResult] | None:
        num = self.arch.num_levels
        initial = _State(
            temporal=tuple({} for _ in range(num)),
            spatial=tuple({} for _ in range(num)),
            orders=tuple(None for _ in range(num)),
            frontier=dict(self.workload.dims),
            sink_level=num - 1,
        )
        frontier: list[tuple[float, _State]] = [(float("inf"), initial)]
        steps = list(range(num - 1) if bottom_up else range(num - 2, -1, -1))

        # Every estimated partial is a complete (if possibly suboptimal)
        # mapping, so the best valid one seen anywhere is the answer.
        engine = self._engine
        best: tuple[float, Mapping, CostResult] | None = None

        # Crash recovery: pick the sweep up after the last journaled step.
        # A frontier `_State` is all integers/strings, so it round-trips
        # JSON exactly, and the restored best mapping is re-evaluated so
        # its cost (and every later comparison) is bit-identical to an
        # uninterrupted run.  The journaled *scores* are display-only:
        # the sweep loop never reads a frontier value across steps.
        start_ordinal = 0
        if self._journal is not None:
            restored = self._journal.last("level", phase=phase)
            if restored is not None:
                start_ordinal = restored["step"] + 1
                frontier = [(value, self._state_from_doc(doc))
                            for value, doc in restored["frontier"]]
                stats.evaluations = restored["evaluations"]
                stats.pruned_alpha_beta = restored["pruned_alpha_beta"]
                stats.pruned_beam = restored["pruned_beam"]
                if restored["best"] is not None:
                    mapping = mapping_from_dict(restored["best"])
                    cost = engine.evaluate(mapping)
                    value = (cost.edp if self.options.objective == "edp"
                             else cost.energy_pj)
                    best = (value, mapping, cost)
                if not frontier:
                    # The sweep had already exhausted its frontier.
                    start_ordinal = len(steps)

        for ordinal, level in enumerate(steps):
            if ordinal < start_ordinal:
                continue
            level_start = time.perf_counter()
            scored, best = self._score_step(frontier, level, orderings,
                                            stats, bottom_up, best,
                                            level_start)
            engine.stats.add_level_time(
                self.arch.levels[level].name,
                time.perf_counter() - level_start)
            if not scored:
                frontier = []
                self._journal_level(phase, ordinal, level, frontier,
                                    best, stats)
                break
            remaining_steps = (num - 1 - level) if bottom_up else (level + 1)
            frontier = [
                (value, _State(*self._attach(state, level, decision,
                                             bottom_up)))
                for value, _, (state, decision)
                in self._prune(scored, stats, remaining_steps)]
            self._journal_level(phase, ordinal, level, frontier, best, stats)
        engine.stats.prunes += stats.pruned_alpha_beta + stats.pruned_beam

        if best is not None:
            return best[1], best[2]
        return None

    def _score_step(
        self,
        frontier: list[tuple[float, _State]],
        level: int,
        orderings: Sequence[OrderingCandidate],
        stats: SchedulerStats,
        bottom_up: bool,
        best: tuple[float, Mapping, CostResult] | None,
        level_start: float,
    ) -> tuple[list[tuple[float, tuple, tuple]],
               tuple[float, Mapping, CostResult] | None]:
        """Evaluate one step's children exactly and fold them into the
        running best; returns the scored children ``(value, key,
        (state, decision))``, ``key`` being the child's ``_state_key``,
        and the new best.

        A child is a decision on its parent state.  Children whose
        :meth:`_class_keys` agree share a completion fingerprint, so
        each class stages one cohort row, built from its first member,
        and the whole step is one engine batch; every child still
        counts in ``stats.evaluations``.  The first child to beat the
        running best is always its class's first member, so
        ``materialize`` of its row is exactly that child's mapping.
        """
        engine = self._engine
        rows: list[tuple] = []
        children: list[tuple[int, _State, tuple]] = []
        for _, state in frontier:
            class_key = self._class_keys(state, level) if bottom_up else None
            classes: dict = {}
            for decision in self._children(state, level, orderings, stats,
                                           bottom_up):
                # Top-down children are one class each: the row count
                # is a key no earlier child has.
                key = class_key(decision) if bottom_up else len(rows)
                row = classes.get(key)
                if row is None:
                    row = classes[key] = len(rows)
                    rows.append(self._completion_nests(
                        *self._attach(state, level, decision, bottom_up)))
                children.append((row, state, decision))
        stats.evaluations += len(children)
        cohort = NestCohort.from_nests(self.workload, self.arch, rows)
        engine.stats.add_stage_time(
            "generation", time.perf_counter() - level_start)
        costs = engine.evaluate_cohort(cohort)
        values = [cost.edp if self.options.objective == "edp"
                  else cost.energy_pj for cost in costs]
        ranking_key = self._ranking_keys(level, bottom_up)
        scored: list[tuple[float, tuple, tuple]] = []
        for row, state, decision in children:
            cost = costs[row]
            if not cost.valid and bottom_up:
                # Occupancy only grows as more levels are decided
                # bottom-up, so an invalid completion can never become
                # valid.  Top-down estimates park residual factors at a
                # lower level and may be (transiently) invalid; keep
                # searching through them.
                continue
            value = values[row]
            scored.append((value, ranking_key(state, decision),
                           (state, decision)))
            if cost.valid and (best is None or value < best[0]):
                best = (value, cohort.materialize(row), cost)
        return scored, best

    # ------------------------------------------------------------------
    # checkpoint (de)serialisation
    # ------------------------------------------------------------------
    def _journal_level(
        self,
        phase: str,
        ordinal: int,
        level: int,
        frontier: list[tuple[float, _State]],
        best: tuple[float, Mapping, CostResult] | None,
        stats: SchedulerStats,
    ) -> None:
        """Persist one completed sweep step: the pruned frontier, the
        running best, and the counters a resume must restore."""
        if self._journal is None:
            return
        self._journal.append({
            "type": "level",
            "phase": phase,
            "step": ordinal,
            "level": level,
            "frontier": [[value, self._state_doc(state)]
                         for value, state in frontier],
            "best": mapping_to_dict(best[1]) if best is not None else None,
            "evaluations": stats.evaluations,
            "pruned_alpha_beta": stats.pruned_alpha_beta,
            "pruned_beam": stats.pruned_beam,
        })
        self._journal.save_cache_snapshot(self._engine.cache)

    @staticmethod
    def _state_doc(state: _State) -> dict:
        return {
            "temporal": [dict(t) for t in state.temporal],
            "spatial": [dict(s) for s in state.spatial],
            "orders": [list(o) if o is not None else None
                       for o in state.orders],
            "frontier": dict(state.frontier),
            "sink_level": state.sink_level,
        }

    @staticmethod
    def _state_from_doc(doc: dict) -> _State:
        return _State(
            temporal=tuple(dict(t) for t in doc["temporal"]),
            spatial=tuple(dict(s) for s in doc["spatial"]),
            orders=tuple(tuple(o) if o is not None else None
                         for o in doc["orders"]),
            frontier=dict(doc["frontier"]),
            sink_level=doc["sink_level"],
        )

    def _prune(
        self,
        scored: list[tuple[float, tuple, tuple]],
        stats: SchedulerStats,
        remaining_steps: int = 1,
    ) -> list[tuple[float, tuple, tuple]]:
        """Rank ``(value, key, child)`` items and keep the beam.

        Ranked by estimate with the canonical decision key as tie-break:
        equal-cost candidates are ordered by *what they decide*, never by
        arrival order, so batch/merge order cannot flip the winner."""
        scored.sort(key=itemgetter(0, 1))
        # Deduplicate children that encode identical decisions.
        unique: list[tuple[float, tuple, tuple]] = []
        seen: set = set()
        for item in scored:
            if item[1] in seen:
                continue
            seen.add(item[1])
            unique.append(item)
        scored = unique
        kept = scored
        if self.options.alpha_beta and scored:
            alpha = scored[0][0]
            # Early estimates (many undecided levels) correlate weakly with
            # the final cost; widen the cutoff accordingly, and never cut
            # below the beam width — alpha-beta trims the long tail, the
            # beam keeps the head diverse.
            cutoff = alpha * (self.options.alpha_slack
                              ** max(1, remaining_steps))
            floor = self.options.beam_width or 0
            kept = [item for i, item in enumerate(scored)
                    if i < floor or item[0] <= cutoff]
            stats.pruned_alpha_beta += len(scored) - len(kept)
        if self.options.beam_width is not None:
            if len(kept) > self.options.beam_width:
                stats.pruned_beam += len(kept) - self.options.beam_width
                kept = self._diverse_head(kept, self.options.beam_width)
        return kept

    @staticmethod
    def _diverse_head(
        scored: list[tuple[float, tuple, tuple]],
        width: int,
    ) -> list[tuple[float, tuple, tuple]]:
        """Take the ``width`` best children while preserving decision
        diversity: the single best child of every distinct
        (orders, spatial-unrolling) group is admitted before the remainder
        fills up by score.  Early estimates correlate weakly with final
        cost, so a purely greedy beam tends to flood with near-identical
        siblings and starve the eventually-best unrolling choice."""
        groups: dict = {}
        for item in scored:  # already sorted by score
            _, spatial, orders = item[1]  # the child's _state_key
            groups.setdefault((orders, spatial), item)
        head = sorted(groups.values(), key=itemgetter(0))[:width]
        chosen = {id(item) for item in head}
        for item in scored:
            if len(head) >= width:
                break
            if id(item) not in chosen:
                head.append(item)
                chosen.add(id(item))
        head.sort(key=itemgetter(0))
        return head

    # ------------------------------------------------------------------
    # per-level candidate generation
    # ------------------------------------------------------------------
    def _children(
        self,
        state: _State,
        level: int,
        orderings: Sequence[OrderingCandidate],
        stats: SchedulerStats,
        bottom_up: bool,
    ) -> Iterator[tuple]:
        """One step's ``(ordering, tiling, unrolling)`` decisions on
        ``state``, numbered for the shard by :meth:`_fitting_children`."""
        if bottom_up:
            decisions = self._children_bottom_up(state, level, orderings,
                                                 stats)
        else:
            decisions = self._children_top_down(state, level, orderings,
                                                stats)
        return self._fitting_children(state, level, decisions, bottom_up)

    def _stored_reused(self, order: OrderingCandidate, level: int
                       ) -> frozenset[str]:
        """Reused tensors that the child level actually buffers."""
        return order.reused_tensors & self._placement.stored[level]

    def _growth_dims(self, order: OrderingCandidate, level: int
                     ) -> tuple[str, ...]:
        key = (order.reused_tensors, order.partially_reused_tensors, level)
        dims = self._growth_memo.get(key)
        if dims is None:
            reused = self._stored_reused(order, level)
            if not reused:
                reused = (order.partially_reused_tensors
                          & self._placement.stored[level])
            dims = self.workload.dim_names
            if reused:
                indexing: set[str] = set()
                for name in reused:
                    indexing |= set(self.workload.tensor(name).indexing_dims)
                dims = tuple(d for d in dims if d in indexing)
            self._growth_memo[key] = dims
        return dims

    def _allowed_unroll(self, order: OrderingCandidate, level: int
                        ) -> tuple[str, ...]:
        key = (order.reused_tensors, level)
        dims = self._allowed_memo.get(key)
        if dims is None:
            reused = self._stored_reused(order, level)
            dims = (allowed_unroll_dims(self.workload, reused) if reused
                    else self.workload.dim_names)
            self._allowed_memo[key] = dims
        return dims

    def _unroll_candidates(
        self,
        order: OrderingCandidate,
        level: int,
        fanout: int,
        remaining: dict[str, int],
        stats: SchedulerStats,
    ) -> list[dict[str, int]]:
        """Unrollings per the Spatial Unrolling Principle, with the
        ``augment`` fallback of
        :func:`~repro.core.unrolling.unroll_candidates` (when the
        principled dimension set cannot fill the fanout, the remaining
        dimensions are admitted rather than leaving lanes idle —
        throughput dominates EDP) and the per-step utilisation cap."""
        allowed = self._allowed_unroll(order, level)
        cache_key = (level, fanout, tuple(sorted(remaining.items())), allowed)
        cached = self._unroll_cache.get(cache_key)
        if cached is not None:
            return cached
        unrolls = unroll_candidates(
            self.workload, fanout, remaining, allowed,
            utilization_threshold=self.options.utilization_threshold,
            max_unrolled_dims=self.options.max_unrolled_dims,
            fallback="augment",
            cap=self.options.max_unrolls_per_step,
            stats=stats.unrolling,
        )
        self._unroll_cache[cache_key] = unrolls
        return unrolls

    def _tiling_candidates(
        self,
        level: int,
        base: dict[str, int],
        remaining: dict[str, int],
        growth: Sequence[str],
        stats: SchedulerStats,
    ) -> list[dict[str, int]]:
        """Maximal tiles per the Tiling Principle, capped to the
        frontier's corners plus the largest footprints (the most temporal
        reuse) when the frontier is wide."""
        growth = tuple(growth)
        cache_key = (
            level,
            tuple(sorted(base.items())),
            tuple(sorted(remaining.items())),
            growth,
        )
        cached = self._tiling_cache.get(cache_key)
        if cached is not None:
            return cached
        tilings = enumerate_tilings(
            self.workload, self.arch, level, base, remaining, growth,
            stats=stats.tiling,
        )
        cap = self.options.max_tilings_per_step
        if cap is not None and len(tilings) > cap:
            tilings = cap_tilings_by_footprint(
                tilings, cap, self._placement, base, growth)
        self._tiling_cache[cache_key] = tilings
        return tilings

    def _base_sizes(self, state: _State, level: int) -> dict[str, int]:
        """Cumulative tile span fixed by decided levels below ``level``."""
        sizes = {d: 1 for d in self.workload.dims}
        for i in range(level):
            for d in sizes:
                sizes[d] *= state.temporal[i].get(d, 1)
                sizes[d] *= state.spatial[i].get(d, 1)
        return sizes

    def _fits(self, level: int, base: dict[str, int],
              tiling: dict[str, int], unroll: dict[str, int]) -> bool:
        """Whether a bottom-up (tiling, unrolling) decision at ``level``
        fits on top of the decided spans ``base``.  Bypassed tensors must
        still fit their upstream homes once the boundary's spatial
        factors replicate/partition the tile."""
        sizes = {d: base[d] * tiling.get(d, 1) for d in self.workload.dims}
        return self._placement.fits(level, sizes, unroll)

    def _fitting_children(
        self,
        state: _State,
        level: int,
        decisions: Iterable[tuple[OrderingCandidate, dict[str, int],
                                  dict[str, int]]],
        bottom_up: bool,
    ) -> Iterator[tuple]:
        """Number one step's (ordering, tiling, unrolling) decisions on
        ``state`` for the shard: ``shard=(i, n)`` keeps those whose
        position is congruent to ``i`` mod ``n``.  Top-down, every
        decision is numbered.  Bottom-up, the decisions whose placement
        does not fit are dropped first and only the rest are numbered;
        the verdict does not depend on the ordering, so each distinct
        (tiling, unrolling) pair of objects is tested once (the memo
        holds both, so their ids stay unique)."""
        index, count = self.options.shard or (0, 1)
        if not bottom_up:
            for position, decision in enumerate(decisions):
                if position % count == index:
                    yield decision
            return
        base = self._base_sizes(state, level)
        verdicts: dict[tuple[int, int], tuple] = {}
        position = 0
        for decision in decisions:
            _, tiling, unroll = decision
            pair = (id(tiling), id(unroll))
            verdict = verdicts.get(pair)
            if verdict is None:
                verdict = verdicts[pair] = (
                    tiling, unroll, self._fits(level, base, tiling, unroll))
            if not verdict[2]:
                continue
            if position % count == index:
                yield decision
            position += 1

    def _children_bottom_up(
        self,
        state: _State,
        level: int,
        orderings: Sequence[OrderingCandidate],
        stats: SchedulerStats,
    ) -> Iterator[tuple]:
        """One bottom-up step: every (ordering, tiling, unrolling)
        decision, nested per the configured intra-level order.  Each
        inner candidate list is generated when its outer choice is
        reached, in the exact historical enumeration order."""
        base = self._base_sizes(state, level)
        remaining = dict(state.frontier)
        fanout = self.arch.levels[level].fanout
        mode = self.options.intra_level_order

        def rem_after(factors: dict[str, int]) -> dict[str, int]:
            return {d: remaining[d] // factors.get(d, 1) for d in remaining}

        union_growth = tuple(dict.fromkeys(
            d for order in orderings for d in self._growth_dims(order, level)
        ))
        if mode == "ordering-tiling-unrolling":
            def tilings_for(order: OrderingCandidate) -> list[dict[str, int]]:
                growth = self._growth_dims(order, level)
                tilings = self._tiling_candidates(level, base, remaining,
                                                  growth, stats)
                if set(union_growth) - set(growth):
                    # Mixed-growth tiles (union of all orderings' growth
                    # dimensions) cover solution basins the per-ordering
                    # tree cannot reach; include them as extra candidates.
                    extra = self._tiling_candidates(
                        level, base, remaining, union_growth, stats)
                    seen = {tuple(sorted(t.items())) for t in tilings}
                    tilings = tilings + [
                        t for t in extra
                        if tuple(sorted(t.items())) not in seen
                    ]
                return tilings

            return (
                (order, tiling, unroll)
                for order in orderings
                for tiling in tilings_for(order)
                for unroll in self._unroll_candidates(
                    order, level, fanout, rem_after(tiling), stats)
            )

        union_allowed = tuple(dict.fromkeys(
            d for order in orderings for d in self._allowed_unroll(order, level)
        ))

        def union_unrolls(remaining_now: dict[str, int]
                          ) -> list[dict[str, int]]:
            return unroll_candidates(
                self.workload, fanout, remaining_now, union_allowed,
                utilization_threshold=self.options.utilization_threshold,
                max_unrolled_dims=self.options.max_unrolled_dims,
                stats=stats.unrolling,
            )

        if mode == "tiling-unrolling-ordering":
            tilings = self._tiling_candidates(level, base, remaining,
                                              union_growth, stats)
            return (
                (order, tiling, unroll)
                for tiling in tilings
                for unroll in union_unrolls(rem_after(tiling))
                for order in orderings
            )
        # unrolling-tiling-ordering
        return (
            (order, tiling, unroll)
            for unroll in union_unrolls(remaining)
            for tiling in self._tiling_candidates(
                level, base, rem_after(unroll), union_growth, stats)
            for order in orderings
        )

    def _children_top_down(
        self,
        state: _State,
        level: int,
        orderings: Sequence[OrderingCandidate],
        stats: SchedulerStats,
    ) -> Iterator[tuple]:
        """Top-down step: split the frontier between the levels above
        ``level`` (parent temporal + boundary spatial) and the tile kept at
        ``level`` and below.

        Per ordering, the tiles are every fitting divisor combination
        (:func:`~repro.core.tiling_tree.enumerate_all_tilings`) —
        maximality pruning is unsound going down, since the lower levels
        are undecided and a smaller tile here can enable a better
        lower-level structure; this is why the top-down space is an order
        of magnitude larger (Table VI) — each with the unroll candidates
        of the residual quotient."""
        remaining = dict(state.frontier)
        base = {d: 1 for d in self.workload.dims}
        fanout = self.arch.levels[level].fanout

        def quotient(tiling: dict[str, int]) -> dict[str, int]:
            return {d: remaining[d] // tiling.get(d, 1) for d in remaining}

        return (
            (order, tiling, unroll)
            for order in orderings
            for tiling in enumerate_all_tilings(
                self.workload, self.arch, level, base, remaining,
                stats=stats.tiling, dims=self._growth_dims(order, level))
            for unroll in self._unroll_candidates(
                order, level, fanout, quotient(tiling), stats)
        )

    # ------------------------------------------------------------------
    # children: attach, class keys, ranking keys
    # ------------------------------------------------------------------
    def _attach(self, state: _State, level: int, decision: tuple,
                bottom_up: bool) -> tuple:
        """The fields of the child ``decision`` makes of ``state``, in
        ``_State`` order.  Bottom-up, the decision fixes ``level``'s
        tile and unrolling and the order of ``level + 1`` (and of
        ``level`` itself while undecided); top-down it fixes the parent
        temporal factors above ``level``, the boundary's unrolling and
        the order of ``level + 1``, and keeps the tile as the frontier,
        parked at level 0 for estimation (as in the paper: the estimate
        is far from the final energy, so alpha-beta prunes poorly — the
        Table VI effect)."""
        order, tiling, unroll = decision
        temporal = list(state.temporal)
        spatial = list(state.spatial)
        orders = list(state.orders)
        spatial[level] = dict(unroll)
        orders[level + 1] = order.order
        if bottom_up:
            temporal[level] = dict(tiling)
            if orders[level] is None:
                # The innermost nest order is irrelevant to upper levels;
                # use the same ordering canonically.
                orders[level] = order.order
            frontier = {d: extent // tiling.get(d, 1) // unroll.get(d, 1)
                        for d, extent in state.frontier.items()}
            sink = self.arch.num_levels - 1
        else:
            above = {}
            for d, extent in state.frontier.items():
                factor = extent // tiling.get(d, 1) // unroll.get(d, 1)
                if factor > 1:
                    above[d] = factor
            temporal[level + 1] = {**state.temporal[level + 1], **above}
            frontier = {d: tiling.get(d, 1) for d in state.frontier}
            sink = 0
        return tuple(temporal), tuple(spatial), tuple(orders), frontier, sink

    def _class_keys(self, state: _State, level: int):
        """The class key of each bottom-up child of ``state``: children
        with equal keys have equal completion fingerprints.

        A child's completion keeps the parent's levels below ``level``,
        puts the tile at ``level`` in that level's order, leaves only
        trivial loops up to the top and parks the residual (frontier ÷
        tile ÷ unrolling) at the top, in dim order until the last step
        decides the top's order.  So the key is the nontrivial factors
        of the tile and the unrolling, plus the ordering restricted to
        the tile's nontrivial dims while ``level``'s order is undecided
        (the first step), and restricted to the dims whose residual
        exceeds 1 when ``level + 1`` is the top (the last step)."""
        first = state.orders[level] is None
        last = level + 2 == self.arch.num_levels
        frontier = state.frontier
        pairs: dict[tuple[int, int], tuple] = {}

        def key(decision: tuple) -> tuple:
            order, tiling, unroll = decision
            pair = pairs.get((id(tiling), id(unroll)))
            if pair is None:
                tile = tuple(sorted(
                    (d, f) for d, f in tiling.items() if f > 1))
                lanes = tuple(sorted(
                    (d, f) for d, f in unroll.items() if f > 1))
                residual = frozenset(
                    d for d, extent in frontier.items()
                    if extent // tiling.get(d, 1) // unroll.get(d, 1) > 1)
                pair = pairs[(id(tiling), id(unroll))] = (
                    tiling, unroll, (tile, lanes),
                    frozenset(d for d, _ in tile), residual)
            _, _, parts, tile_dims, residual = pair
            if first:
                parts += (tuple(filter(tile_dims.__contains__,
                                       order.order)),)
            if last:
                parts += (tuple(filter(residual.__contains__,
                                       order.order)),)
            return parts

        return key

    def _ranking_keys(self, level: int, bottom_up: bool):
        """The ranking key of each child of one step: the
        ``_state_key`` of the state :meth:`_attach` would build,
        assembled from the parent's key and the decision.  The sorted
        items of each tiling and unrolling object are memoised for the
        step (the memo holds the object, so its id stays unique)."""
        items_of: dict[int, tuple] = {}
        parents: dict[int, tuple] = {}
        tlevel = level if bottom_up else level + 1

        def items(factors: dict[str, int]) -> tuple:
            entry = items_of.get(id(factors))
            if entry is None:
                entry = items_of[id(factors)] = (
                    factors, tuple(sorted(factors.items())))
            return entry[1]

        def key(state: _State, decision: tuple) -> tuple:
            parent = parents.get(id(state))
            if parent is None:
                temporal, spatial, orders = _state_key(state)
                own = (None if bottom_up and state.orders[level] is None
                       else orders[level])
                parent = parents[id(state)] = (
                    state, temporal[:tlevel], temporal[tlevel + 1:],
                    spatial[:level], spatial[level + 1:],
                    orders[:level], own, orders[level + 2:])
            _, t_low, t_high, s_low, s_high, o_low, own, o_high = parent
            order, tiling, unroll = decision
            if bottom_up:
                tile = items(tiling)
            else:
                tile = tuple(sorted(self._attach(
                    state, level, decision, False)[0][tlevel].items()))
            return (t_low + (tile,) + t_high,
                    s_low + (items(unroll),) + s_high,
                    o_low + (order.order if own is None else own,
                             order.order) + o_high)

        return key

    # ------------------------------------------------------------------
    # completion of a partial schedule
    # ------------------------------------------------------------------
    def _completion_nests(
        self,
        temporal: Sequence[dict[str, int]],
        spatial: Sequence[dict[str, int]],
        orders: Sequence[tuple[str, ...] | None],
        frontier: dict[str, int],
        sink_level: int,
    ) -> tuple[tuple, tuple]:
        """The completed per-level nests of a partial schedule given by
        its ``_State`` fields, without the ``Mapping``: ``(nests,
        spatials)`` where ``nests`` are temporal nest tuples (outermost
        first, trivial factors included; undecided levels in workload dim
        order) and ``spatials`` sorted spatial factor tuples — the exact
        ``LevelMapping`` contents ``build_mapping`` would produce for the
        completion, which ``NestCohort.materialize`` rebuilds
        bit-for-bit.  The completion parks frontier extents at the sink
        level (outermost for bottom-up partials, innermost for top-down)
        and pushes residual factors to the top, mirroring
        ``build_mapping``.
        """
        num = self.arch.num_levels
        temporal = list(temporal)
        parked = dict(temporal[sink_level])
        for d, extent in frontier.items():
            if extent > 1:
                parked[d] = parked.get(d, 1) * extent
        temporal[sink_level] = parked
        covered = dict.fromkeys(self.workload.dims, 1)
        for factors in (*temporal, *spatial):
            for d, f in factors.items():
                covered[d] *= f
        for dim, size in self.workload.dims.items():
            if size % covered[dim] != 0:
                raise MappingError(
                    f"factors of {dim} ({covered[dim]}) do not divide "
                    f"size {size}"
                )
            residual = size // covered[dim]
            if residual > 1:
                top = temporal[num - 1] = dict(temporal[num - 1])
                top[dim] = top.get(dim, 1) * residual
        dim_names = self.workload.dim_names
        nests = []
        spatials = []
        for i in range(num):
            factors = temporal[i]
            order = orders[i] if orders[i] is not None else dim_names
            missing = tuple([d for d in factors if d not in order])
            nests.append(tuple([(d, factors.get(d, 1))
                                for d in order + missing]))
            spatials.append(tuple(sorted(spatial[i].items())))
        return tuple(nests), tuple(spatials)


def schedule(
    workload: Workload,
    arch: Architecture,
    options: SchedulerOptions | None = None,
    engine: SearchEngine | None = None,
    journal: CheckpointJournal | None = None,
) -> ScheduleResult:
    """Convenience wrapper: ``SunstoneScheduler(workload, arch).schedule()``."""
    return SunstoneScheduler(workload, arch, options, engine=engine,
                             journal=journal).schedule()
