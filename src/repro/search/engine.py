"""Memoized, vectorised evaluation of mapping candidates.

The :class:`SearchEngine` is the single funnel through which the Sunstone
scheduler and every baseline mapper run the cost model.  Every request —
one ``Mapping``, a list of them, or a generated
:class:`~repro.mapspace.batch.Cohort` — goes through one in-process body:

* **memoisation** — each row is fingerprinted and looked up in an
  :class:`EvalCache` keyed on the canonical mapping fingerprint, and
  in-batch duplicates are evaluated once, so re-evaluating an
  identically-shaped candidate (within a level sweep, across the
  escalation retry, or across the layers of a network) is free;
* **vectorisation** — with numpy, the cache misses of a cohort of at
  least :data:`~repro.model.batch.MIN_BATCH` rows run through
  :meth:`Cohort.evaluate_rows <repro.mapspace.batch.Cohort.evaluate_rows>`
  (numpy array rollups); smaller ones, and every miss without numpy,
  run the scalar model.

The determinism guarantee — same best mapping, same
``energy_pj``/``cycles`` with the cache on or off, with or without
numpy — is pinned by ``tests/test_search_engine.py`` and
``tests/test_model_batch.py``; docs/PERF.md walks the full pipeline.
Process parallelism lives above the engine: ``network --processes``
and the serve daemon's fleets.
"""

from __future__ import annotations

import time
from typing import Iterator, Sequence

from .. import optional_numpy
from ..mapping.mapping import Mapping
from ..mapspace.batch import Cohort
from ..model.batch import MIN_BATCH, stage_mappings
from ..model.cost import CostResult, evaluate
from ..sparse.spec import SparsitySpec
from .cache import EvalCache
from .fingerprint import (
    Fingerprint,
    architecture_fingerprint,
    mapping_fingerprint,
    workload_fingerprint,
)
from .stats import SearchStats


class _MappingCohort(Cohort):
    """Ready-made ``Mapping`` objects seen as a cohort.

    Rows are staged by :func:`~repro.model.batch.stage_mappings` on the
    first mapping's workload and architecture, the rule
    :func:`~repro.model.batch.evaluate_batch` applies too: a list mixing
    workloads or architectures has no geometry and runs the scalar model.
    """

    def __init__(self, mappings: Sequence[Mapping]) -> None:
        self.mappings = mappings
        first = mappings[0] if mappings else None
        self.workload = first.workload if first is not None else None
        self.arch = first.arch if first is not None else None

    def __len__(self) -> int:
        return len(self.mappings)

    def materialize(self, i: int) -> Mapping:
        return self.mappings[i]

    def geometry(self, indices: Sequence[int] | None = None):
        rows = self.mappings
        if indices is not None:
            rows = [rows[i] for i in indices]
        return stage_mappings(self.workload, self.arch, rows)


class SearchEngine:
    """Memoized, in-process ``evaluate()`` frontend.

    Parameters
    ----------
    cache:
        ``True`` (default) builds a fresh :class:`EvalCache`, ``False``
        disables memoisation, or pass an existing cache to share it
        across searches (e.g. the layers of one network).
    partial_reuse:
        Forwarded to :func:`repro.model.cost.evaluate`; it is part of
        the cache key, so engines with different settings never share
        results even when handed the same cache object.
    sparsity:
        Optional :class:`~repro.sparse.spec.SparsitySpec` forwarded to
        every evaluation.  Like ``partial_reuse`` it is part of the
        cache key: a dense engine and a sparse engine can share one
        cache object without ever exchanging results.
    cache_size:
        Entry cap of the result :class:`EvalCache`.  ``None`` keeps the
        cache's default bound; ``0`` means unbounded.  Ignored when an
        existing ``EvalCache`` object is passed.
    """

    def __init__(
        self,
        cache: EvalCache | bool = True,
        partial_reuse: bool = True,
        sparsity: SparsitySpec | None = None,
        cache_size: int | None = None,
    ) -> None:
        if cache_size is not None and cache_size < 0:
            raise ValueError("cache_size must be >= 0 (0 = unbounded)")
        if cache is True:
            if cache_size is None:
                cache = EvalCache()
            else:
                cache = EvalCache(max_entries=cache_size)
        elif cache is False:
            cache = None
        self.cache: EvalCache | None = cache
        self.partial_reuse = partial_reuse
        self.sparsity = sparsity
        self.stats = SearchStats()
        # Workload/architecture fingerprints are invariant across the
        # thousands of candidates of one search; memoise them by object
        # identity (the referenced objects are kept alive by the entry).
        self._invariant_fps: dict[int, tuple[object, Fingerprint]] = {}

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _invariant_fps_of(self, workload, arch) -> tuple:
        """(workload, architecture) fingerprints, memoised by object
        identity: they are invariant across the thousands of candidates
        of one search (each entry keeps its object alive)."""
        memo = self._invariant_fps
        wl = memo.get(id(workload))
        if wl is None or wl[0] is not workload:
            wl = memo[id(workload)] = (workload,
                                       workload_fingerprint(workload))
        hw = memo.get(id(arch))
        if hw is None or hw[0] is not arch:
            hw = memo[id(arch)] = (arch, architecture_fingerprint(arch))
        return wl[1], hw[1]

    def fingerprint(self, mapping: Mapping) -> Fingerprint:
        """Cache key of ``mapping`` under this engine's settings."""
        wl_fp, arch_fp = self._invariant_fps_of(mapping.workload,
                                                mapping.arch)
        return mapping_fingerprint(
            mapping, self.partial_reuse, workload_fp=wl_fp, arch_fp=arch_fp,
            sparsity=self.sparsity)

    def _fingerprints(self, cohort: Cohort) -> Iterator[Fingerprint]:
        """Cache key of every cohort row, in order — for generated
        cohorts the same tuple ``fingerprint(cohort.materialize(i))``
        would build, taken from the cohort's geometry without a
        ``Mapping``."""
        if isinstance(cohort, _MappingCohort):
            return map(self.fingerprint, cohort.mappings)
        wl_fp, arch_fp = self._invariant_fps_of(cohort.workload,
                                                cohort.arch)
        levels = cohort.fingerprint_levels
        partial_reuse = bool(self.partial_reuse)
        return ((wl_fp, arch_fp, levels(i), partial_reuse, self.sparsity)
                for i in range(len(cohort)))

    def evaluate(self, mapping: Mapping) -> CostResult:
        """Evaluate one mapping, through the cache, in-process."""
        return self._evaluate(_MappingCohort((mapping,)), single=True)[0]

    def evaluate_many(
        self, mappings: Sequence[Mapping],
    ) -> list[CostResult]:
        """Evaluate a list of mappings; results align by index and are
        bit-identical to ``[evaluate(m) for m in mappings]``."""
        return self._evaluate(_MappingCohort(mappings))

    def evaluate_cohort(self, cohort: Cohort) -> list[CostResult]:
        """Evaluate a :class:`repro.mapspace.batch.Cohort`; ``Mapping``
        objects are only built on the scalar path."""
        return self._evaluate(cohort)

    def _evaluate(self, cohort: Cohort,
                  single: bool = False) -> list[CostResult]:
        """The one evaluation body behind the public entry points.

        Cache hits are served directly; the remaining distinct
        fingerprints are evaluated once (vectorised or scalar, see
        :meth:`_run`) and merged back in row order.  A ``single``
        request (:meth:`evaluate`) is not counted as a batch.
        """
        start = time.perf_counter()
        stats = self.stats
        n = len(cohort)
        cache = self.cache
        if cache is None:
            results = self._run(cohort, list(range(n)))
            stats.evaluations += n
        else:
            results: list[CostResult | None] = [None] * n
            todo: list[int] = []
            todo_keys: list[Fingerprint] = []
            waiters: dict[Fingerprint, list[int]] = {}
            for i, key in enumerate(self._fingerprints(cohort)):
                pending = waiters.get(key)
                if pending is not None:
                    pending.append(i)
                    continue
                cached = cache.get(key)
                if cached is not None:
                    results[i] = cached
                    stats.cache_hits += 1
                    continue
                waiters[key] = [i]
                todo.append(i)
                todo_keys.append(key)
            stats.add_stage_time("cache", time.perf_counter() - start)

            fresh = self._run(cohort, todo)
            stats.evaluations += len(todo)
            stats.cache_misses += len(todo)
            cache_start = time.perf_counter()
            for key, result in zip(todo_keys, fresh):
                cache.put(key, result)
                indices = waiters[key]
                for j in indices:
                    results[j] = result
                # Later duplicates of an in-batch miss are served without
                # a fresh evaluation: count them as hits.
                stats.cache_hits += len(indices) - 1
            stats.cache_evictions = cache.evictions
            stats.add_stage_time("cache",
                                 time.perf_counter() - cache_start)
        if not single:
            stats.batches += 1
            stats.wall_time_s += time.perf_counter() - start
        return results  # type: ignore[return-value]

    def _run(self, cohort: Cohort, indices: list[int]) -> list[CostResult]:
        """Evaluate the selected rows preserving order: vectorised with
        numpy, else the scalar model."""
        if not indices:
            return []
        stats = self.stats
        start = time.perf_counter()
        if optional_numpy.np is not None and len(indices) >= MIN_BATCH:
            results = cohort.evaluate_rows(indices, self.partial_reuse,
                                           self.sparsity)
            if results is not None:
                stats.add_stage_time("model", time.perf_counter() - start)
                stats.batched_evaluations += len(indices)
                return results
        results = [evaluate(cohort.materialize(i),
                            partial_reuse=self.partial_reuse,
                            sparsity=self.sparsity)
                   for i in indices]
        stats.add_stage_time("model", time.perf_counter() - start)
        return results


def resolve_engine(
    engine: SearchEngine | None,
    cache: bool,
    partial_reuse: bool,
    sparsity: SparsitySpec | None = None,
    cache_size: int | None = None,
) -> SearchEngine:
    """Reuse an injected engine, or build one from the search's options."""
    if engine is not None:
        return engine
    return SearchEngine(cache=cache, partial_reuse=partial_reuse,
                        sparsity=sparsity, cache_size=cache_size)
