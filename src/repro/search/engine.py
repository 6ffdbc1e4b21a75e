"""Parallel, memoized evaluation of mapping candidates.

The :class:`SearchEngine` is the single funnel through which the Sunstone
scheduler and every baseline mapper run the cost model.  Every request —
one ``Mapping``, a list of them, or a generated
:class:`~repro.mapspace.batch.Cohort` — goes through one body:

* **memoisation** — each row is fingerprinted and looked up in an
  :class:`EvalCache` keyed on the canonical mapping fingerprint, and
  in-batch duplicates are evaluated once, so re-evaluating an
  identically-shaped candidate (within a level sweep, across the
  escalation retry, or across the layers of a network) is free;
* **vectorisation** — with numpy, the cache misses of a cohort of at
  least :data:`~repro.model.batch.MIN_BATCH` rows run through
  :meth:`Cohort.evaluate_rows <repro.mapspace.batch.Cohort.evaluate_rows>`
  (numpy array rollups); smaller ones run the scalar model in-process;
* **parallelism** — without numpy, batches of cache misses fan out over
  a ``ProcessPoolExecutor`` in deterministic chunks and merge back in
  submission order, so the downstream argmin sees candidates in exactly
  the order the serial path would.

``workers=1`` (the default) never touches multiprocessing, which keeps
tests, coverage and debugging identical to a direct ``evaluate()`` call.
The determinism guarantee — same best mapping, same
``energy_pj``/``cycles`` for every (workers, cache) configuration, with
or without numpy — is pinned by ``tests/test_search_engine.py`` and
``tests/test_model_batch.py``; docs/PERF.md walks the full pipeline.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from contextlib import contextmanager
from typing import Iterator, Sequence

from .. import optional_numpy
from ..mapping.mapping import Mapping
from ..mapspace.batch import Cohort
from ..model.batch import MIN_BATCH, stage_mappings
from ..model.cost import CostResult, evaluate
from ..sparse.spec import SparsitySpec
from .cache import EvalCache
from .faults import FaultPlan, InjectedFault, plan_from_env, trip_chunk_fault
from .fingerprint import (
    Fingerprint,
    architecture_fingerprint,
    mapping_fingerprint,
    workload_fingerprint,
)
from .stats import SearchStats

# A chunk gets at most this many pool attempts before its evaluation
# falls back in-process (where injected faults no longer apply, so the
# retry either succeeds or surfaces the genuine model error).
_MAX_CHUNK_ATTEMPTS = 2
# In-process evaluation retries after an injected fault before giving up.
_MAX_EVAL_RETRIES = 3


def _evaluate_chunk(
    payload: tuple[list[Mapping], bool, SparsitySpec | None, str | None],
) -> list[CostResult]:
    """Top-level worker so process pools can pickle it."""
    mappings, partial_reuse, sparsity, fault = payload
    trip_chunk_fault(fault)
    return [evaluate(m, partial_reuse=partial_reuse, sparsity=sparsity)
            for m in mappings]


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
    """Memoized, optionally parallel ``evaluate()`` frontend.

    Parameters
    ----------
    workers:
        Process count for batch evaluation without numpy.  ``1`` stays
        fully in-process; higher values lazily spawn a pool that is
        reused across batches until :meth:`close`.  With numpy the
        vectorised model replaces the pool.
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
    chunk_timeout:
        Per-chunk wall-clock budget (seconds) for pooled evaluation.
        A chunk that exceeds it is declared lost: the pool is rebuilt
        (the stuck worker is abandoned) and the chunk re-submitted.
        ``None`` (default) waits indefinitely.
    fault_plan:
        Optional :class:`~repro.search.faults.FaultPlan` injecting
        deterministic worker crashes / chunk timeouts / evaluation
        exceptions for the regression suite.  Defaults to the
        ``REPRO_FAULTS`` environment hook (usually unset).
    max_pool_rebuilds:
        Pool rebuilds allowed per ``evaluate_many`` batch before the
        engine degrades to in-process evaluation for the remaining
        chunks (and permanently to ``workers=1``); results are
        bit-identical either way, and every recovery event is counted
        in ``stats.faults``.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: EvalCache | bool = True,
        partial_reuse: bool = True,
        chunk_size: int = 64,
        sparsity: SparsitySpec | None = None,
        cache_size: int | None = None,
        chunk_timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
        max_pool_rebuilds: int = 1,
        rebuild_backoff_s: float = 0.05,
        clamp_workers: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if cache_size is not None and cache_size < 0:
            raise ValueError("cache_size must be >= 0 (0 = unbounded)")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be > 0 or None")
        if max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        self.workers = workers
        # Evaluation is CPU-bound pure Python: a pool wider than the
        # physical core count only adds pickling overhead, so the pool
        # (and the serial-vs-parallel crossover) is sized by this clamp.
        # ``clamp_workers=False`` keeps the requested width even on
        # narrow machines — the fault-recovery tests need a real pool
        # regardless of the host's core count.
        if clamp_workers:
            self._effective_workers = min(workers, os.cpu_count() or 1)
        else:
            self._effective_workers = workers
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
        self.chunk_size = chunk_size
        self.stats = SearchStats(workers=self._effective_workers)
        self.chunk_timeout = chunk_timeout
        self.max_pool_rebuilds = max_pool_rebuilds
        self.rebuild_backoff_s = rebuild_backoff_s
        # Capped exponential backoff between pool rebuilds.
        self.rebuild_backoff_cap_s = 2.0
        self._fault_plan = fault_plan if fault_plan is not None \
            else plan_from_env()
        # Deterministic dispatch-site counters for fault injection:
        # pooled chunk dispatches and in-process evaluation calls.
        self._chunk_site = 0
        self._eval_site = 0
        self._pool: ProcessPoolExecutor | None = None
        # Workload/architecture fingerprints are invariant across the
        # thousands of candidates of one search; memoise them by object
        # identity (the referenced objects are kept alive by the entry).
        self._invariant_fps: dict[int, tuple[object, Fingerprint]] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool (idempotent).

        Pending chunks are cancelled so an interrupted search (Ctrl-C
        mid-batch) never pins the interpreter waiting on queued work.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "SearchEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _degrade_to_serial(self) -> None:
        """Give up on process parallelism for the rest of this engine's
        life; record the event so ``--stats-json`` consumers can tell a
        requested-parallel-but-serial run from a genuine ``workers=1``
        run."""
        self.workers = 1
        self._effective_workers = 1
        self.stats.workers = 1
        self.stats.faults.degraded_serial = True

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self._effective_workers == 1:
            return None
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self._effective_workers)
            except (OSError, ValueError):
                # Restricted environments (no /dev/shm, no fork) fall
                # back to in-process evaluation; results are identical.
                self._degrade_to_serial()
        return self._pool

    def _abort_pool(self) -> None:
        """Tear down the pool without waiting on stuck/broken workers."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _rebuild_pool(self, rebuild_index: int) -> ProcessPoolExecutor | None:
        """Replace a broken/stuck pool, or ``None`` once the per-batch
        rebuild budget is exhausted (the engine then degrades to
        in-process evaluation, bit-identically)."""
        self._abort_pool()
        if rebuild_index >= self.max_pool_rebuilds:
            self._degrade_to_serial()
            return None
        delay = min(self.rebuild_backoff_s * (2 ** rebuild_index),
                    self.rebuild_backoff_cap_s)
        if delay > 0:
            time.sleep(delay)
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=self._effective_workers)
        except (OSError, ValueError):
            self._degrade_to_serial()
            return None
        self.stats.faults.pool_rebuilds += 1
        return self._pool

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
        fingerprints are evaluated once (vectorised, pooled or scalar,
        see :meth:`_run`) and merged back in row order.  A ``single``
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
        numpy, else over the process pool, else the scalar model
        in-process."""
        if not indices:
            return []
        stats = self.stats
        start = time.perf_counter()
        vectorised = optional_numpy.np is not None
        if vectorised and len(indices) >= MIN_BATCH:
            results = cohort.evaluate_rows(indices, self.partial_reuse,
                                           self.sparsity)
            if results is not None:
                stats.add_stage_time("model", time.perf_counter() - start)
                stats.batched_evaluations += len(indices)
                return results
        mappings = [cohort.materialize(i) for i in indices]
        workers = self._effective_workers
        pool = None
        if not vectorised and workers > 1 and len(mappings) >= 2 * workers:
            pool = self._ensure_pool()  # None: creation failed, serial
        if pool is None:
            results = [self._model_eval(m) for m in mappings]
            stats.add_stage_time("model", time.perf_counter() - start)
            return results
        try:
            results = self._run_pooled(pool, mappings)
        except KeyboardInterrupt:
            # Don't let queued chunks pin the interpreter on Ctrl-C;
            # engine_scope's cleanup will find the pool already gone.
            self._abort_pool()
            raise
        stats.add_stage_time("pool", time.perf_counter() - start)
        return results

    def _model_eval(self, mapping: Mapping) -> CostResult:
        """One in-process cost-model call, surviving injected faults.

        An :class:`InjectedFault` from the fault plan is retried in
        place (counted in ``stats.faults``); the model itself is pure,
        so a retry is bit-identical to an undisturbed call.
        """
        plan = self._fault_plan
        if plan is None:
            return evaluate(mapping, partial_reuse=self.partial_reuse,
                            sparsity=self.sparsity)
        site = self._eval_site
        self._eval_site += 1
        attempt = 0
        while True:
            try:
                plan.check_eval(site, attempt)
                return evaluate(mapping, partial_reuse=self.partial_reuse,
                                sparsity=self.sparsity)
            except InjectedFault:
                self.stats.faults.injected += 1
                attempt += 1
                if attempt > _MAX_EVAL_RETRIES:
                    raise
                self.stats.faults.retries += 1

    def _eval_chunk_inline(self, chunk: list[Mapping]) -> list[CostResult]:
        """In-process fallback for a chunk the pool lost; bit-identical
        to what the worker would have returned (the model is pure)."""
        return [evaluate(m, partial_reuse=self.partial_reuse,
                         sparsity=self.sparsity)
                for m in chunk]

    def _run_pooled(
        self, pool: ProcessPoolExecutor, mappings: list[Mapping],
    ) -> list[CostResult]:
        """Fan chunks over the pool, surviving worker crashes, chunk
        timeouts and evaluation exceptions.

        A ``BrokenProcessPool`` or a per-chunk timeout rebuilds the
        pool (capped backoff, at most ``max_pool_rebuilds`` per batch)
        and re-submits only the chunks that never completed; once the
        budget is exhausted — or a chunk keeps failing — the remaining
        chunks are evaluated in-process.  Results are merged by chunk
        index, so the returned list is bit-identical to the serial
        path no matter which recovery branches fired.
        """
        chunk = min(self.chunk_size,
                    math.ceil(len(mappings) / self._effective_workers))
        chunks = [mappings[i:i + chunk]
                  for i in range(0, len(mappings), chunk)]
        sites = list(range(self._chunk_site, self._chunk_site + len(chunks)))
        self._chunk_site += len(chunks)
        results: list[list[CostResult] | None] = [None] * len(chunks)
        attempts = [0] * len(chunks)
        pending = list(range(len(chunks)))
        faults = self.stats.faults
        rebuilds = 0
        while pending:
            pool_batch = []
            for i in pending:
                if pool is None or attempts[i] >= _MAX_CHUNK_ATTEMPTS:
                    results[i] = self._eval_chunk_inline(chunks[i])
                    faults.degraded_chunks += 1
                else:
                    pool_batch.append(i)
            if not pool_batch:
                break
            futures = {}
            lost: list[int] = []
            pool_broken = False
            for i in pool_batch:
                fault = None
                if self._fault_plan is not None:
                    fault = self._fault_plan.chunk_fault(sites[i],
                                                         attempts[i])
                if fault is not None:
                    faults.injected += 1
                if fault == "timeout":
                    # Dispatch-layer stand-in for a hung worker: the
                    # chunk is lost without waiting, and the pool must
                    # be reclaimed just as for a wall-clock expiry.
                    faults.chunk_timeouts += 1
                    attempts[i] += 1
                    lost.append(i)
                    pool_broken = True
                    continue
                futures[i] = pool.submit(
                    _evaluate_chunk,
                    (chunks[i], self.partial_reuse, self.sparsity, fault))
            for i, future in futures.items():
                try:
                    results[i] = future.result(timeout=self.chunk_timeout)
                except InjectedFault:
                    attempts[i] += 1
                    lost.append(i)
                except FuturesTimeout:
                    faults.chunk_timeouts += 1
                    attempts[i] += 1
                    lost.append(i)
                    pool_broken = True
                except BrokenExecutor:
                    # One crash breaks every outstanding future; count
                    # the event once, not once per affected chunk.
                    if not pool_broken:
                        faults.crashes_recovered += 1
                    attempts[i] += 1
                    lost.append(i)
                    pool_broken = True
                except Exception:
                    # A genuine evaluation error: skip straight to the
                    # in-process retry, which surfaces it undisturbed.
                    attempts[i] = _MAX_CHUNK_ATTEMPTS
                    lost.append(i)
            faults.retries += len(lost)
            if pool_broken:
                pool = self._rebuild_pool(rebuilds)
                rebuilds += 1
            pending = sorted(lost)
        flat: list[CostResult] = []
        for part in results:
            flat.extend(part)  # type: ignore[arg-type]
        return flat


def resolve_engine(
    engine: SearchEngine | None,
    workers: int,
    cache: bool,
    partial_reuse: bool,
    sparsity: SparsitySpec | None = None,
    cache_size: int | None = None,
) -> tuple[SearchEngine, bool]:
    """Return (engine, owns_it): reuse an injected engine or build one."""
    if engine is not None:
        return engine, False
    return SearchEngine(workers=workers, cache=cache,
                        partial_reuse=partial_reuse,
                        sparsity=sparsity, cache_size=cache_size), True


@contextmanager
def engine_scope(
    engine: SearchEngine | None,
    workers: int = 1,
    cache: bool = True,
    partial_reuse: bool = True,
    sparsity: SparsitySpec | None = None,
    cache_size: int | None = None,
) -> Iterator[SearchEngine]:
    """Engine lifecycle as a context manager: reuse an injected engine
    (left open for its owner) or build one and close it on exit, even on
    error.  ``engine.stats`` remains readable after close."""
    resolved, owns = resolve_engine(engine, workers, cache, partial_reuse,
                                    sparsity, cache_size)
    try:
        yield resolved
    finally:
        if owns:
            resolved.close()
