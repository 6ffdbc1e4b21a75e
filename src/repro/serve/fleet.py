"""Fleet backends for the serve daemon.

:class:`FleetBackend` is the contract the :class:`JobManager` drives:
``run(payload) -> part`` executes one self-contained task document and
returns its mergeable part, ``stats()`` snapshots health counters,
``close()`` releases resources.  Two implementations exist:

* :class:`WorkerFleet` (here) — the local ``ProcessPoolExecutor`` pool
  (docs/SERVE_API.md, "Decomposition and fan-out"): a worker death
  surfaces as ``BrokenExecutor`` on the awaiting task, the pool is
  rebuilt exactly once per break (a generation counter keeps concurrent
  awaiters from stampeding), and the lost task is re-submitted.
  Because :func:`repro.serve.tasks.run_task` is a pure function of its
  payload, the retry is bit-identical to the run that died.  After the
  attempt budget the task degrades to an in-process run so the job
  still completes (counted, and reported via ``/stats``).  Pool
  workers run :func:`repro.procpool.watch_parent`, so they exit once
  the daemon (or worker agent) that owns them is gone.
* :class:`~repro.serve.remote.RemoteFleet` — lease-based fan-out to
  ``repro worker`` processes on other hosts (docs/SERVE_API.md,
  "Remote worker fleets").

``workers=0`` runs everything in-process (no pool) — the deterministic
mode the unit tests use.
"""

from __future__ import annotations

import abc
import asyncio
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

from ..procpool import watch_parent
from .tasks import run_task


class FleetBackend(abc.ABC):
    """What the :class:`~repro.serve.jobs.JobManager` needs from a
    fleet: execute payloads, report health, shut down."""

    #: Nominal parallelism, for display (``/healthz``).
    workers: int = 0

    @property
    def gate_size(self) -> int:
        """How many tasks the manager should dispatch (and therefore
        seed) concurrently.  Local fleets gate to their real
        parallelism so queued tasks seed late — and warm."""
        return max(1, self.workers)

    @abc.abstractmethod
    async def run(self, payload: dict) -> dict:
        """Execute one task payload and return its part document."""

    @abc.abstractmethod
    def stats(self) -> dict:
        """JSON-ready health counters for ``/stats``."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release the backend's resources (idempotent)."""


class WorkerFleet(FleetBackend):
    """Owns the local worker pool; ``run`` survives worker deaths.

    Counter discipline: ``stats()`` reads under ``_lock``, so every
    counter write takes the same lock — ``run`` is called from many
    concurrent manager tasks and unlocked ``+= 1`` increments can lose
    updates under free-threaded interleavings.
    """

    def __init__(self, workers: int = 1, *, max_task_attempts: int = 3,
                 rebuild_backoff_s: float = 0.05) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = in-process)")
        if max_task_attempts < 1:
            raise ValueError("max_task_attempts must be >= 1")
        self.workers = workers
        self.max_task_attempts = max_task_attempts
        self.rebuild_backoff_s = rebuild_backoff_s
        self._lock = threading.Lock()
        self._generation = 0
        self._closed = False
        self._pool: ProcessPoolExecutor | None = (
            self._new_pool() if workers else None)
        self.tasks_run = 0
        self.crashes_recovered = 0
        self.retries = 0
        self.pool_rebuilds = 0
        self.degraded_tasks = 0

    # ------------------------------------------------------------------
    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers,
                                   initializer=watch_parent)

    def _count(self, counter: str, delta: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + delta)

    def _rebuild(self, seen_generation: int) -> None:
        """Replace a broken pool (once per break: later callers that saw
        the same generation find it already bumped and do nothing)."""
        old = None
        with self._lock:
            if self._closed or not self.workers:
                return
            if self._generation != seen_generation:
                return
            old = self._pool
            self._pool = self._new_pool()
            self._generation += 1
            self.pool_rebuilds += 1
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)

    async def _run_inline(self, payload: dict) -> dict:
        part = await asyncio.to_thread(run_task, payload)
        self._count("tasks_run")
        return part

    async def run(self, payload: dict) -> dict:
        """Execute one task payload; retries only pool breakage.

        A deterministic task error (bad document, model bug) propagates
        immediately — retrying it would fail identically.
        """
        if self._closed:
            raise RuntimeError("fleet is closed")
        if not self.workers:
            return await self._run_inline(payload)
        for attempt in range(self.max_task_attempts):
            if attempt:
                self._count("retries")
            with self._lock:
                pool, generation = self._pool, self._generation
            try:
                future = pool.submit(run_task, dict(payload, attempt=attempt))
                try:
                    part = await asyncio.wrap_future(future)
                except asyncio.CancelledError:
                    # The awaiting manager task was cancelled (job
                    # failure or daemon shutdown): abandoning the pool
                    # future would leave the worker grinding on — and
                    # journaling nothing — so cancel it explicitly.  A
                    # queued work item dies here; a running one finishes
                    # and is discarded by the pool.
                    future.cancel()
                    raise
                self._count("tasks_run")
                return part
            except BrokenExecutor:
                self._count("crashes_recovered")
                self._rebuild(generation)
                await asyncio.sleep(self.rebuild_backoff_s * (attempt + 1))
        # Attempt budget exhausted: the pool keeps breaking on this
        # task.  Run it in-process so the job completes (bit-identical;
        # the daemon just loses parallelism for this one task).
        self._count("degraded_tasks")
        return await self._run_inline(
            dict(payload, attempt=self.max_task_attempts))

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "backend": "local",
                "workers": self.workers,
                "generation": self._generation,
                "tasks_run": self.tasks_run,
                "crashes_recovered": self.crashes_recovered,
                "retries": self.retries,
                "pool_rebuilds": self.pool_rebuilds,
                "degraded_tasks": self.degraded_tasks,
            }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
