"""Job lifecycle: decompose, fan out, merge, persist, resume.

One :class:`JobManager` owns every job the daemon has accepted.  A job
moves through ``queued -> running -> done`` (or ``failed``); its task
parts stream in from the :class:`~repro.serve.fleet.FleetBackend`
(local pool or remote lease fleet) in arbitrary order and are merged
by the canonical, order-independent tie-breaks of
:func:`repro.serve.protocol.merge_job`.

Durability: every accepted job and every completed task part is
appended to a :class:`~repro.search.CheckpointJournal` (CRC-per-line,
fsync'd).  On restart, :meth:`JobManager.resume` rebuilds finished
parts from the journal and re-enqueues only the missing tasks —
because task decomposition is deterministic and parts are stored
JSON-round-tripped, the resumed merge is byte-identical to an
uninterrupted run's.  The shared cache is *not* journaled: it is a
pure accelerator, so losing it costs warm-up, never correctness.

Seeds are taken from the shared cache at **dispatch** time (not
submit), gated by a semaphore sized to the fleet, so a task queued
behind another job's tasks sees everything they admitted.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any

from ..search import CheckpointJournal
from .cache import SharedEvalCache
from .fleet import FleetBackend
from .protocol import (
    decompose_job,
    job_fingerprint,
    merge_job,
    merge_stats,
    normalize_job,
    workload_fingerprints,
)

JOB_STATES = ("queued", "running", "done", "failed")


class QueueFullError(RuntimeError):
    """The bounded task queue is full; the caller should retry later
    (HTTP surface: 429 with a ``Retry-After`` header)."""

    def __init__(self, pending: int, limit: int,
                 retry_after_s: int) -> None:
        super().__init__(f"task queue is full ({pending} task(s) pending, "
                         f"limit {limit}); retry in {retry_after_s}s")
        self.pending = pending
        self.limit = limit
        self.retry_after_s = retry_after_s


def _json_roundtrip(doc: Any) -> Any:
    # Stored and in-memory parts must be the same bytes so a resumed
    # merge reproduces a live merge exactly (JSON floats round-trip).
    return json.loads(json.dumps(doc))


@dataclass
class Job:
    """One accepted job and everything learned about it so far."""

    id: str
    spec: dict
    fingerprint: str
    tasks_total: int
    state: str = "queued"
    parts: dict[int, dict] = field(default_factory=dict)
    result: dict | None = None
    error: str | None = None
    seed_hits: int = 0
    admission: dict = field(default_factory=lambda: {
        "admitted": 0, "duplicates": 0, "evictions": 0})
    submitted_at: float = 0.0
    finished_at: float | None = None
    runner: asyncio.Task | None = None

    def describe(self) -> dict:
        """The ``/jobs`` row."""
        return {
            "id": self.id,
            "kind": self.spec["kind"],
            "fingerprint": self.fingerprint,
            "state": self.state,
            "tasks_total": self.tasks_total,
            "tasks_done": len(self.parts),
            "seed_hits": self.seed_hits,
            "admission": dict(self.admission),
            "error": self.error,
            "wall_time_s": ((self.finished_at or time.monotonic())
                            - self.submitted_at),
        }

    def stats(self) -> dict:
        """The per-job ``/stats`` record: merged ``SearchStats`` plus the
        cache accounting."""
        return {
            "state": self.state,
            "search": merge_stats([p.get("stats") for p in
                                   self.parts.values()]),
            "seed_hits": self.seed_hits,
            "admission": dict(self.admission),
            "tasks_done": len(self.parts),
            "tasks_total": self.tasks_total,
        }


class JobManager:
    """Accepts jobs, drives them through the fleet, merges results."""

    def __init__(self, fleet: FleetBackend, cache: SharedEvalCache,
                 journal: CheckpointJournal | None = None, *,
                 queue_limit: int | None = None) -> None:
        self.fleet = fleet
        self.cache = cache
        self.journal = journal
        self.queue_limit = queue_limit
        self.jobs: dict[str, Job] = {}
        self._seq = 0
        # Seeds are snapshotted at dispatch; gate dispatch to the
        # backend's dispatch width so queued tasks seed late (and warm).
        self._gate = asyncio.Semaphore(fleet.gate_size)

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        self._seq += 1
        return f"j{self._seq:05d}"

    def pending_tasks(self) -> int:
        """Tasks accepted but not yet finished, across live jobs."""
        return sum(job.tasks_total - len(job.parts)
                   for job in self.jobs.values()
                   if job.state in ("queued", "running"))

    def submit(self, spec: dict) -> Job:
        """Validate, persist and start one job (raises
        :class:`~repro.serve.protocol.ProtocolError` on a bad spec,
        :class:`QueueFullError` when the bounded queue is full)."""
        job_doc = normalize_job(spec)
        if self.queue_limit is not None:
            pending = self.pending_tasks()
            if pending >= self.queue_limit:
                # A rough drain estimate: pending tasks over dispatch
                # width, clamped to something a client can sleep on.
                retry = min(60, max(1, round(pending / self.fleet.gate_size)))
                raise QueueFullError(pending, self.queue_limit, retry)
        job = Job(
            id=self._next_id(),
            spec=job_doc,
            fingerprint=job_fingerprint(job_doc),
            tasks_total=len(decompose_job(job_doc)),
            submitted_at=time.monotonic(),
        )
        self.jobs[job.id] = job
        if self.journal is not None:
            self.journal.append({"type": "job", "id": job.id,
                                 "spec": job_doc})
        self._start(job)
        return job

    def _start(self, job: Job) -> None:
        job.state = "running"
        job.runner = asyncio.get_running_loop().create_task(
            self._run_job(job), name=f"serve-{job.id}")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def _run_task(self, job: Job, task: dict) -> None:
        async with self._gate:
            seed = self.cache.seed_for(*workload_fingerprints(task))
            part = await self.fleet.run({
                "job_id": job.id, "task": task, "seed": seed, "attempt": 0,
            })
        grant = self.cache.admit(part.pop("entries", []) or [])
        self.cache.record_seed_hits(part.get("seed_hits", 0))
        stored = _json_roundtrip({
            key: part.get(key)
            for key in ("index", "doc", "stats", "seed_hits", "wall_time_s")
        })
        job.parts[task["index"]] = stored
        job.seed_hits += int(stored.get("seed_hits") or 0)
        for key in job.admission:
            job.admission[key] += grant[key]
        if self.journal is not None:
            self.journal.append({"type": "task", "id": job.id,
                                 "part": stored})

    async def _run_all(self, job: Job, pending: list[dict]) -> None:
        """Run every pending task; on the first failure, cancel and
        await the siblings (TaskGroup semantics) so a dead job cannot
        keep journaling parts or admitting cache entries."""
        loop = asyncio.get_running_loop()
        runners = [loop.create_task(self._run_task(job, task),
                                    name=f"serve-{job.id}-t{task['index']}")
                   for task in pending]
        try:
            await asyncio.gather(*runners)
        except BaseException:
            for runner in runners:
                runner.cancel()
            await asyncio.gather(*runners, return_exceptions=True)
            raise

    async def _run_job(self, job: Job) -> None:
        try:
            tasks = decompose_job(job.spec)
            pending = [t for t in tasks if t["index"] not in job.parts]
            if pending:
                await self._run_all(job, pending)
            job.result = merge_job(job.spec, job.parts)
            job.state = "done"
        except asyncio.CancelledError:
            job.state = "failed"
            job.error = "cancelled"
            raise
        except Exception as error:  # noqa: BLE001 - job isolation barrier
            job.state = "failed"
            job.error = f"{type(error).__name__}: {error}"
            if self.journal is not None:
                self.journal.append({"type": "failed", "id": job.id,
                                     "error": job.error})
        finally:
            job.finished_at = time.monotonic()

    # ------------------------------------------------------------------
    # resume
    # ------------------------------------------------------------------
    def resume(self) -> list[Job]:
        """Rebuild jobs from the journal and restart unfinished ones.

        Call once, inside the running event loop, before serving.
        Returns the jobs that were re-enqueued.
        """
        if self.journal is None:
            return []
        failed = {e["id"] for e in self.journal.all("failed")}
        # One pass over the task entries, indexed by job id — the
        # journal is read O(1) times however many jobs it holds.
        parts_by_job: dict[str, list[dict]] = {}
        for task_entry in self.journal.all("task"):
            parts_by_job.setdefault(task_entry["id"],
                                    []).append(task_entry["part"])
        restarted: list[Job] = []
        for entry in self.journal.all("job"):
            job = Job(
                id=entry["id"],
                spec=entry["spec"],
                fingerprint=job_fingerprint(entry["spec"]),
                tasks_total=len(decompose_job(entry["spec"])),
                submitted_at=time.monotonic(),
            )
            self.jobs[job.id] = job
            self._seq = max(self._seq, int(job.id.lstrip("j") or 0))
            for part in parts_by_job.get(job.id, ()):
                job.parts[part["index"]] = part
                job.seed_hits += int(part.get("seed_hits") or 0)
            if job.id in failed:
                job.state = "failed"
                job.error = "failed before restart"
                job.finished_at = job.submitted_at
                continue
            if len(job.parts) >= job.tasks_total:
                # Every part is journaled: merging is pure, so the
                # result is byte-identical to the pre-restart one.
                job.result = merge_job(job.spec, job.parts)
                job.state = "done"
                job.finished_at = job.submitted_at
                continue
            self._start(job)
            restarted.append(job)
        return restarted

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        return self.jobs.get(job_id)

    def describe_jobs(self) -> list[dict]:
        return [job.describe() for job in self.jobs.values()]

    def stats(self) -> dict:
        return {job.id: job.stats() for job in self.jobs.values()}

    async def drain(self) -> None:
        """Wait for every in-flight job to settle (shutdown path)."""
        runners = [job.runner for job in self.jobs.values()
                   if job.runner is not None and not job.runner.done()]
        if runners:
            await asyncio.gather(*runners, return_exceptions=True)
