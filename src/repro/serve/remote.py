"""Remote worker fleets: lease-based fan-out over the HTTP surface.

The daemon side (:class:`RemoteFleet`) and the worker side
(:func:`run_worker`, the ``repro worker`` command) of multi-host serve
(docs/SERVE_API.md, "Remote worker fleets").  The protocol is four
endpoints on the existing daemon:

``POST /register``   ``{"name", "slots"}`` -> ``{"worker", "lease_ttl_s"}``
``POST /lease``      long-poll for work: ``{"worker"}`` ->
                     ``{"lease", "payload"}`` (``lease: null`` when the
                     poll window closes empty)
``POST /heartbeat``  ``{"worker"}`` -> ``{"ok", "leases"}`` — renews
                     every lease the worker holds
``POST /parts``      ``{"worker", "lease", "part"|"error"}`` ->
                     ``{"accepted": bool}`` (400, and the task failed,
                     when the part does not decode)

Correctness contract: a lease that is not renewed within
``lease_ttl_s`` is **fenced** — removed from the lease table and its
task re-queued (with ``attempt`` bumped, so first-attempt kill hooks
do not re-fire).  A fenced worker's late ``POST /parts`` no longer
matches a live lease and is discarded, so each task resolves **exactly
once**; because :func:`repro.serve.tasks.run_task` is a pure function
of its payload, the re-leased run's part is bit-identical to the one
the dead worker would have delivered, and the merged job result is
bit-identical to a local-fleet (or cold CLI) run.

Cache seeds and computed entries are Python objects locally; they
cross the HTTP boundary through :mod:`repro.serve.wire`, whose codec
is exact (value-preserving floats, hashable keys).

Everything in :class:`RemoteFleet` runs on the daemon's event loop —
single-threaded, so plain attributes are safe.
"""

from __future__ import annotations

import asyncio
import os
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from .client import ServeClient, ServeError
from .fleet import FleetBackend, WorkerFleet
from .wire import WireError, decode_entries, encode_entries

#: ``JOBID:INDEX`` — a ``repro worker`` process hard-exits when it
#: *leases* that task on its first attempt (deterministic stand-in for
#: SIGKILLing the worker mid-lease; the daemon must fence and re-lease).
WORKER_KILL_ENV = "REPRO_WORKER_KILL_LEASE"


class RemoteTaskError(RuntimeError):
    """A deterministic task failure reported by a remote worker."""


class UnknownWorkerError(KeyError):
    """A worker id the daemon does not know (it must re-register —
    e.g. after a daemon restart emptied the in-memory registry)."""

    def __init__(self, worker_id: Any) -> None:
        super().__init__(worker_id)
        self.worker_id = worker_id

    def __str__(self) -> str:
        return (f"unknown worker {self.worker_id!r}; "
                f"POST /register to (re)join the fleet")


@dataclass
class _Task:
    """One outstanding task: queued, leased, or (late) discarded."""

    payload: dict
    future: asyncio.Future
    lease: str | None = None
    worker: str | None = None
    deadline: float = 0.0
    cancelled: bool = False


@dataclass
class _Worker:
    """Daemon-side health record of one registered worker process."""

    id: str
    name: str
    slots: int
    registered_at: float
    last_seen: float
    leases_granted: int = 0
    parts_delivered: int = 0
    errors_delivered: int = 0
    fences: int = 0
    late_parts: int = 0
    heartbeats: int = 0

    def row(self, now: float, leases_held: int, alive_window: float) -> dict:
        return {
            "name": self.name,
            "slots": self.slots,
            "alive": (now - self.last_seen) <= alive_window,
            "last_heartbeat_s": round(now - self.last_seen, 3),
            "leases_held": leases_held,
            "leases_granted": self.leases_granted,
            "parts_delivered": self.parts_delivered,
            "errors_delivered": self.errors_delivered,
            "fences": self.fences,
            "late_parts": self.late_parts,
        }


class RemoteFleet(FleetBackend):
    """Lease-based fleet backend: tasks wait in a queue until a
    registered worker long-polls them out, and lease timeouts fence
    workers that stop heartbeating."""

    def __init__(self, *, lease_ttl_s: float = 30.0, poll_s: float = 10.0,
                 window: int = 32,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be > 0")
        if poll_s <= 0:
            raise ValueError("poll_s must be > 0")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.lease_ttl_s = lease_ttl_s
        self.poll_s = poll_s
        self.window = window
        self._clock = clock
        self._closed = False
        self._queue: list[_Task] = []
        self._wake = asyncio.Event()
        self._leases: dict[str, _Task] = {}
        self._workers: dict[str, _Worker] = {}
        self._worker_seq = 0
        self._lease_seq = 0
        self.tasks_run = 0
        self.tasks_failed = 0
        self.fences = 0
        self.late_parts_discarded = 0

    # ------------------------------------------------------------------
    # FleetBackend surface (what the JobManager drives)
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:  # type: ignore[override]
        """Live worker processes (heartbeated within the alive window)."""
        now = self._clock()
        return sum(1 for w in self._workers.values()
                   if (now - w.last_seen) <= self._alive_window())

    @property
    def gate_size(self) -> int:
        # Dispatch (and therefore seed) up to ``window`` tasks at once:
        # remote capacity is dynamic, so the gate is a configured
        # dispatch window rather than a live worker count.
        return self.window

    async def run(self, payload: dict) -> dict:
        if self._closed:
            raise RuntimeError("fleet is closed")
        record = _Task(payload=dict(payload),
                       future=asyncio.get_running_loop().create_future())
        self._queue.append(record)
        self._notify()
        try:
            return await record.future
        except asyncio.CancelledError:
            self._abandon(record)
            raise

    def stats(self) -> dict:
        now = self._clock()
        held: dict[str, int] = {}
        for rec in self._leases.values():
            if rec.worker is not None:
                held[rec.worker] = held.get(rec.worker, 0) + 1
        return {
            "backend": "remote",
            "workers": self.workers,
            "registered": len(self._workers),
            "tasks_run": self.tasks_run,
            "tasks_failed": self.tasks_failed,
            "fences": self.fences,
            "late_parts_discarded": self.late_parts_discarded,
            "queued": len(self._queue),
            "leased": len(self._leases),
            "lease_ttl_s": self.lease_ttl_s,
            "per_worker": {
                wid: worker.row(now, held.get(wid, 0),
                                self._alive_window())
                for wid, worker in sorted(self._workers.items())
            },
        }

    def close(self) -> None:
        self._closed = True
        self._notify()

    # ------------------------------------------------------------------
    # HTTP-facing operations (called by the server routes)
    # ------------------------------------------------------------------
    def register(self, name: Any, slots: Any) -> dict:
        self._worker_seq += 1
        worker_id = f"w{self._worker_seq:03d}"
        now = self._clock()
        try:
            slots = max(1, int(slots))
        except (TypeError, ValueError):
            slots = 1
        self._workers[worker_id] = _Worker(
            id=worker_id, name=str(name or worker_id), slots=slots,
            registered_at=now, last_seen=now)
        return {"worker": worker_id, "lease_ttl_s": self.lease_ttl_s,
                "poll_s": self.poll_s}

    async def lease(self, worker_id: Any) -> dict:
        """Long-poll one task: blocks until work is available or the
        poll window closes (then ``{"lease": None}``)."""
        worker = self._require_worker(worker_id)
        deadline = self._clock() + self.poll_s
        while True:
            worker.last_seen = self._clock()
            self._renew(worker.id)
            self._reap()
            record = self._pop_runnable()
            if record is not None:
                return self._grant(worker, record)
            remaining = deadline - self._clock()
            if remaining <= 0 or self._closed:
                return {"lease": None}
            # Wake early enough to fence a dead peer's expired lease
            # even when nothing new is enqueued meanwhile.
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(),
                                       min(remaining, self._reap_tick()))
            except (asyncio.TimeoutError, TimeoutError):
                pass

    def heartbeat(self, worker_id: Any) -> dict:
        worker = self._require_worker(worker_id)
        worker.last_seen = self._clock()
        worker.heartbeats += 1
        self._renew(worker.id)
        self._reap()
        return {"ok": True,
                "leases": sorted(lid for lid, rec in self._leases.items()
                                 if rec.worker == worker.id)}

    def deliver(self, worker_id: Any, lease_id: Any,
                part: dict | None = None, error: str | None = None) -> dict:
        """Admit one part (or task error) under exactly-once fencing.

        The part is decoded before the lease table is touched.  A
        malformed part (not an object, or entries that do not decode)
        fails its task with a precise :class:`RemoteTaskError`, exactly
        as a worker-reported error does, and raises :class:`WireError`
        so the route answers 400: re-leasing would only loop with a
        worker that sends the same bytes again.
        """
        worker = self._workers.get(worker_id)
        if worker is not None:
            worker.last_seen = self._clock()
        malformed = None
        if error is None:
            try:
                part = _decode_part(part)
            except WireError as bad:
                malformed = bad
                error = f"bad wire document in part: {bad}"
        self._reap()
        record = self._leases.pop(str(lease_id), None) if lease_id else None
        if record is None or record.future.done() or record.cancelled:
            # Fenced (or cancelled) lease: the task was re-queued — or
            # already resolved by its re-leased run.  Discarding keeps
            # part admission exactly-once; the lost work is invisible
            # in the result because run_task is pure.
            self.late_parts_discarded += 1
            if worker is not None:
                worker.late_parts += 1
            return {"accepted": False, "reason": "unknown or fenced lease"}
        if error is not None:
            self.tasks_failed += 1
            if worker is not None:
                worker.errors_delivered += 1
            record.future.set_exception(RemoteTaskError(str(error)))
            if malformed is not None:
                raise malformed
            return {"accepted": True}
        self.tasks_run += 1
        if worker is not None:
            worker.parts_delivered += 1
        record.future.set_result(part)
        return {"accepted": True}

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _alive_window(self) -> float:
        return 2.0 * self.lease_ttl_s

    def _reap_tick(self) -> float:
        return max(0.02, min(1.0, self.lease_ttl_s / 4.0))

    def _notify(self) -> None:
        self._wake.set()

    def _require_worker(self, worker_id: Any) -> _Worker:
        worker = self._workers.get(worker_id)
        if worker is None:
            raise UnknownWorkerError(worker_id)
        return worker

    def _pop_runnable(self) -> _Task | None:
        while self._queue:
            record = self._queue.pop(0)
            if not record.cancelled and not record.future.done():
                return record
        return None

    def _grant(self, worker: _Worker, record: _Task) -> dict:
        self._lease_seq += 1
        lease_id = f"L{self._lease_seq:06d}"
        record.lease = lease_id
        record.worker = worker.id
        record.deadline = self._clock() + self.lease_ttl_s
        self._leases[lease_id] = record
        worker.leases_granted += 1
        payload = dict(record.payload)
        payload["seed"] = encode_entries(payload.get("seed") or [])
        return {"lease": lease_id, "lease_ttl_s": self.lease_ttl_s,
                "payload": payload}

    def _renew(self, worker_id: str) -> None:
        deadline = self._clock() + self.lease_ttl_s
        for record in self._leases.values():
            if record.worker == worker_id:
                record.deadline = deadline

    def _reap(self) -> None:
        """Fence every expired lease and re-queue its task."""
        now = self._clock()
        expired = [lid for lid, rec in self._leases.items()
                   if rec.deadline <= now]
        for lease_id in expired:
            record = self._leases.pop(lease_id)
            self.fences += 1
            worker = self._workers.get(record.worker or "")
            if worker is not None:
                worker.fences += 1
            self._requeue(record)

    def _requeue(self, record: _Task) -> None:
        record.lease = None
        record.worker = None
        if record.cancelled or record.future.done():
            return
        # First-attempt kill hooks must not re-fire on the re-lease.
        record.payload["attempt"] = int(record.payload.get("attempt", 0)) + 1
        self._queue.append(record)
        self._notify()

    def _abandon(self, record: _Task) -> None:
        """The awaiting manager task was cancelled: drop the task so a
        late part cannot resolve (or journal) anything."""
        record.cancelled = True
        if record in self._queue:
            self._queue.remove(record)
        if record.lease is not None:
            self._leases.pop(record.lease, None)


def _decode_part(part: Any) -> dict:
    """A delivered part with its wire entries decoded (or WireError)."""
    if not isinstance(part, dict):
        raise WireError(f"part must be an object, got "
                        f"{type(part).__name__}")
    return dict(part, entries=decode_entries(part.get("entries", [])))


# ---------------------------------------------------------------------------
# worker side: the ``repro worker`` process
# ---------------------------------------------------------------------------

def _honour_worker_kill(payload: dict) -> None:
    target = os.environ.get(WORKER_KILL_ENV)
    if not target or int(payload.get("attempt", 0) or 0) > 0:
        return
    task = payload.get("task") or {}
    if target == f"{payload.get('job_id')}:{task.get('index')}":
        # Die exactly as a SIGKILLed worker would: mid-lease, without
        # delivering.  The daemon must fence and re-lease.
        os._exit(1)


class WorkerAgent:
    """One ``repro worker`` process: N lease slots over a local
    :class:`WorkerFleet`, plus a heartbeat keeping its leases alive."""

    def __init__(self, host: str, port: int, *, workers: int = 1,
                 name: str | None = None, retry_s: float = 60.0,
                 client_timeout_s: float = 600.0,
                 log: Callable[[str], None] | None = None) -> None:
        self.client = ServeClient(host, port, timeout=client_timeout_s)
        self.workers = workers
        self.slots = max(1, workers)
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.retry_s = retry_s
        self.log = log or (lambda message: None)
        self.worker_id: str | None = None
        self.lease_ttl_s = 10.0
        self.parts_sent = 0
        self.leases_taken = 0
        self._fleet: WorkerFleet | None = None
        self._last_contact = time.monotonic()
        self._stopping = False

    # -- HTTP helpers (blocking client, driven off-loop) ----------------
    async def _call(self, fn, *args):
        result = await asyncio.to_thread(fn, *args)
        self._last_contact = time.monotonic()
        return result

    def _give_up(self) -> bool:
        return (time.monotonic() - self._last_contact) > self.retry_s

    async def _register(self) -> None:
        while not self._stopping:
            try:
                doc = await self._call(self.client.register_worker,
                                       self.name, self.slots)
                self.worker_id = doc["worker"]
                self.lease_ttl_s = float(doc.get("lease_ttl_s", 10.0))
                self.log(f"registered as {self.worker_id} "
                         f"({self.slots} slot(s), "
                         f"lease ttl {self.lease_ttl_s:g}s)")
                return
            except ServeError as error:
                if self._give_up():
                    raise
                self.log(f"register failed ({error}); retrying")
                await asyncio.sleep(0.5)

    # -- the lease loop -------------------------------------------------
    async def _slot(self, index: int) -> None:
        while not self._stopping:
            worker_id = self.worker_id
            if worker_id is None:
                await asyncio.sleep(0.1)
                continue
            try:
                doc = await self._call(self.client.lease, worker_id)
            except ServeError as error:
                if self._stopping:
                    return
                if error.status == 409:
                    # Daemon restarted: the in-memory registry is gone.
                    await self._register()
                    continue
                if self._give_up():
                    raise
                await asyncio.sleep(0.5)
                continue
            lease_id = doc.get("lease")
            if not lease_id:
                continue  # empty poll window; poll again
            payload = doc["payload"]
            self.leases_taken += 1
            try:
                # An undecodable seed is this task's error, not the
                # worker's: report it rather than exit, or every worker
                # the task is re-leased to would die the same way.
                payload["seed"] = decode_entries(payload.get("seed", []))
                _honour_worker_kill(payload)
                part = await self._fleet.run(payload)
                body = {"worker": worker_id, "lease": lease_id,
                        "part": dict(part, entries=encode_entries(
                            part.get("entries") or []))}
            except Exception as error:  # noqa: BLE001 - report, don't die
                body = {"worker": worker_id, "lease": lease_id,
                        "error": f"{type(error).__name__}: {error}"}
            try:
                answer = await self._call(self.client.deliver_part, body)
                if answer.get("accepted"):
                    self.parts_sent += 1
                else:
                    self.log(f"slot {index}: part for {lease_id} "
                             f"discarded ({answer.get('reason')})")
            except ServeError as error:
                # The daemon will fence the lease and re-run the task;
                # losing this delivery cannot change the result.
                self.log(f"slot {index}: delivery failed ({error})")

    async def _heartbeat(self) -> None:
        while not self._stopping:
            await asyncio.sleep(max(0.05, self.lease_ttl_s / 3.0))
            worker_id = self.worker_id
            if worker_id is None:
                continue
            try:
                await self._call(self.client.heartbeat, worker_id)
            except ServeError as error:
                if error.status == 409 and not self._stopping:
                    try:
                        await self._register()
                    except ServeError:
                        return

    async def run(self) -> int:
        self._fleet = WorkerFleet(self.workers)
        try:
            await self._register()
            slots = [asyncio.create_task(self._slot(i), name=f"slot-{i}")
                     for i in range(self.slots)]
            beat = asyncio.create_task(self._heartbeat(), name="heartbeat")
            try:
                await asyncio.gather(*slots)
                return 0
            except ServeError as error:
                self.log(f"daemon unreachable for {self.retry_s:g}s; "
                         f"giving up: {error}")
                return 1
            finally:
                self._stopping = True
                beat.cancel()
                for task in slots:
                    task.cancel()
                await asyncio.gather(beat, *slots, return_exceptions=True)
        except ServeError as error:
            self.log(f"cannot join fleet: {error}")
            return 1
        finally:
            self._fleet.close()


def run_worker(host: str, port: int, *, workers: int = 1,
               name: str | None = None, retry_s: float = 60.0,
               log: Callable[[str], None] | None = None) -> int:
    """Blocking entry point for ``repro worker`` (returns an exit code)."""
    agent = WorkerAgent(host, port, workers=workers, name=name,
                        retry_s=retry_s, log=log)
    return asyncio.run(agent.run())
