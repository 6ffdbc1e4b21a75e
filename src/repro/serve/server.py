"""Stdlib-only asyncio HTTP/JSON front-end (docs/SERVE_API.md).

One event loop owns the listener, the :class:`JobManager` and the
shared cache; CPU-heavy search work never runs on the loop — it is
dispatched to the configured :class:`~repro.serve.fleet.FleetBackend`
(a local process pool, or a lease-based remote fleet).  The wire
protocol is deliberately minimal HTTP/1.1 (one request per connection,
``Connection: close``) so both ends stay inside the standard library.

Endpoints
---------
``GET /healthz``            liveness + job/worker counts
``GET /stats``              shared-cache, fleet and per-job statistics
``POST /jobs``              submit a job spec; returns the job row
                            (429 + ``Retry-After`` when the bounded
                            task queue is full)
``GET /jobs``               list all jobs
``GET /jobs/ID``            one job row
``GET /jobs/ID/result``     merged result; ``?wait=1`` blocks until done
``POST /register``          join the remote fleet (remote backend only)
``POST /lease``             long-poll one task payload
``POST /heartbeat``         renew a worker's leases
``POST /parts``             deliver one part (or task error)
``POST /shutdown``          graceful stop (drains nothing — in-flight
                            jobs are journaled and resume on restart)
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass

from ..search import CheckpointJournal
from .cache import SharedEvalCache
from .fleet import FleetBackend, WorkerFleet
from .jobs import JobManager, QueueFullError
from .protocol import ProtocolError
from .remote import RemoteFleet, UnknownWorkerError
from .wire import WireError

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
             404: "Not Found", 408: "Request Timeout", 409: "Conflict",
             429: "Too Many Requests", 500: "Internal Server Error"}
_MAX_BODY = 32 * 1024 * 1024


@dataclass
class ServeConfig:
    """``repro serve`` knobs (defaults match the CLI flag defaults)."""

    host: str = "127.0.0.1"
    port: int = 8181
    workers: int = 1
    journal_path: str | None = None
    resume: bool = False
    cache_entries: int | None = 200_000
    max_task_attempts: int = 3
    fleet: str = "local"
    lease_ttl_s: float = 30.0
    poll_s: float = 10.0
    window: int = 32
    queue_limit: int | None = 4096
    read_timeout_s: float | None = 30.0


class ServeDaemon:
    """The long-running scheduler service."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.cache = SharedEvalCache(max_entries=config.cache_entries)
        self.fleet: FleetBackend
        if config.fleet == "remote":
            self.fleet = RemoteFleet(lease_ttl_s=config.lease_ttl_s,
                                     poll_s=config.poll_s,
                                     window=config.window)
        elif config.fleet == "local":
            self.fleet = WorkerFleet(
                config.workers, max_task_attempts=config.max_task_attempts)
        else:
            raise ValueError(f"unknown fleet backend {config.fleet!r} "
                             f"(expected 'local' or 'remote')")
        self.journal: CheckpointJournal | None = None
        if config.journal_path is not None:
            self.journal = CheckpointJournal(
                config.journal_path, {"kind": "serve"},
                resume=config.resume)
        self.manager: JobManager | None = None
        self.port: int | None = None  # actual port (config.port may be 0)
        self._stop = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        self._stop.set()

    async def serve(self, *, ready_cb=None) -> None:
        """Run until :meth:`request_stop`; resumes journaled jobs first."""
        self.manager = JobManager(self.fleet, self.cache,
                                  journal=self.journal,
                                  queue_limit=self.config.queue_limit)
        resumed = self.manager.resume()
        server = await asyncio.start_server(self._handle, self.config.host,
                                            self.config.port)
        self.port = server.sockets[0].getsockname()[1]
        if ready_cb is not None:
            ready_cb(self.port, resumed)
        try:
            await self._stop.wait()
        finally:
            # In-flight jobs keep their journaled parts; a restart with
            # --resume re-enqueues only the missing tasks.  Close the
            # fleet *before* waiting the server down so long-polling
            # /lease handlers return promptly instead of pinning the
            # listener for a full poll window.
            for job in self.manager.jobs.values():
                if job.runner is not None and not job.runner.done():
                    job.runner.cancel()
            await self.manager.drain()
            self.fleet.close()
            server.close()
            try:
                await server.wait_closed()
            except (ConnectionError, OSError):
                pass
            if self.journal is not None:
                self.journal.append({"type": "shutdown"})

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        headers: dict[str, str] = {}
        try:
            try:
                # A client that connects and never finishes its headers
                # must not pin this handler forever; the timeout covers
                # only the read, never a long-poll route.
                read = self._read_request(reader)
                if self.config.read_timeout_s is not None:
                    read = asyncio.wait_for(read, self.config.read_timeout_s)
                method, path, body = await read
                status, doc = await self._route(method, path, body)
            except ProtocolError as error:
                status, doc = 400, {"error": str(error)}
            except WireError as error:
                status, doc = 400, {"error": f"bad wire document: {error}"}
            except QueueFullError as error:
                headers["Retry-After"] = str(error.retry_after_s)
                status, doc = 429, {"error": str(error),
                                    "retry_after_s": error.retry_after_s}
            except UnknownWorkerError as error:
                status, doc = 409, {"error": str(error)}
            except _HttpError as error:
                status, doc = error.status, {"error": error.message}
            except (asyncio.TimeoutError, TimeoutError):
                status, doc = 408, {"error": "timed out reading request"}
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except Exception as error:  # noqa: BLE001 - keep serving
                status, doc = 500, {"error":
                                    f"{type(error).__name__}: {error}"}
            payload = (json.dumps(doc) + "\n").encode()
            extra = "".join(f"{name}: {value}\r\n"
                            for name, value in headers.items())
            writer.write(
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n{extra}"
                f"Connection: close\r\n\r\n".encode() + payload)
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            ) -> tuple[str, str, dict | None]:
        head = await reader.readuntil(b"\r\n\r\n")
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            raise _HttpError(400, "malformed request line")
        length = 0
        for line in header_lines:
            name, sep, value = line.partition(":")
            if sep and name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise _HttpError(400, "bad Content-Length")
        if length < 0:
            # int("-5") parses fine but readexactly(-5) raises a bare
            # ValueError that used to surface as a 500.
            raise _HttpError(400, "bad Content-Length")
        if length > _MAX_BODY:
            raise _HttpError(400, "body too large")
        body = None
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except (ValueError, RecursionError):
                # A body nested past the recursion limit is as invalid
                # as a syntax error, not a server fault.
                raise _HttpError(400, "body is not valid JSON")
        return method.upper(), target, body

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def _remote_fleet(self) -> RemoteFleet:
        if not isinstance(self.fleet, RemoteFleet):
            raise _HttpError(409, "daemon is running a local fleet "
                                  "(start it with --fleet remote)")
        return self.fleet

    async def _route(self, method: str, target: str, body: dict | None,
                     ) -> tuple[int, dict]:
        path, _, query = target.partition("?")
        parts = [p for p in path.split("/") if p]
        manager = self.manager
        assert manager is not None  # serve() set it before listening

        if method == "GET" and parts == ["healthz"]:
            states = [j.state for j in manager.jobs.values()]
            return 200, {
                "ok": True,
                "workers": self.fleet.workers,
                "jobs": {state: states.count(state)
                         for state in sorted(set(states))},
            }
        if method == "GET" and parts == ["stats"]:
            return 200, {
                "cache": self.cache.stats(),
                "fleet": self.fleet.stats(),
                "queue": {"pending_tasks": manager.pending_tasks(),
                          "limit": manager.queue_limit},
                "jobs": manager.stats(),
            }
        if method == "POST" and parts == ["jobs"]:
            if body is None:
                raise ProtocolError("POST /jobs needs a JSON job spec body")
            job = manager.submit(body)
            return 202, job.describe()
        if method == "GET" and parts == ["jobs"]:
            return 200, {"jobs": manager.describe_jobs()}
        if method == "GET" and len(parts) == 2 and parts[0] == "jobs":
            job = manager.get(parts[1])
            if job is None:
                raise _HttpError(404, f"no such job {parts[1]!r}")
            return 200, job.describe()
        if (method == "GET" and len(parts) == 3 and parts[0] == "jobs"
                and parts[2] == "result"):
            job = manager.get(parts[1])
            if job is None:
                raise _HttpError(404, f"no such job {parts[1]!r}")
            if "wait=1" in query.split("&") and job.runner is not None:
                await asyncio.shield(
                    asyncio.gather(job.runner, return_exceptions=True))
            if job.state == "failed":
                return 200, {"id": job.id, "state": job.state,
                             "error": job.error}
            if job.result is None:
                return 409, {"id": job.id, "state": job.state,
                             "error": "job is still running; retry or "
                                      "pass ?wait=1"}
            return 200, {"id": job.id, "state": job.state,
                         "seed_hits": job.seed_hits, "result": job.result}
        if method == "POST" and parts == ["register"]:
            fleet = self._remote_fleet()
            doc = body or {}
            return 200, fleet.register(doc.get("name"), doc.get("slots", 1))
        if method == "POST" and parts == ["lease"]:
            fleet = self._remote_fleet()
            if not body or "worker" not in body:
                raise ProtocolError("POST /lease needs {\"worker\": id}")
            return 200, await fleet.lease(body["worker"])
        if method == "POST" and parts == ["heartbeat"]:
            fleet = self._remote_fleet()
            if not body or "worker" not in body:
                raise ProtocolError("POST /heartbeat needs {\"worker\": id}")
            return 200, fleet.heartbeat(body["worker"])
        if method == "POST" and parts == ["parts"]:
            fleet = self._remote_fleet()
            if not body or "lease" not in body:
                raise ProtocolError(
                    "POST /parts needs {\"worker\", \"lease\", "
                    "\"part\"|\"error\"}")
            return 200, fleet.deliver(body.get("worker"), body["lease"],
                                      part=body.get("part"),
                                      error=body.get("error"))
        if method == "POST" and parts == ["shutdown"]:
            self.request_stop()
            return 200, {"ok": True, "stopping": True}
        raise _HttpError(404, f"no route {method} {path}")


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
