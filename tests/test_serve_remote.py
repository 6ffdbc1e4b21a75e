"""Tests for the remote worker fleet (wire codec, leases, fencing).

The load-bearing guarantees pinned here:

* the wire codec round-trips cache fingerprints (tuples, sparsity
  specs) and ``CostResult``\\ s exactly — hashable keys, equal values,
  entry order — and ships each run's ``(workload_fp, arch_fp)`` prefix
  once;
* a malformed part fails its task with a 400-class ``WireError``: it
  never orphans the task, answers 500 or poisons the shared cache, and
  an undecodable seed is reported by the worker instead of killing it;
* a lease that stops heartbeating is fenced: the task is re-leased
  (with ``attempt`` bumped so first-attempt kill hooks fire once) and
  the dead worker's late part is discarded — exactly-once admission;
* a daemon with remote workers produces the same merged result —
  mapping, cost, candidate accounting — as the local fleet and the
  cold CLI, including when a worker dies mid-lease;
* ``/stats`` reports per-worker health rows and fence counts.
"""

import asyncio
import http.client
import itertools
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_architecture, build_workload, main
from repro.model.cost import AccessCounts, CostResult
from repro.search import architecture_fingerprint, workload_fingerprint
from repro.serve import (
    RemoteFleet,
    ServeClient,
    ServeConfig,
    ServeDaemon,
    ServeError,
    SharedEvalCache,
)
from repro.serve.remote import (
    RemoteTaskError,
    UnknownWorkerError,
    WorkerAgent,
)
from repro.serve.wire import (
    WireError,
    decode_entries,
    decode_value,
    encode_entries,
    encode_value,
)
from repro.sparse.density import Banded, Dense, Uniform
from repro.sparse.spec import SparsitySpec, TensorSparsity

SMALL_CONV = {"kind": "conv1d", "dims": {"K": 4, "C": 4, "P": 14, "R": 3}}


def schedule_spec(**overrides):
    spec = {"kind": "schedule", "workload": dict(SMALL_CONV),
            "arch": "tiny"}
    spec.update(overrides)
    return spec


# Real (workload_fp, arch_fp) prefixes and cost results, the shape of
# every shared-cache entry.
ARCH_FP = architecture_fingerprint(build_architecture("tiny"))
WORKLOAD_FPS = [workload_fingerprint(build_workload("conv1d", dims))
                for dims in (["K=4", "C=4", "P=14", "R=3"],
                             ["K=8", "C=4", "P=14", "R=3"])]
SPARSE = SparsitySpec(entries=(
    ("W", TensorSparsity(density=Uniform(density=0.25),
                         format="bitmask", action="gating")),))


def _cost(energy, violations=()):
    return CostResult(energy_pj=energy, cycles=energy / 3.0,
                      valid=not violations, violations=list(violations),
                      level_energy={"L1": energy / 7.0, "DRAM": 0.5},
                      compute_energy=1.25, utilization=0.75)


ENTRIES = [
    ((WORKLOAD_FPS[0], ARCH_FP, ((("L1", (("K", 2),)),), ((), ())), True,
      None), _cost(1e3)),
    ((WORKLOAD_FPS[0], ARCH_FP, ((("L1", (("C", 4),)),), ((), ())), True,
      SPARSE), _cost(2.5e3, ["cap L1"])),
    ((WORKLOAD_FPS[0], ARCH_FP, ((("L2", (("P", 7),)),), ((), ())), False,
      None), _cost(7e2)),
]


def _well_formed(entries):
    """What the shared cache needs of every entry it stores."""
    for key, cost in entries:
        hash(key)
        if not (isinstance(key, tuple) and isinstance(cost, CostResult)
                and isinstance(cost.energy_pj, (int, float))
                and isinstance(cost.cycles, (int, float))):
            return False
    return True


# ---------------------------------------------------------------------------
# wire codec
# ---------------------------------------------------------------------------

class TestWire:
    def test_fingerprint_round_trip_is_exact_and_hashable(self):
        sparsity = SparsitySpec(entries=(
            ("W", TensorSparsity(density=Uniform(density=0.25),
                                 format="bitmask", action="gating")),
            ("I", TensorSparsity(density=Banded(density=0.3, cluster=4),
                                 format="csr", action="skipping")),
            ("O", TensorSparsity(density=Dense(), format="uncompressed",
                                 action="none")),
        ))
        key = (("conv1d", (("K", 4), ("C", 4))), ("tiny", 256),
               ((("L1", ("K", 2)), ("L2", ("C", 2))),), False, sparsity)
        decoded = decode_value(encode_value(key))
        assert decoded == key
        assert hash(decoded) == hash(key)  # fingerprints are dict keys
        # The whole trip must survive real JSON serialisation.
        rewired = decode_value(json.loads(json.dumps(encode_value(key))))
        assert rewired == key

    def test_cost_result_round_trip_is_bit_exact(self):
        cost = CostResult(energy_pj=1.2345678901234567e8,
                          cycles=98765.0, valid=True,
                          violations=["cap L1"],
                          level_energy={"L1": 0.1, "L2": 2.0 / 3.0},
                          compute_energy=17.25, noc_energy=3.5,
                          chip2chip_energy=0.75, utilization=0.8125)
        decoded = decode_value(json.loads(json.dumps(encode_value(cost))))
        assert decoded == cost
        assert decoded.edp == cost.edp

    def test_entries_with_accesses_are_dropped_not_shipped(self):
        plain = CostResult(energy_pj=1.0, cycles=2.0, valid=True)
        heavy = CostResult(energy_pj=1.0, cycles=2.0, valid=True,
                           accesses=AccessCounts(levels={}, per_tensor={},
                                                 noc_words=0.0,
                                                 total_ops=0))
        encoded = encode_entries([(("a",), plain), (("b",), heavy)])
        assert decode_entries(encoded) == [(("a",), plain)]
        with pytest.raises(WireError, match="accesses"):
            encode_value(heavy)

    def test_malformed_documents_are_rejected(self):
        with pytest.raises(WireError, match="untagged"):
            decode_value([1, 2, 3])
        with pytest.raises(WireError, match="unknown wire tag"):
            decode_value({"__nope__": 1})
        with pytest.raises(WireError, match="cannot encode"):
            encode_value(object())

    @pytest.mark.parametrize("node", [
        {"__t__": "abc"},  # a string body would decode to a char tuple
        {"__t__": {"a": 1}},
        {"__m__": ["ab"]},
        {"__m__": [[{"__l__": []}, 1]]},  # unhashable map key
        {"__density__": ["Uniform"]},
        {"__density__": ["Uniform", {"density": "x"}]},
        {"__tensor_sparsity__": []},
        {"__sparsity__": "ab"},
        {"__cost__": {"energy_pj": 1.0}},  # missing fields
        {"__cost__": {"energy_pj": 1.0, "cycles": 2.0, "valid": True,
                      "bogus": 1}},
        {"__t__": [], "__l__": []},
    ])
    def test_malformed_nodes_raise_wire_error_only(self, node):
        with pytest.raises(WireError) as err:
            decode_value(node)
        assert type(err.value) is WireError

    @pytest.mark.parametrize("doc, where", [
        ("xx", "entry list must be an array"),
        (None, "entry list must be an array"),
        ([1, 2], "group 0: entry group must be a 2-element array"),
        ([[1]], "group 0: entry group must be a 2-element array"),
        ([[{"__t__": []}, {"bad": 1}]], "group 0: entry rows must be"),
        ([[1, 2]], "group 0: prefix decodes to int"),
        ([[{"__t__": [{"__l__": []}]}, []]], "prefix is not hashable"),
        ([[{"__t__": []}, [[{"__t__": []}]]]],
         "group 0, row 0: entry row must be a 2-element array"),
        ([[{"__t__": []}, [["a", {"__t__": []}]]]],
         "group 0, row 0: suffix decodes to str"),
        ([[{"__t__": []}, [[{"__t__": []}, {"__t__": []}]]]],
         "value decodes to tuple, not a CostResult"),
        ([[{"__t__": ["a"]}, [[{"__t__": []}, encode_value(
            CostResult(energy_pj="x", cycles=1.0, valid=True))]]]],
         "CostResult.energy_pj is not a number"),
        # The retired per-entry form [[key, cost], ...].
        ([[encode_value(("a", "b")), encode_value(_cost(1.0))]],
         "group 0: entry rows must be an array, got dict"),
    ])
    def test_malformed_entry_shapes_raise_wire_error_only(self, doc, where):
        with pytest.raises(WireError, match=where) as err:
            decode_entries(doc)
        assert type(err.value) is WireError

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_grouped_round_trip_is_exact_and_ordered(self, data):
        leaves = st.one_of(
            st.none(), st.booleans(), st.integers(-2**40, 2**40),
            st.floats(allow_nan=False), st.text(max_size=3),
            st.sampled_from([SPARSE, ARCH_FP]))
        nodes = st.recursive(
            leaves, lambda inner: st.lists(inner, max_size=3).map(tuple),
            max_leaves=6)
        heads = data.draw(st.lists(
            st.lists(nodes, min_size=1, max_size=2).map(tuple),
            min_size=1, max_size=3))
        entries = []
        for _ in range(data.draw(st.integers(0, 10))):
            head = data.draw(st.sampled_from(heads))
            tail = data.draw(st.lists(nodes, max_size=5 - len(head)))
            energy = data.draw(st.floats(0.0, 1e12))
            entries.append((head + tuple(tail), _cost(energy)))
        text = json.dumps(encode_entries(entries))
        assert decode_entries(json.loads(text)) == entries

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(runs=st.lists(st.tuples(st.sampled_from(WORKLOAD_FPS),
                                   st.integers(1, 6)), max_size=6))
    def test_arch_fingerprint_is_encoded_once_per_run(self, runs):
        entries = [((workload_fp, ARCH_FP, ("levels", i), i % 2 == 0, None),
                    _cost(float(i + 1)))
                   for workload_fp, length in runs for i in range(length)]
        text = json.dumps(encode_entries(entries))
        maximal_runs = len(list(itertools.groupby(
            entries, key=lambda entry: entry[0][:2])))
        assert text.count(json.dumps(encode_value(ARCH_FP))) == maximal_runs
        assert decode_entries(json.loads(text)) == entries


# ---------------------------------------------------------------------------
# lease protocol (RemoteFleet unit level, fake clock)
# ---------------------------------------------------------------------------

def _payload(index, attempt=0):
    return {"job_id": "j00001", "task": {"index": index}, "seed": [],
            "attempt": attempt}


def _part(index):
    return {"index": index, "doc": {"v": index}, "stats": None,
            "seed_hits": 0, "entries": [], "wall_time_s": 0.0}


async def _settle(fleet, part):
    """Lease one task and deliver ``part`` for it.

    Returns ``(delivery, outcome)``: what ``deliver`` answered (or the
    exception it raised — the route maps ``WireError`` to 400 and
    anything else to 500) and the task's part or exception, or
    ``"orphaned"`` when the task never resolves.
    """
    worker = fleet.register("w", 1)["worker"]
    run = asyncio.ensure_future(fleet.run(_payload(0)))
    await asyncio.sleep(0)
    lease = await fleet.lease(worker)
    try:
        delivery = fleet.deliver(worker, lease["lease"], part=part)
    except Exception as error:  # noqa: BLE001 - the outcome under test
        delivery = error
    await asyncio.wait([run], timeout=0.5)
    if not run.done():
        run.cancel()
        return delivery, "orphaned"
    return delivery, (run.exception() or run.result())


def _mutate(data, node):
    """``node`` with one nested node dropped, swapped or retyped."""
    kids = (list(range(len(node))) if type(node) is list
            else list(node) if type(node) is dict else [])
    copy = list(node) if type(node) is list else dict(node) if kids else node
    if kids and data.draw(st.integers(0, 3)):
        kid = data.draw(st.sampled_from(kids))
        copy[kid] = _mutate(data, node[kid])
        return copy
    op = data.draw(st.sampled_from(["retype", "drop", "swap"] if kids
                                   else ["retype"]))
    if op == "retype":
        return data.draw(st.sampled_from([
            None, True, 0, 2.5, "x", [], {}, [1], {"__t__": []},
            {"__l__": [1]}, {"__t__": [[]]}, {"__nope__": 1}]))
    first = data.draw(st.sampled_from(kids))
    if op == "drop":
        del copy[first]
    else:
        second = data.draw(st.sampled_from(kids))
        copy[first], copy[second] = copy[second], copy[first]
    return copy


class TestLeaseProtocol:
    def run(self, body):
        clock = [0.0]

        async def outer():
            fleet = RemoteFleet(lease_ttl_s=10.0, poll_s=5.0, window=4,
                                clock=lambda: clock[0])
            try:
                return await body(fleet, clock)
            finally:
                fleet.close()

        return asyncio.run(outer())

    def test_expired_lease_is_fenced_and_releases_with_attempt_bump(
            self):
        async def body(fleet, clock):
            alpha = fleet.register("alpha", 1)["worker"]
            beta = fleet.register("beta", 1)["worker"]
            run = asyncio.ensure_future(fleet.run(_payload(0)))
            await asyncio.sleep(0)
            stale = await fleet.lease(alpha)
            assert stale["lease"] and stale["payload"]["attempt"] == 0
            clock[0] += 11.0  # alpha never heartbeats: past the TTL
            fresh = await fleet.lease(beta)
            assert fresh["lease"] != stale["lease"]
            # First-attempt kill hooks must not re-fire on the re-lease.
            assert fresh["payload"]["attempt"] == 1
            # The fenced worker's late part is discarded...
            late = fleet.deliver(alpha, stale["lease"], part=_part(0))
            assert late == {"accepted": False,
                            "reason": "unknown or fenced lease"}
            assert not run.done()
            # ...and only the re-leased run resolves the task.
            assert fleet.deliver(beta, fresh["lease"],
                                 part=_part(0))["accepted"]
            part = await run
            assert part["index"] == 0
            stats = fleet.stats()
            assert stats["fences"] == 1
            assert stats["late_parts_discarded"] == 1
            assert stats["per_worker"][alpha]["fences"] == 1
            assert stats["per_worker"][alpha]["late_parts"] == 1
            assert stats["per_worker"][beta]["parts_delivered"] == 1

        self.run(body)

    def test_heartbeat_keeps_leases_alive_past_the_ttl(self):
        async def body(fleet, clock):
            worker = fleet.register("steady", 1)["worker"]
            run = asyncio.ensure_future(fleet.run(_payload(0)))
            await asyncio.sleep(0)
            lease = await fleet.lease(worker)
            for _ in range(4):
                clock[0] += 6.0  # each step < TTL, total far past it
                beat = fleet.heartbeat(worker)
                assert beat["leases"] == [lease["lease"]]
            assert fleet.deliver(worker, lease["lease"],
                                 part=_part(0))["accepted"]
            await run
            assert fleet.stats()["fences"] == 0

        self.run(body)

    def test_worker_error_fails_the_task_without_retry(self):
        async def body(fleet, clock):
            worker = fleet.register("w", 1)["worker"]
            run = asyncio.ensure_future(fleet.run(_payload(0)))
            await asyncio.sleep(0)
            lease = await fleet.lease(worker)
            assert fleet.deliver(worker, lease["lease"],
                                 error="ValueError: bad doc")["accepted"]
            with pytest.raises(Exception, match="bad doc"):
                await run
            assert fleet.stats()["tasks_failed"] == 1

        self.run(body)

    @pytest.mark.parametrize("entries", [
        [[{"__t__": []}, {"bad": 1}]], [1, 2], [[1]], "xx"])
    def test_malformed_part_fails_its_task_instead_of_orphaning_it(
            self, entries):
        async def body(fleet, clock):
            delivery, outcome = await _settle(
                fleet, dict(_part(0), entries=entries))
            return delivery, outcome, fleet.stats()

        delivery, outcome, stats = self.run(body)
        assert type(delivery) is WireError  # 400, never a 500
        assert isinstance(outcome, RemoteTaskError)
        assert "bad wire document in part: " in str(outcome)
        assert str(delivery) in str(outcome)
        assert (stats["leased"], stats["queued"]) == (0, 0)
        assert stats["tasks_failed"] == 1
        assert stats["per_worker"]["w001"]["errors_delivered"] == 1

    def test_non_object_part_fails_its_task_like_any_malformed_part(self):
        async def body(fleet, clock):
            return await _settle(fleet, ["not", "a", "part"])

        delivery, outcome = self.run(body)
        assert type(delivery) is WireError
        assert "part must be an object, got list" in str(outcome)

    def test_bad_part_cannot_poison_the_shared_cache(self):
        cache = SharedEvalCache()
        cache.admit(ENTRIES[:1])
        head = ENTRIES[0][0][:2]
        short = [[encode_value(("x",)),
                  [[encode_value(()), encode_value(_cost(5.0))]]]]
        for entries in ([[1, 2]], short):
            async def body(fleet, clock):
                return await _settle(fleet, dict(_part(0), entries=entries))

            delivery, outcome = self.run(body)
            if isinstance(outcome, dict):
                # What JobManager._run_task does with an accepted part.
                cache.admit(outcome["entries"])
            # Every later task's seed must still be served.
            assert cache.seed_for(*head) == ENTRIES[:1]
        # [[1, 2]] cannot decode; the 1-element key decodes, is stored,
        # and simply matches no prefix.
        assert len(cache) == 2

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_fuzzed_parts_are_admitted_intact_or_rejected_cleanly(
            self, data):
        sent = json.loads(json.dumps(encode_entries(ENTRIES)))
        entries = _mutate(data, sent)

        async def body(fleet, clock):
            delivery, outcome = await _settle(
                fleet, dict(_part(0), entries=entries))
            return delivery, outcome, fleet.stats()

        delivery, outcome, stats = self.run(body)
        assert outcome != "orphaned"
        assert (stats["leased"], stats["queued"]) == (0, 0)
        if isinstance(delivery, dict):
            assert delivery == {"accepted": True}
            # Admitted exactly as the codec reads the bytes sent.
            assert outcome["entries"] == decode_entries(entries)
            if entries == sent:
                assert outcome["entries"] == ENTRIES
            assert _well_formed(outcome["entries"])
            cache = SharedEvalCache()
            cache.admit(outcome["entries"])
            cache.seed_for(*ENTRIES[0][0][:2])  # must not raise
        else:
            assert type(delivery) is WireError
            assert isinstance(outcome, RemoteTaskError)
            assert str(delivery) in str(outcome)

    def test_cancelled_run_abandons_queue_and_lease(self):
        async def body(fleet, clock):
            worker = fleet.register("w", 1)["worker"]
            queued = asyncio.ensure_future(fleet.run(_payload(0)))
            leased = asyncio.ensure_future(fleet.run(_payload(1)))
            await asyncio.sleep(0)
            lease = await fleet.lease(worker)
            for future in (queued, leased):
                future.cancel()
            await asyncio.gather(queued, leased, return_exceptions=True)
            # The leased task's part arrives late: discarded, and the
            # queued task must not be leased to anyone.
            late = fleet.deliver(worker, lease["lease"], part=_part(1))
            assert late["accepted"] is False
            assert fleet.stats()["queued"] == 0
            assert fleet.stats()["leased"] == 0

        self.run(body)

    def test_unknown_worker_must_reregister(self):
        async def body(fleet, clock):
            with pytest.raises(UnknownWorkerError, match="register"):
                await fleet.lease("w999")
            with pytest.raises(UnknownWorkerError):
                fleet.heartbeat("w999")
            # An unknown worker's delivery is a late part, not a crash.
            assert fleet.deliver("w999", "L000001",
                                 part=_part(0))["accepted"] is False

        self.run(body)

    def test_empty_poll_window_returns_no_lease(self):
        async def outer():
            fleet = RemoteFleet(lease_ttl_s=1.0, poll_s=0.1, window=1)
            worker = fleet.register("idle", 1)["worker"]
            try:
                return await fleet.lease(worker)
            finally:
                fleet.close()

        assert asyncio.run(outer()) == {"lease": None}


# ---------------------------------------------------------------------------
# end to end over HTTP: daemon + worker agents, bit-identity
# ---------------------------------------------------------------------------

async def _daemon_session(config, body):
    daemon = ServeDaemon(config)
    server = asyncio.get_running_loop().create_task(daemon.serve())
    try:
        while daemon.manager is None or daemon.port is None:
            await asyncio.sleep(0.01)
        return await body(daemon)
    finally:
        daemon.request_stop()
        await server


def remote_daemon(body, **overrides):
    config = dict(port=0, fleet="remote", lease_ttl_s=2.0, poll_s=0.3,
                  read_timeout_s=5.0)
    config.update(overrides)
    return asyncio.run(_daemon_session(ServeConfig(**config), body))


async def _with_agent(daemon, coro, workers=0):
    agent = WorkerAgent("127.0.0.1", daemon.port, workers=workers,
                        retry_s=30.0)
    task = asyncio.create_task(agent.run())
    try:
        return await coro()
    finally:
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass


def _local_job(spec):
    async def body(daemon):
        job = daemon.manager.submit(spec)
        await job.runner
        return job

    return asyncio.run(_daemon_session(
        ServeConfig(port=0, workers=0), body))


class TestRemoteHttp:
    def test_remote_result_is_bit_identical_to_local_fleet(self):
        spec = schedule_spec(shards=3)
        local = _local_job(spec)

        def drive(client):
            row = client.submit(spec)
            doc = client.result(row["id"], wait=True)
            return doc, client.stats()

        async def body(daemon):
            client = ServeClient("127.0.0.1", daemon.port)
            return await _with_agent(
                daemon, lambda: asyncio.to_thread(drive, client))

        doc, stats = remote_daemon(body)
        assert doc["state"] == "done"
        assert doc["result"]["mapping"] == local.result["mapping"]
        assert doc["result"]["cost"] == local.result["cost"]
        assert doc["result"]["evaluations"] == local.result["evaluations"]
        fleet = stats["fleet"]
        assert fleet["backend"] == "remote"
        assert fleet["tasks_run"] == 3
        row, = fleet["per_worker"].values()
        assert row["alive"] is True
        assert row["parts_delivered"] == 3
        assert row["leases_held"] == 0
        assert row["fences"] == 0

    def test_dead_worker_is_fenced_and_job_completes_identically(self):
        spec = schedule_spec(shards=2)
        local = _local_job(spec)

        def submit(client):
            return client.submit(spec)["id"]

        def steal_lease(client):
            # A "worker" that registers, leases one task and then goes
            # silent — exactly what a SIGKILLed process looks like to
            # the daemon.
            ghost = client.register_worker("ghost", 1)["worker"]
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                lease = client.lease(ghost)
                if lease.get("lease"):
                    return ghost, lease
            raise AssertionError("ghost never got a lease")

        def finish(client, job_id):
            return client.result(job_id, wait=True), client.stats()

        async def body(daemon):
            client = ServeClient("127.0.0.1", daemon.port)
            job_id = await asyncio.to_thread(submit, client)
            ghost, lease = await asyncio.to_thread(steal_lease, client)
            # Only now does a live worker join: it must pick up both
            # the other shard and, after the TTL fences the ghost's
            # lease, the re-leased one.
            doc, stats = await _with_agent(
                daemon,
                lambda: asyncio.to_thread(finish, client, job_id))
            late = await asyncio.to_thread(
                client.deliver_part,
                {"worker": ghost, "lease": lease["lease"],
                 "part": _part(lease["payload"]["task"]["index"])})
            return doc, stats, late

        doc, stats, late = remote_daemon(body, lease_ttl_s=1.0)
        assert doc["state"] == "done"
        assert doc["result"]["mapping"] == local.result["mapping"]
        assert doc["result"]["cost"] == local.result["cost"]
        assert doc["result"]["evaluations"] == local.result["evaluations"]
        fleet = stats["fleet"]
        assert fleet["fences"] >= 1
        ghost_row = fleet["per_worker"]["w001"]
        assert ghost_row["fences"] >= 1
        # The fenced worker's part arrived after the re-leased run won:
        # discarded, never double-admitted.
        assert late["accepted"] is False

    def test_malformed_part_is_a_400_and_fails_the_job(self):
        def drive(client):
            job_id = client.submit(schedule_spec())["id"]
            ghost = client.register_worker("ghost", 1)["worker"]
            lease = {}
            while not lease.get("lease"):
                lease = client.lease(ghost)
            with pytest.raises(ServeError) as err:
                client.deliver_part({"worker": ghost,
                                     "lease": lease["lease"],
                                     "part": dict(_part(0), entries="xx")})
            return err.value, client.result(job_id, wait=True), \
                client.stats()

        async def body(daemon):
            client = ServeClient("127.0.0.1", daemon.port)
            return await asyncio.to_thread(drive, client)

        error, doc, stats = remote_daemon(body)
        assert error.status == 400
        assert "bad wire document: entry list must be an array" in str(
            error)
        assert doc["state"] == "failed"
        assert "entry list must be an array, got str" in doc["error"]
        assert (stats["fleet"]["leased"], stats["fleet"]["queued"]) == (0, 0)

    def test_responses_are_compact_json(self):
        async def body(daemon):
            def fetch():
                connection = http.client.HTTPConnection(
                    "127.0.0.1", daemon.port, timeout=10)
                try:
                    connection.request("GET", "/stats")
                    return connection.getresponse().read().decode()
                finally:
                    connection.close()

            return await asyncio.to_thread(fetch)

        raw = remote_daemon(body)
        assert raw == json.dumps(json.loads(raw)) + "\n"

    def test_local_fleet_daemon_rejects_worker_endpoints(self):
        async def body(daemon):
            client = ServeClient("127.0.0.1", daemon.port)

            def drive():
                with pytest.raises(ServeError, match="local fleet") as err:
                    client.register_worker("w", 1)
                assert err.value.status == 409
                return True

            return await asyncio.to_thread(drive)

        assert asyncio.run(_daemon_session(
            ServeConfig(port=0, workers=0), body))

    def test_worker_reregisters_after_daemon_forgets_it(self):
        # Workers outlive daemon restarts: an unknown worker id gets a
        # 409 and the agent re-registers rather than dying.
        async def body(daemon):
            client = ServeClient("127.0.0.1", daemon.port)

            def drive():
                with pytest.raises(ServeError) as err:
                    client.lease("w777")
                assert err.value.status == 409
                assert "re" in str(err.value)
                return True

            return await asyncio.to_thread(drive)

        assert remote_daemon(body)


class _OneLeaseClient:
    """Stands in for the agent's ServeClient: hands out one lease,
    records what the agent delivers, then stops the agent."""

    def __init__(self, agent, lease):
        self.agent = agent
        self.leases = [lease]
        self.delivered = []

    def lease(self, worker_id):
        if self.leases:
            return self.leases.pop()
        self.agent._stopping = True
        return {"lease": None}

    def deliver_part(self, body):
        self.delivered.append(body)
        self.agent._stopping = True
        return {"accepted": True}


class TestWorkerAgent:
    def test_undecodable_seed_is_a_task_error_not_a_dead_worker(self):
        clock = [0.0]

        async def body():
            fleet = RemoteFleet(lease_ttl_s=10.0, poll_s=5.0, window=4,
                                clock=lambda: clock[0])
            worker = fleet.register("agent", 1)["worker"]
            run = asyncio.ensure_future(fleet.run(_payload(0)))
            await asyncio.sleep(0)
            lease = await fleet.lease(worker)
            lease["payload"]["seed"] = [[1]]  # no codec emits this
            agent = WorkerAgent("127.0.0.1", 1, workers=0)
            agent.worker_id = worker
            agent.client = _OneLeaseClient(agent, lease)
            await agent._slot(0)  # returns: the worker lives on
            delivered, = agent.client.delivered
            answer = fleet.deliver(delivered["worker"], delivered["lease"],
                                   error=delivered["error"])
            with pytest.raises(RemoteTaskError) as err:
                await run
            return delivered, answer, str(err.value), fleet.stats()

        delivered, answer, error, stats = asyncio.run(body())
        assert "part" not in delivered
        assert delivered["error"].startswith(
            "WireError: group 0: entry group must be a 2-element array")
        assert answer == {"accepted": True}
        assert error == delivered["error"]
        assert (stats["leased"], stats["queued"]) == (0, 0)


class TestWorkerCli:
    def test_worker_gives_up_cleanly_when_daemon_unreachable(self,
                                                             capsys):
        code = main(["worker", "--connect", "127.0.0.1:1",
                     "--retry", "0.5"])
        assert code == 1
        assert "cannot join fleet" in capsys.readouterr().err

    def test_worker_rejects_malformed_connect(self):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["worker", "--connect", "nonsense"])
