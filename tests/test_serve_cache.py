"""Concurrency and accounting tests for the shared cross-request cache.

Satellite 3 of the serve PR: the :class:`SharedEvalCache` must keep
*exact* admission/duplicate/eviction accounting under concurrent
clients, and seeding a search from it must never change the best
mapping or cost — only how much work finding it costs.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.cli import build_architecture, build_workload
from repro.core import SchedulerOptions, schedule
from repro.mappers import cost_doc
from repro.mapping.serialize import mapping_to_dict
from repro.search.cache import EvalCache
from repro.serve import ServeConfig, ServeDaemon
from repro.serve.cache import SeedCache, SharedEvalCache

import asyncio


def key(i, fp="wl", arch="ar"):
    return (fp, arch, f"cand{i}")


# ---------------------------------------------------------------------------
# SeedCache: per-task hit attribution
# ---------------------------------------------------------------------------

class TestSeedCache:
    def test_seed_hits_count_only_seeded_entries(self):
        cache = SeedCache([(key(0), "a"), (key(1), "b")])
        assert cache.get(key(0)) == "a"
        assert cache.seed_hits == 1
        cache.put(key(2), "c")
        assert cache.get(key(2)) == "c"
        # Hit on a self-computed entry is a plain cache hit, not a seed
        # hit — the daemon's speedup accounting depends on the split.
        assert cache.seed_hits == 1
        assert cache.hits == 2

    def test_new_entries_excludes_the_seed(self):
        cache = SeedCache([(key(0), "a")])
        cache.put(key(1), "b")
        cache.put(key(0), "a2")  # overwrite of a seeded key stays seeded
        assert cache.new_entries() == [(key(1), "b")]

    def test_eviction_prunes_seed_bookkeeping(self):
        cache = SeedCache([(key(i), i) for i in range(4)], max_entries=4)
        cache.put(key(9), "new")  # evicts the LRU seeded entry
        assert cache.get(key(0)) is None
        assert cache.seed_hits == 0
        # The evicted key is no longer "seeded": recomputing and
        # re-inserting it must make it a *new* entry.
        cache.put(key(0), "recomputed")
        assert (key(0), "recomputed") in cache.new_entries()

    def test_plain_evalcache_contract_still_holds(self):
        cache = SeedCache([], max_entries=2)
        for i in range(3):
            cache.put(key(i), i)
        assert cache.evictions == 1
        assert isinstance(cache, EvalCache)


# ---------------------------------------------------------------------------
# SharedEvalCache: admission / eviction / seed filtering
# ---------------------------------------------------------------------------

class TestSharedEvalCache:
    def test_admission_accounting_is_exact(self):
        shared = SharedEvalCache(max_entries=0)
        first = shared.admit([(key(0), "a"), (key(1), "b")])
        assert first == {"admitted": 2, "duplicates": 0, "evictions": 0}
        second = shared.admit([(key(1), "LOSER"), (key(2), "c")])
        assert second == {"admitted": 1, "duplicates": 1, "evictions": 0}
        # First write wins: a duplicate admission never clobbers.
        assert dict(shared.seed_for("wl", "ar"))[key(1)] == "b"

    def test_eviction_is_lru_and_counted(self):
        shared = SharedEvalCache(max_entries=2)
        shared.admit([(key(0), "a"), (key(1), "b")])
        shared.seed_for("wl", "ar")  # touches both -> refreshes recency
        report = shared.admit([(key(2), "c")])
        assert report["evictions"] == 1
        assert shared.stats()["entries"] == 2
        assert shared.stats()["evictions"] == 1

    def test_seed_filtering_by_fingerprint_prefix(self):
        shared = SharedEvalCache(max_entries=0)
        shared.admit([(key(0), "a"),
                      (key(1, fp="other"), "x"),
                      (key(2, arch="other"), "y")])
        seed = shared.seed_for("wl", "ar")
        assert [k for k, _ in seed] == [key(0)]
        assert shared.stats()["seeds_served"] == 1
        assert shared.stats()["seed_entries_served"] == 1

    def test_seeds_are_disjoint_across_technology_packs(self):
        # arch fingerprints embed resolved energies and (non-default)
        # pack identity, so the same hierarchy under two packs can never
        # exchange cache entries through the shared store.
        from repro.arch import tiny
        from repro.search.fingerprint import architecture_fingerprint
        afp45 = architecture_fingerprint(tiny(tech="cmos45"))
        afp7 = architecture_fingerprint(tiny(tech="cmos7"))
        assert afp45 != afp7
        shared = SharedEvalCache(max_entries=0)
        shared.admit([(("wl", afp45, "m"), "cost45"),
                      (("wl", afp7, "m"), "cost7")])
        assert shared.seed_for("wl", afp45) == [(("wl", afp45, "m"),
                                                 "cost45")]
        assert shared.seed_for("wl", afp7) == [(("wl", afp7, "m"),
                                                "cost7")]

    def test_concurrent_admissions_account_every_put_exactly_once(self):
        shared = SharedEvalCache(max_entries=0)
        clients, per_client = 8, 200
        # Every client offers the same universe of keys: across all
        # clients each key is admitted exactly once, duplicated
        # everywhere else — no lost or double-counted writes.
        batch = [(key(i), i) for i in range(per_client)]
        with ThreadPoolExecutor(max_workers=clients) as pool:
            reports = list(pool.map(lambda _: shared.admit(batch),
                                    range(clients)))
        admitted = sum(r["admitted"] for r in reports)
        duplicates = sum(r["duplicates"] for r in reports)
        assert admitted == per_client
        assert duplicates == per_client * (clients - 1)
        stats = shared.stats()
        assert stats["admitted"] == per_client
        assert stats["rejected_duplicates"] == duplicates
        assert stats["entries"] == per_client

    def test_concurrent_seed_and_admit_never_corrupt(self):
        shared = SharedEvalCache(max_entries=64)
        stop = threading.Event()
        errors = []

        def admitter(base):
            try:
                for i in range(300):
                    shared.admit([(key(base * 1000 + i), i)])
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def seeder():
            try:
                while not stop.is_set():
                    for k, _ in shared.seed_for("wl", "ar"):
                        assert k[0] == "wl"
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=admitter, args=(b,))
                   for b in range(4)]
        reader = threading.Thread(target=seeder)
        reader.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        reader.join()
        assert not errors
        stats = shared.stats()
        assert stats["entries"] <= 64
        assert stats["admitted"] - stats["evictions"] == stats["entries"]


# ---------------------------------------------------------------------------
# end to end: a contended shared cache never changes results
# ---------------------------------------------------------------------------

class TestSharedCacheBitIdentity:
    def test_many_concurrent_clients_all_get_the_cold_result(self):
        workload = build_workload("conv1d", ["K=4", "C=4", "P=14", "R=3"])
        arch = build_architecture("tiny")
        cold = schedule(workload, arch, SchedulerOptions())
        want_mapping = json.loads(json.dumps(mapping_to_dict(cold.mapping)))
        want_cost = json.loads(json.dumps(cost_doc(cold.cost)))

        spec = {"kind": "schedule",
                "workload": {"kind": "conv1d",
                             "dims": {"K": 4, "C": 4, "P": 14, "R": 3}},
                "arch": "tiny"}

        async def body():
            daemon = ServeDaemon(ServeConfig(port=0, workers=0))
            server = asyncio.get_running_loop().create_task(daemon.serve())
            while daemon.manager is None:
                await asyncio.sleep(0.01)
            jobs = [daemon.manager.submit(dict(spec)) for _ in range(6)]
            await asyncio.gather(*(job.runner for job in jobs))
            daemon.request_stop()
            await server
            return jobs, daemon.cache.stats()

        jobs, cache_stats = asyncio.run(body())
        for job in jobs:
            assert job.state == "done", job.error
            assert job.result["mapping"] == want_mapping
            assert job.result["cost"] == want_cost
            assert job.result["evaluations"] == cold.stats.evaluations
        # At least the later jobs ran warm, and warm != different.
        assert sum(job.seed_hits for job in jobs) > 0
        assert cache_stats["seed_hits_reported"] > 0
        assert cache_stats["rejected_duplicates"] >= 0
