"""The daemon's process-shared cross-request evaluation cache.

Worker processes cannot share one in-process
:class:`~repro.search.EvalCache`, so the daemon keeps a single
:class:`SharedEvalCache` and moves entries over the task boundary:

* at dispatch time each task receives the **seed** — the subset of
  stored entries relevant to its workload/architecture (mapping
  fingerprints lead with ``(workload_fp, arch_fp)``, so relevance is a
  prefix filter);
* the worker runs with a :class:`SeedCache` built from that seed, which
  separately counts hits served by seeded entries (``seed_hits`` — the
  cross-request amortisation the service advertises);
* the worker returns the entries it *computed* (never the seed echoed
  back), and the daemon admits them under the admission/eviction policy
  below.

The shared cache is a pure accelerator: a seeded entry is keyed by the
canonical mapping fingerprint, so a hit returns exactly the
:class:`~repro.model.cost.CostResult` a fresh evaluation would produce.
Seeding therefore never changes any job's best mapping or cost — only
its hit accounting (pinned by ``tests/test_serve_cache.py``).

Admission policy: an entry whose key is already stored is rejected as a
duplicate (first write wins; both writers computed the same canonical
result, so there is nothing to reconcile); new keys are admitted and
refresh recency.  Eviction is LRU over admissions and seed reads, with
the same ``max_entries``/``0 = unbounded`` convention as
:class:`EvalCache`.  All counters are exact under concurrent access
(one lock around every mutation).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Iterable, Sequence

from ..search import EvalCache


class SeedCache(EvalCache):
    """An :class:`EvalCache` pre-populated from the shared cache.

    Behaves identically to a cold cache that happens to start warm
    (same lookup, same LRU, same counters), plus ``seed_hits``: how
    many hits were served by *seeded* entries rather than entries the
    local search computed itself.  ``new_entries()`` returns only the
    computed ones, so workers never echo the seed back to the daemon.
    """

    def __init__(self, seed: Iterable[tuple[Any, Any]] = (),
                 max_entries: int | None = 200_000) -> None:
        super().__init__(max_entries=max_entries)
        self.seed_hits = 0
        for key, result in seed:
            super().put(key, result)
        self._seeded = set(self._entries)

    def get(self, key):
        entry = super().get(key)
        if entry is not None and key in self._seeded:
            self.seed_hits += 1
        return entry

    def put(self, key, result) -> None:
        before = self.evictions
        super().put(key, result)
        # An eviction may have dropped seeded keys; forget them so a
        # later re-compute + hit is not misattributed to the seed and
        # the recomputed entry flows back to the daemon for admission.
        if self.evictions != before:
            self._seeded.intersection_update(self._entries)

    def new_entries(self) -> list[tuple[Any, Any]]:
        """The ``(key, result)`` pairs this search computed (insertion
        order) — the payload workers return for admission."""
        return [(key, result) for key, result in self._entries.items()
                if key not in self._seeded]


class SharedEvalCache:
    """Daemon-side cross-request result store with exact accounting.

    Thread-safe: the asyncio event loop admits results from many jobs
    and executor callbacks; every read/write takes the one lock, so the
    counters stay exact under contention (satellite requirement).
    """

    def __init__(self, max_entries: int | None = 200_000) -> None:
        if max_entries is not None and max_entries < 0:
            raise ValueError(
                "max_entries must be >= 0 or None (0 = unbounded)")
        self.max_entries = max_entries or None
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.admitted = 0
        self.rejected_duplicates = 0
        self.evictions = 0
        self.seeds_served = 0
        self.seed_entries_served = 0
        self.seed_hits_reported = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def seed_for(self, workload_fp: Any, arch_fp: Any,
                 ) -> list[tuple[Any, Any]]:
        """Entries relevant to one task, computed at dispatch time so
        a task queued behind another sees everything it admitted.

        Mapping fingerprints are
        ``(workload_fp, arch_fp, levels, partial_reuse, sparsity)``;
        the prefix filter ships only entries the task can actually hit.
        ``arch_fp`` embeds the resolved per-level energies and (for
        non-default packs) the technology pack name, so two resolutions
        of the same hierarchy under different packs never share entries
        (pinned by ``tests/test_serve_cache.py``).  Serving a seed
        refreshes recency of the served entries.
        """
        head = (workload_fp, arch_fp)
        with self._lock:
            # Slicing never raises: a key shorter than two matches nothing.
            seed = [(key, result) for key, result in self._entries.items()
                    if key[:2] == head]
            for key, _ in seed:
                self._entries.move_to_end(key)
            self.seeds_served += 1
            self.seed_entries_served += len(seed)
            return seed

    def admit(self, entries: Sequence[tuple[Any, Any]]) -> dict:
        """Apply the admission policy to one task's computed entries.

        Returns the per-call accounting
        ``{"admitted": n, "duplicates": n, "evictions": n}``.
        """
        admitted = duplicates = evicted = 0
        with self._lock:
            for key, result in entries:
                if key in self._entries:
                    duplicates += 1
                    continue
                self._entries[key] = result
                admitted += 1
                if self.max_entries is not None:
                    while len(self._entries) > self.max_entries:
                        self._entries.popitem(last=False)
                        evicted += 1
            self.admitted += admitted
            self.rejected_duplicates += duplicates
            self.evictions += evicted
        return {"admitted": admitted, "duplicates": duplicates,
                "evictions": evicted}

    def record_seed_hits(self, hits: int) -> None:
        """Fold one task's reported ``seed_hits`` into the global
        counter (per-job accounting lives in the job record)."""
        with self._lock:
            self.seed_hits_reported += int(hits)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """JSON-ready snapshot for ``/stats``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "admitted": self.admitted,
                "rejected_duplicates": self.rejected_duplicates,
                "evictions": self.evictions,
                "seeds_served": self.seeds_served,
                "seed_entries_served": self.seed_entries_served,
                "seed_hits_reported": self.seed_hits_reported,
            }
