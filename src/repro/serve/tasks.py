"""Picklable worker entry point: run one decomposed job task.

:func:`run_task` executes in a ``ProcessPoolExecutor`` worker (or
inline for ``--workers 0``/fallback).  It reconstructs the search from
a self-contained task document and runs it **exactly as the cold CLI
would** — same :class:`~repro.core.SchedulerOptions`, same engine
construction as :class:`~repro.core.SunstoneScheduler` — with one
difference: the evaluation cache starts from the daemon's seed
(:class:`~repro.serve.cache.SeedCache`).  The seed is a pure
accelerator (fingerprint-keyed exact results), so the returned mapping,
cost and candidate-evaluation count are bit-identical to the cold run;
only the engine's hit accounting moves (pinned by
``tests/test_serve.py``).

Kill injection: ``REPRO_SERVE_KILL_TASK=JOB:INDEX`` hard-exits the
worker on the *first* attempt at that task (mirroring the
``REPRO_CHECKPOINT_KILL_AFTER`` idiom), which gives tests and the CI
smoke a deterministic worker death instead of a racy ``pkill``.
"""

from __future__ import annotations

import os
import time
from typing import Any

from ..core import SchedulerOptions
from ..mappers import result_doc, run_mapper
from ..mapping.serialize import architecture_from_dict, workload_from_dict
from ..search import SearchEngine
from .cache import SeedCache
from .protocol import build_sparsity_spec

KILL_TASK_ENV = "REPRO_SERVE_KILL_TASK"


def _honour_kill_hook(job_id: str, task: dict, attempt: int) -> None:
    target = os.environ.get(KILL_TASK_ENV)
    if not target or attempt > 0:
        return
    if target == f"{job_id}:{task['index']}":
        # A real crash, as far as the fleet can tell: the process dies
        # without returning.  Retries (attempt > 0) run to completion.
        os._exit(1)


def _seeded_engine(options: SchedulerOptions,
                   seed: list[tuple[Any, Any]]) -> tuple[SearchEngine,
                                                         SeedCache]:
    """The engine ``SunstoneScheduler`` would build from ``options``,
    with the result cache pre-populated from the daemon's shared
    cache."""
    cache_size = options.cache_size
    cache = SeedCache(seed, max_entries=(200_000 if cache_size is None
                                         else cache_size))
    engine = SearchEngine(cache=cache, partial_reuse=options.partial_reuse,
                          sparsity=options.sparsity, cache_size=cache_size)
    return engine, cache


def _scheduler_options(task: dict) -> SchedulerOptions:
    opts = task["options"]
    shard = task.get("shard")
    # Keys of since-retired options (old journals' job docs may carry
    # them) are ignored.
    return SchedulerOptions(objective=task["objective"],
                            sparsity=build_sparsity_spec(task),
                            cache_size=opts["cache_size"],
                            shard=tuple(shard) if shard else None)


def _mapper_of(task: dict) -> str:
    """The mapper a task runs: a compare job's mapper task names it;
    schedule shards and network layers run Sunstone."""
    if task["type"] == "mapper":
        return task["name"]
    if task["type"] in ("schedule", "layer"):
        return "sunstone"
    raise ValueError(f"unknown task type {task['type']!r}")


def run_task(payload: dict) -> dict:
    """Execute one task; returns the mergeable *part* document.

    ``payload`` is ``{"job_id", "task", "seed", "attempt"}``; the part
    is ``{"index", "doc", "stats", "seed_hits", "entries",
    "wall_time_s"}`` where ``doc`` is the mapper's
    :func:`~repro.mappers.result_doc`, ``stats`` its engine telemetry
    and ``entries`` the ``(fingerprint, CostResult)`` pairs this task
    computed, offered back to the shared cache for admission.
    """
    task = payload["task"]
    seed = payload.get("seed") or []
    _honour_kill_hook(payload.get("job_id", ""), task,
                      payload.get("attempt", 0))
    start = time.perf_counter()
    name = _mapper_of(task)
    options = _scheduler_options(task)
    engine = cache = None
    if name == "sunstone":
        # Only Sunstone takes an injected engine: the baselines build
        # their own (their exact cold-CLI configuration), so their rows
        # stay byte-for-byte what ``repro compare`` prints.
        engine, cache = _seeded_engine(options, seed)
    result = run_mapper(name, workload_from_dict(task["workload"]),
                        architecture_from_dict(task["arch"]), options,
                        engine=engine)
    doc = result_doc(result)
    return {
        "index": task["index"],
        "doc": doc,
        "stats": doc["search"],
        "seed_hits": cache.seed_hits if cache is not None else 0,
        "entries": cache.new_entries() if cache is not None else [],
        "wall_time_s": time.perf_counter() - start,
    }
