"""Job specifications, normalisation and canonical merges.

A *job* is one scheduling request — the service twin of a CLI
invocation:

``schedule``
    one workload, optionally split into ``shards`` union-complete
    mapspace shards (``--shard I/N`` semantics, docs/MAPSPACE.md);
``compare``
    Sunstone plus the selected baseline mappers on one workload;
``network``
    every layer of a model, deduplicated by shape exactly like
    :func:`repro.core.network.schedule_network`.

Specs normalise to a **self-contained JSON document**: workload and
architecture are embedded as the ``repro.mapping.serialize`` dicts, so
a task shipped to a worker (or replayed from the daemon's journal)
never depends on the submitting host's filesystem or preset table.
Normalisation is deterministic, which makes :func:`decompose_job`
replay-stable: a daemon restarted with ``--resume`` re-derives exactly
the task list it journaled.

Merging follows the CLI's canonical-tie-break principle
(``core.scheduler._state_key``): equal-objective outcomes are ranked by
the canonical mapping content, never by shard index or arrival order,
so the merged winner of N shard tasks is bit-identical to what N
cooperating ``repro schedule --shard I/N`` runs plus the same merge
would produce — and a 1-shard job is bit-identical to the cold,
unsharded CLI run (pinned by ``tests/test_serve.py``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Sequence

from ..arch import PRESETS
from ..mappers import select_mappers, selection_keys
from ..mapping.serialize import (
    architecture_from_dict,
    architecture_to_dict,
    workload_from_dict,
    workload_to_dict,
)
from ..sparse import SparsityError, spec_from_cli
from ..workloads import build_workload

JOB_KINDS = ("schedule", "compare", "network")

MAX_SHARDS = 4096


class ProtocolError(ValueError):
    """A job specification the service cannot accept."""


def _canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def job_fingerprint(job: dict) -> str:
    """Short content hash of a normalised job (display / sanity checks)."""
    return hashlib.sha256(_canonical_json(job).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# normalisation
# ---------------------------------------------------------------------------
#
# One rule for hostile input: a dim size, a shard count or a cache size
# must be a JSON integer (never a bool, never coerced), a sparsity
# assignment or a mapper name must be a string, and any other malformed
# field raises ProtocolError naming the field.  Nothing else may escape
# normalisation, because the daemon answers anything else with a 500.

# What the document parsers raise on a malformed (not merely invalid)
# field: a missing key, a wrong container or scalar type.
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError)


def _json_int(value: Any, field: str) -> int:
    """``value`` when it is a JSON integer, else a ProtocolError naming
    ``field`` (``true`` is not 1 and ``4.5`` is not 4)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{field} must be an integer, got {value!r}")
    return value


def _json_strings(value: Any, field: str) -> list[str]:
    """A list of strings (``null`` reads as empty), else a ProtocolError
    naming ``field``."""
    if value is None:
        return []
    if (not isinstance(value, list)
            or not all(isinstance(item, str) for item in value)):
        raise ProtocolError(f"{field} must be a list of strings, "
                            f"got {value!r}")
    return list(value)


def _check_dims(dims: Any) -> dict:
    if not isinstance(dims, dict):
        raise ProtocolError(f"workload dims must be an object, got {dims!r}")
    for name, size in dims.items():
        _json_int(size, f"workload dim {name!r}")
    return dims


def _normalize_workload(entry: Any) -> dict:
    """Resolve a workload reference to its serialised document.

    Accepts either an inline ``workload_to_dict`` document or a
    ``{"kind": "mttkrp", "dims": {"I": 64, ...}}`` reference to the
    library builders the CLI exposes.
    """
    if not isinstance(entry, dict):
        raise ProtocolError(f"workload must be an object, got {entry!r}")
    if "tensors" in entry:
        try:
            return workload_to_dict(workload_from_dict(entry))
        except _MALFORMED as error:
            raise ProtocolError(f"bad workload document: {error}")
    kind = entry.get("kind")
    dims = entry.get("dims")
    if not isinstance(kind, str) or not isinstance(dims, dict):
        raise ProtocolError(
            "workload needs either an inline document (with 'tensors') or "
            "{'kind': NAME, 'dims': {DIM: SIZE, ...}}")
    try:
        return workload_to_dict(build_workload(kind, _check_dims(dims)))
    except LookupError as error:
        raise ProtocolError(str(error))
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"bad workload dims: {error}")


def _normalize_tech(entry: Any) -> str | None:
    """Validate the job-spec ``tech`` field (a registered pack name)."""
    if entry is None:
        return None
    if not isinstance(entry, str):
        raise ProtocolError(f"tech must be a pack name, got {entry!r}")
    from ..energy.tech import TechnologyError, get_pack
    try:
        return get_pack(entry).name
    except TechnologyError as error:
        raise ProtocolError(str(error))


def _normalize_arch(entry: Any, tech: str | None = None) -> dict:
    """Resolve an architecture (preset name or inline document).

    With ``tech``, presets are built under that technology pack and
    inline documents that carry component metadata are re-resolved;
    documents without component metadata cannot be retargeted and are
    rejected when ``tech`` disagrees with the document's own pack.
    The returned document embeds the resolved energies *and* the pack
    identity, so worker tasks are self-contained.
    """
    if isinstance(entry, str):
        if entry not in PRESETS:
            raise ProtocolError(
                f"unknown architecture {entry!r}; choose from "
                f"{sorted(PRESETS)} or embed a document")
        if tech is not None:
            return architecture_to_dict(PRESETS[entry](tech=tech))
        return architecture_to_dict(PRESETS[entry]())
    if isinstance(entry, dict):
        try:
            arch = architecture_from_dict(entry)
        except _MALFORMED as error:
            raise ProtocolError(f"bad architecture document: {error}")
        if tech is not None and tech != arch.tech:
            if not any(lvl.component is not None for lvl in arch.levels):
                raise ProtocolError(
                    f"architecture document (pack '{arch.tech}') carries no "
                    f"component metadata, so it cannot be retargeted to "
                    f"pack '{tech}'")
            from ..energy.tech import TechnologyError, resolve_architecture
            try:
                arch = resolve_architecture(arch, tech)
            except TechnologyError as error:
                raise ProtocolError(str(error))
        return architecture_to_dict(arch)
    raise ProtocolError(f"architecture must be a preset name or an object, "
                        f"got {entry!r}")


def _normalize_sparsity(entry: Any, workload_doc: dict) -> dict | None:
    """Validate the CLI-style sparsity assignment lists."""
    if entry is None:
        return None
    if not isinstance(entry, dict):
        raise ProtocolError("sparsity must be an object of CLI assignment "
                            "lists: {'density': [...], 'format': [...], "
                            "'saf': [...]}")
    density = _json_strings(entry.get("density"), "sparsity.density")
    fmt = _json_strings(entry.get("format"), "sparsity.format")
    saf = _json_strings(entry.get("saf"), "sparsity.saf")
    if not (density or fmt or saf):
        return None
    names = [t["name"] for t in workload_doc["tensors"]]
    try:
        spec = spec_from_cli(density, fmt, saf, tensor_names=names)
    except (SparsityError, ValueError) as error:
        raise ProtocolError(f"bad sparsity spec: {error}")
    if spec is None:
        return None
    return {"density": density, "format": fmt, "saf": saf}


def build_sparsity_spec(job_or_task: dict):
    """Reconstruct the :class:`SparsitySpec` of a normalised doc
    (``None`` for dense jobs)."""
    entry = job_or_task.get("sparsity")
    if entry is None:
        return None
    names = [t["name"] for t in job_or_task["workload"]["tensors"]]
    return spec_from_cli(entry["density"], entry["format"], entry["saf"],
                         tensor_names=names)


_OPTION_DEFAULTS = {"cache_size": None}


def _normalize_options(entry: Any) -> dict:
    options = dict(_OPTION_DEFAULTS)
    if entry is None:
        return options
    if not isinstance(entry, dict):
        raise ProtocolError("options must be an object")
    for key, value in entry.items():
        if key not in _OPTION_DEFAULTS:
            raise ProtocolError(f"unknown option {key!r}; choose from "
                                f"{sorted(_OPTION_DEFAULTS)}")
        options[key] = value
    if options["cache_size"] is not None:
        if _json_int(options["cache_size"], "options.cache_size") < 0:
            raise ProtocolError("cache_size must be >= 0 (0 = unbounded)")
    return options


def normalize_job(spec: dict) -> dict:
    """Validate a raw job spec and return its canonical document.

    The result is pure JSON (round-tripped through the serialisers), so
    journaling, task decomposition and resume all see the same bytes.
    """
    if not isinstance(spec, dict):
        raise ProtocolError("job spec must be a JSON object")
    kind = spec.get("kind")
    if kind not in JOB_KINDS:
        raise ProtocolError(f"job kind must be one of {JOB_KINDS}, "
                            f"got {kind!r}")
    objective = spec.get("objective", "edp")
    if objective not in ("edp", "energy"):
        raise ProtocolError(f"unknown objective {objective!r}")
    tech = _normalize_tech(spec.get("tech"))
    arch = _normalize_arch(spec.get("arch", "conventional"), tech)
    options = _normalize_options(spec.get("options"))
    job: dict[str, Any] = {"kind": kind, "arch": arch,
                           "objective": objective, "options": options}
    if tech is not None:
        # The resolved arch document already embeds the pack identity;
        # recording the request keeps the job fingerprint pack-aware even
        # for packs whose resolved energies coincide.
        job["tech"] = tech

    if kind == "network":
        layers = spec.get("layers")
        if not isinstance(layers, list) or not layers:
            raise ProtocolError("network jobs need a non-empty 'layers' "
                                "list of workload documents")
        job["layers"] = [_normalize_workload(entry) for entry in layers]
        # Round-trip WITHOUT key sorting: dict order in the serialised
        # workload (e.g. ``dims``) is the searchers' iteration order, and
        # reordering it would send samplers down different (equally
        # valid) trajectories than the cold CLI.  Fingerprints sort.
        return json.loads(json.dumps(job))

    workload = _normalize_workload(spec.get("workload"))
    job["workload"] = workload
    job["sparsity"] = _normalize_sparsity(spec.get("sparsity"), workload)
    if kind == "schedule":
        shards = _json_int(spec.get("shards", 1), "shards")
        if not 1 <= shards <= MAX_SHARDS:
            raise ProtocolError(f"shards must be in [1, {MAX_SHARDS}]")
        job["shards"] = shards
    else:  # compare
        mappers = spec.get("mappers")
        if mappers is not None and not isinstance(mappers, str):
            _json_strings(mappers, "mappers")
        try:
            job["mappers"] = selection_keys(mappers)
        except ValueError as error:
            raise ProtocolError(str(error))
    # See the network branch above: preserve document key order.
    return json.loads(json.dumps(job))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def _shape_key(workload_doc: dict) -> str:
    """Shape identity mirroring ``core.network._shape_key`` (name-blind)."""
    return _canonical_json({
        "dims": workload_doc["dims"],
        "tensors": workload_doc["tensors"],
    })


def decompose_job(job: dict) -> list[dict]:
    """Split a normalised job into its independent worker tasks.

    Deterministic: the task list is a pure function of the job document
    (resume re-derives it).  Every task is self-contained JSON.
    """
    base = {"arch": job["arch"], "options": job["options"]}
    if job["kind"] == "schedule":
        n = job["shards"]
        return [
            {"type": "schedule", "index": i,
             "workload": job["workload"], "objective": job["objective"],
             "sparsity": job.get("sparsity"),
             "shard": None if n == 1 else [i, n], **base}
            for i in range(n)
        ]
    if job["kind"] == "compare":
        return [
            {"type": "mapper", "index": i, "name": name,
             "workload": job["workload"], "objective": job["objective"],
             "sparsity": job.get("sparsity"), **base}
            for i, name in enumerate(select_mappers(job.get("mappers")))
        ]
    # network: one task per distinct layer shape, covering its repeats.
    tasks: list[dict] = []
    seen: dict[str, dict] = {}
    for i, layer in enumerate(job["layers"]):
        key = _shape_key(layer)
        owner = seen.get(key)
        if owner is not None:
            owner["covers"].append(i)
            continue
        task = {"type": "layer", "index": len(tasks), "layer": i,
                "covers": [i], "workload": layer,
                "objective": job["objective"], "sparsity": None, **base}
        seen[key] = task
        tasks.append(task)
    return tasks


# ---------------------------------------------------------------------------
# canonical merge
# ---------------------------------------------------------------------------

def _mapping_key(mapping_doc: dict) -> tuple:
    """Canonical, totally ordered identity of a mapping document —
    the serialisation-side twin of ``core.scheduler._state_key``, so
    ranking equal-cost outcomes never depends on shard or arrival
    order."""
    return tuple(
        (
            tuple(sorted((d, f) for d, f in lvl["temporal"])),
            tuple(sorted((d, f) for d, f in lvl["spatial"])),
            tuple((d, f) for d, f in lvl["temporal"]),
        )
        for lvl in mapping_doc["levels"]
    )


def outcome_sort_key(doc: dict, objective: str) -> tuple:
    """Rank of one outcome document: valid < invalid < not-found, then
    the objective value, then the canonical mapping key."""
    if not doc.get("found") or doc.get("cost") is None:
        return (2, 0.0, ())
    cost = doc["cost"]
    value = cost["edp"] if objective == "edp" else cost["energy_pj"]
    return ((0 if cost.get("valid") else 1), value,
            _mapping_key(doc["mapping"]))


def merge_stats(dicts: Sequence[dict | None]) -> dict:
    """Fold worker ``SearchStats.to_dict()`` records into one.

    Counters sum, booleans OR, nested dicts recurse, and the derived
    ratios (``requests``/``hit_rate``/...) are recomputed from the
    summed counters — the dict twin of
    :meth:`repro.search.SearchStats.merge`.
    """
    merged: dict = {}
    for doc in dicts:
        if not doc:
            continue
        _merge_into(merged, doc)
    _refresh_derived(merged)
    return merged


def _merge_into(target: dict, other: dict) -> None:
    for key, value in other.items():
        if isinstance(value, dict):
            _merge_into(target.setdefault(key, {}), value)
        elif isinstance(value, bool):
            target[key] = bool(target.get(key)) or value
        elif isinstance(value, (int, float)):
            target[key] = target.get(key, 0) + value
        else:
            target.setdefault(key, value)


def _refresh_derived(stats: dict) -> None:
    if not stats:
        return
    requests = stats.get("evaluations", 0) + stats.get("cache_hits", 0)
    stats["requests"] = requests
    stats["hit_rate"] = (stats.get("cache_hits", 0) / requests
                         if requests else 0.0)


def _sum_seed_hits(parts: Sequence[dict]) -> int:
    return sum(int(p.get("seed_hits", 0)) for p in parts)


def merge_job(job: dict, parts: dict[int, dict]) -> dict:
    """Merge the completed task parts of ``job`` into its result doc.

    A pure function of the job document and the per-task parts (each
    ``{"doc": ..., "stats": ..., "seed_hits": ...}``), so a resumed
    daemon merging journaled parts produces byte-identical results.
    """
    tasks = decompose_job(job)
    missing = [t["index"] for t in tasks if t["index"] not in parts]
    if missing:
        raise ProtocolError(f"cannot merge job: tasks {missing} incomplete")
    ordered = [parts[t["index"]] for t in tasks]
    stats = merge_stats([p.get("stats") for p in ordered])
    seed_hits = _sum_seed_hits(ordered)

    if job["kind"] == "schedule":
        docs = [p["doc"] for p in ordered]
        best = min(docs, key=lambda d: outcome_sort_key(d, job["objective"]))
        status = ("ok" if best.get("found") and best["cost"].get("valid")
                  else ("invalid" if best.get("found") else "not-found"))
        return {
            "kind": "schedule",
            "objective": job["objective"],
            "found": bool(best.get("found")),
            "status": status,
            "mapping": best.get("mapping"),
            "cost": best.get("cost"),
            "evaluations": sum(d.get("evaluations", 0) for d in docs),
            "certificate": best.get("certificate"),
            "shards": job["shards"],
            "per_shard": [
                {"shard": t.get("shard"), "found": bool(d.get("found")),
                 "evaluations": d.get("evaluations", 0)}
                for t, d in zip(tasks, docs)
            ],
            "search": stats,
            "seed_hits": seed_hits,
        }

    if job["kind"] == "compare":
        return {
            "kind": "compare",
            "mappers": [p["doc"] for p in ordered],
            "search": stats,
            "seed_hits": seed_hits,
        }

    # network
    owners: dict[int, tuple[dict, dict]] = {}
    for task, part in zip(tasks, ordered):
        for covered in task["covers"]:
            owners[covered] = (task, part)
    layer_docs = []
    total_energy = 0.0
    total_cycles = 0.0
    found_all = True
    for i, layer in enumerate(job["layers"]):
        task, part = owners[i]
        doc = part["doc"]
        found = bool(doc.get("found"))
        found_all = found_all and found
        if found:
            total_energy += doc["cost"]["energy_pj"]
            total_cycles += doc["cost"]["cycles"]
        shared_with = None
        if task["covers"][0] != i:
            shared_with = job["layers"][task["covers"][0]]["name"]
        layer_docs.append({
            "layer": layer["name"],
            "found": found,
            "shared_with": shared_with,
            "cost": doc.get("cost"),
            "mapping": doc.get("mapping"),
            "evaluations": doc.get("evaluations", 0),
        })
    return {
        "kind": "network",
        "found_all": found_all,
        "totals": {
            "energy_pj": total_energy,
            "cycles": total_cycles,
            "edp": total_energy * total_cycles,
            "unique_searches": len(tasks),
        },
        "layers": layer_docs,
        "search": stats,
        "seed_hits": seed_hits,
    }


def workload_fingerprints(task: dict) -> tuple:
    """(workload_fp, arch_fp) of a task — the seed-relevance key the
    shared cache filters on (fingerprints lead every cache key)."""
    from ..search import architecture_fingerprint, workload_fingerprint
    workload = workload_from_dict(task["workload"])
    arch = architecture_from_dict(task["arch"])
    return workload_fingerprint(workload), architecture_fingerprint(arch)


JobMergeFn = Callable[[dict, dict[int, dict]], dict]
