"""Tests for the serve subsystem (protocol, jobs, HTTP, bit-identity).

The load-bearing guarantees pinned here:

* a daemon job's merged result is **bit-identical** to the equivalent
  cold CLI invocation — same best mapping, cost and candidate
  evaluation count — for schedule (any shard count), compare (every
  mapper row) and network jobs;
* worker deaths (injected via ``REPRO_SERVE_KILL_TASK``) and daemon
  restarts (journal + ``resume``) never change results;
* the CLI SIGTERM path drains cleanly with exit 143 (satellite 1).
"""

import asyncio
import json
import signal
import socket
import subprocess
import sys
import threading
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import tiny
from repro.cli import build_architecture, build_workload, main
from repro.core import SchedulerOptions, schedule
from repro.core.network import schedule_network
from repro.mappers import cost_doc, result_doc, run_mapper
from repro.mapping.serialize import (
    architecture_to_dict,
    mapping_to_dict,
    workload_to_dict,
)
from repro.search import CheckpointJournal, read_journal_entries
from repro.serve import (
    FleetBackend,
    JobManager,
    ProtocolError,
    QueueFullError,
    ServeClient,
    ServeConfig,
    ServeDaemon,
    SharedEvalCache,
    WorkerFleet,
    decompose_job,
    job_fingerprint,
    merge_job,
    normalize_job,
)
from repro.serve.protocol import merge_stats, outcome_sort_key
from repro.serve.tasks import run_task

REPO_ROOT = Path(__file__).resolve().parent.parent

SMALL_CONV = {"kind": "conv1d", "dims": {"K": 4, "C": 4, "P": 14, "R": 3}}
SMALL_FC = {"kind": "fc", "dims": {"N": 2, "K": 8, "C": 8}}


def rt(doc):
    """JSON round-trip, matching what crosses the wire/journal."""
    return json.loads(json.dumps(doc))


def sans_timing(doc):
    """``doc`` with every wall-clock field removed, recursively — the
    only part of a merged result that legitimately varies across runs."""
    if isinstance(doc, dict):
        return {k: sans_timing(v) for k, v in doc.items()
                if "time_s" not in k}
    if isinstance(doc, list):
        return [sans_timing(v) for v in doc]
    return doc


def schedule_spec(**overrides):
    spec = {"kind": "schedule", "workload": dict(SMALL_CONV),
            "arch": "tiny"}
    spec.update(overrides)
    return spec


async def _daemon_session(config, body):
    """Run ``await body(daemon)`` against a serving daemon, then stop."""
    daemon = ServeDaemon(config)
    server = asyncio.get_running_loop().create_task(daemon.serve())
    try:
        while daemon.manager is None or daemon.port is None:
            await asyncio.sleep(0.01)
        return await body(daemon)
    finally:
        daemon.request_stop()
        await server


def with_daemon(body, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("workers", 0)
    return asyncio.run(_daemon_session(ServeConfig(**config_kwargs), body))


def run_jobs(specs, **config_kwargs):
    """Submit specs sequentially to one fresh daemon; return Job records."""
    async def body(daemon):
        jobs = []
        for spec in specs:
            job = daemon.manager.submit(spec)
            await job.runner
            jobs.append(job)
        return jobs
    return with_daemon(body, **config_kwargs)


# ---------------------------------------------------------------------------
# protocol: normalisation, decomposition, merging
# ---------------------------------------------------------------------------

TINY_DOC = architecture_to_dict(tiny())
CONV_DOC = workload_to_dict(build_workload("conv1d",
                                           ["K=4", "C=4", "P=14", "R=3"]))


def _with_leaf(doc, path, value):
    """A deep copy of ``doc`` with the leaf at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _leaf_paths(doc, path=()):
    """Every key/index path into ``doc`` (containers included)."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield path + (key,)
        yield from _leaf_paths(value, path + (key,))


# Valid specs covering every field normalisation reads.
VALID_SPECS = [
    schedule_spec(shards=2, options={"cache_size": 100},
                  sparsity={"density": ["ifmap=0.5"],
                            "format": ["ifmap=csr"],
                            "saf": ["ifmap=skipping"]}),
    {"kind": "schedule", "workload": CONV_DOC, "arch": TINY_DOC,
     "objective": "energy"},
    {"kind": "compare", "workload": SMALL_FC, "arch": "tiny",
     "mappers": ["timeloop", "gamma"]},
    {"kind": "network", "arch": "tiny", "tech": "cmos7",
     "layers": [CONV_DOC, SMALL_FC]},
]
MUTATIONS = [None, True, False, 0, 1, -1, 2.5, 5, "x", "", [], [1], [None],
             {}, {"a": 1}]
ONE_LEAF_MUTATIONS = [(spec, path) for spec in VALID_SPECS
                      for path in _leaf_paths(spec)]

# One malformed field each: (spec, the field the 400 must name).
HOSTILE_SPECS = {
    "cache_size-str": (schedule_spec(options={"cache_size": "x"}),
                       "cache_size"),
    "cache_size-list": (schedule_spec(options={"cache_size": [1]}),
                        "cache_size"),
    "density-int": (schedule_spec(sparsity={"density": 5}),
                    "sparsity.density"),
    "format-bool": (schedule_spec(sparsity={"format": True}),
                    "sparsity.format"),
    "saf-null-entry": (schedule_spec(sparsity={"saf": [None]}),
                       "sparsity.saf"),
    "density-int-entry": (schedule_spec(sparsity={"density": [5]}),
                          "sparsity.density"),
    "mapper-int": ({"kind": "compare", "workload": SMALL_CONV,
                    "mappers": [1]}, "mappers"),
    "mapper-null": ({"kind": "compare", "workload": SMALL_CONV,
                     "mappers": ["gamma", None]}, "mappers"),
    "arch-level-null": (schedule_spec(arch=_with_leaf(TINY_DOC,
                                                      ("levels", 0), None)),
                        "architecture"),
    "ref-dim-float": (schedule_spec(workload=_with_leaf(
        SMALL_CONV, ("dims", "P"), 4.5)), "workload dim 'P'"),
    "ref-dim-bool": (schedule_spec(workload=_with_leaf(
        SMALL_CONV, ("dims", "R"), True)), "workload dim 'R'"),
    "inline-dim-float": (schedule_spec(workload=_with_leaf(
        CONV_DOC, ("dims", "K"), 2.5)), "workload dim 'K'"),
    "inline-dim-bool": (schedule_spec(workload=_with_leaf(
        CONV_DOC, ("dims", "C"), True)), "workload dim 'C'"),
    "shards-float": (schedule_spec(shards=2.5), "shards"),
    "shards-bool": (schedule_spec(shards=True), "shards"),
    # Inline documents: integer fields are JSON integers and energies
    # and bandwidths JSON numbers (mapping/serialize.py's one rule).
    "inline-read-energy-str": (schedule_spec(arch=_with_leaf(
        TINY_DOC, ("levels", 0, "read_energy"), "x")), "read_energy"),
    "inline-read-bandwidth-str": (schedule_spec(arch=_with_leaf(
        TINY_DOC, ("levels", 1, "read_bandwidth"), "x")), "read_bandwidth"),
    "inline-mac-width-float": (schedule_spec(arch=_with_leaf(
        TINY_DOC, ("mac_width",), 2.5)), "mac_width"),
    "inline-fanout-float": (schedule_spec(arch=_with_leaf(
        TINY_DOC, ("levels", 1, "fanout"), 2.5)), "fanout"),
    "inline-stride-float": (schedule_spec(workload=_with_leaf(
        CONV_DOC, ("tensors", 0, "indices", 1, "stride"), 2.5)), "stride"),
    "inline-capacity-float": (schedule_spec(arch=_with_leaf(
        TINY_DOC, ("levels", 0, "capacity_words", "*"), 2.5)),
        "capacity_words"),
    "inline-fanout-bool": (schedule_spec(arch=_with_leaf(
        TINY_DOC, ("levels", 1, "fanout"), True)), "fanout"),
    # A level's component fields follow the same rule.
    "inline-regfile-component-bool-float": (schedule_spec(arch=_with_leaf(
        TINY_DOC, ("levels", 0, "component"),
        {"kind": "regfile", "entries": True, "word_bits": 2.5})),
        "level 'L1' component (entries|word_bits)"),
    "inline-sram-component-str": (schedule_spec(arch=_with_leaf(
        TINY_DOC, ("levels", 0, "component"),
        {"kind": "sram", "capacity_bytes": "128"})),
        "level 'L1' component capacity_bytes"),
    "inline-fixed-component-str-bool": (schedule_spec(arch=_with_leaf(
        TINY_DOC, ("levels", 0, "component"),
        {"kind": "fixed", "read_energy": "1.5", "write_energy": True})),
        "level 'L1' component (read|write)_energy"),
}


def _assert_typed_workload(doc):
    """Every numeric leaf of a workload document is a JSON integer."""
    assert all(type(size) is int for size in doc["dims"].values())
    for tensor in doc["tensors"]:
        assert all(type(index["stride"]) is int
                   for index in tensor["indices"])


def _assert_typed_components(doc):
    """Every component of an architecture document has a string
    ``kind``, JSON-integer sizes and JSON-number energies."""
    for level in doc["levels"]:
        component = level.get("component")
        if component is None:
            continue
        assert type(component["kind"]) is str
        assert all(type(component[key]) is int for key in
                   ("capacity_bytes", "word_bits", "banks", "entries")
                   if key in component)
        assert all(type(component[key]) in (int, float) for key in
                   ("read_energy", "write_energy") if key in component)


def _assert_typed_arch(doc):
    """Integer fields of an architecture document are JSON integers,
    energies and bandwidths JSON numbers (bandwidth ``null`` = inf)."""
    def number(value):
        return type(value) in (int, float)

    assert number(doc["mac_energy"]) and type(doc["mac_width"]) is int
    assert type(doc.get("mac_word_bits", 0)) is int
    for level in doc["levels"]:
        capacity = level["capacity_words"] or {}
        assert all(type(words) is int for words in capacity.values())
        assert type(level["fanout"]) is int
        assert all(type(n) is int for n in level["fanout_shape"] or ())
        assert all(number(level[key]) for key in
                   ("read_energy", "write_energy", "network_energy"))
        assert all(level.get(key) is None or number(level[key]) for key in
                   ("read_bandwidth", "write_bandwidth", "link_bandwidth"))


class TestProtocol:
    def test_rejects_bad_specs(self):
        with pytest.raises(ProtocolError, match="kind"):
            normalize_job({"kind": "frobnicate"})
        with pytest.raises(ProtocolError, match="workload"):
            normalize_job({"kind": "schedule"})
        with pytest.raises(ProtocolError, match="shards"):
            normalize_job(schedule_spec(shards=0))
        with pytest.raises(ProtocolError, match="architecture"):
            normalize_job(schedule_spec(arch="tpu"))
        with pytest.raises(ProtocolError, match="mapper"):
            normalize_job({"kind": "compare", "workload": SMALL_CONV,
                           "mappers": "alexnet"})
        with pytest.raises(ProtocolError, match="layers"):
            normalize_job({"kind": "network", "layers": []})
        with pytest.raises(ProtocolError, match="objective"):
            normalize_job(schedule_spec(objective="latency"))

    @pytest.mark.parametrize("case", sorted(HOSTILE_SPECS))
    def test_malformed_field_is_a_protocol_error(self, case):
        """A dim size, shard count or cache size must be a JSON integer
        (never a bool, never truncated), a sparsity assignment or mapper
        name a string, and any other malformed field a ProtocolError
        naming it — never another exception (a 500) or a coerced job."""
        spec, field = HOSTILE_SPECS[case]
        with pytest.raises(ProtocolError, match=field):
            normalize_job(spec)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(ONE_LEAF_MUTATIONS), st.sampled_from(MUTATIONS))
    def test_one_leaf_mutations_normalise_or_answer_400(self, target,
                                                        value):
        spec, path = target
        mutated = _with_leaf(spec, path, value)
        try:
            job = normalize_job(mutated)
        except ProtocolError:
            return
        sent = ([mutated["workload"]] if "workload" in mutated
                else mutated["layers"])
        got = [job["workload"]] if "workload" in job else job["layers"]
        for sent_doc, doc in zip(sent, got):
            for dim, size in sent_doc["dims"].items():
                assert type(size) is int
                assert doc["dims"][dim] == size
            _assert_typed_workload(doc)
        _assert_typed_arch(job["arch"])
        if isinstance(mutated.get("arch"), dict):
            # The sent components were accepted as they are, not coerced.
            _assert_typed_components(mutated["arch"])

    def test_tech_field_resolves_and_keys_the_fingerprint(self):
        base = normalize_job(schedule_spec())
        alt = normalize_job(schedule_spec(tech="cmos7"))
        assert alt["tech"] == "cmos7"
        assert "tech" not in base
        # The resolved arch doc embeds the pack's energies, and the job
        # fingerprint separates the two runs.
        assert alt["arch"] != base["arch"]
        assert job_fingerprint(alt) != job_fingerprint(base)
        # Explicitly requesting the default pack is also recorded.
        default = normalize_job(schedule_spec(tech="cmos45"))
        assert default["tech"] == "cmos45"
        assert default["arch"] == base["arch"]
        assert job_fingerprint(default) != job_fingerprint(base)

    def test_rejects_unknown_tech(self):
        with pytest.raises(ProtocolError, match="technology"):
            normalize_job(schedule_spec(tech="3nm-imaginary"))

    def test_normalisation_preserves_dim_order(self):
        # Dict order in the workload doc is the searchers' iteration
        # order; sorting it would change sampler trajectories vs the
        # cold CLI (the bug this pins).
        job = normalize_job(schedule_spec())
        assert list(job["workload"]["dims"]) == ["K", "C", "P", "R"]

    def test_fingerprint_is_content_keyed(self):
        a = normalize_job(schedule_spec())
        b = normalize_job(schedule_spec())
        c = normalize_job(schedule_spec(shards=2))
        assert job_fingerprint(a) == job_fingerprint(b)
        assert job_fingerprint(a) != job_fingerprint(c)

    def test_schedule_decomposes_into_shard_tasks(self):
        job = normalize_job(schedule_spec(shards=3))
        tasks = decompose_job(job)
        assert [t["shard"] for t in tasks] == [[0, 3], [1, 3], [2, 3]]
        # shards=1 must be the *unsharded* CLI run, not --shard 0/1.
        solo = decompose_job(normalize_job(schedule_spec()))
        assert solo[0]["shard"] is None

    def test_compare_decomposes_in_canonical_cli_order(self):
        job = normalize_job({"kind": "compare", "workload": SMALL_CONV,
                             "arch": "tiny", "mappers": "cosa,timeloop"})
        names = [t["name"] for t in decompose_job(job)]
        assert names == ["sunstone", "timeloop-like", "cosa-like"]

    def test_network_dedupes_repeated_shapes(self):
        layers = [SMALL_CONV, SMALL_FC, SMALL_CONV]
        job = normalize_job({"kind": "network", "arch": "tiny",
                             "layers": layers})
        tasks = decompose_job(job)
        assert len(tasks) == 2
        assert tasks[0]["covers"] == [0, 2]

    def test_merge_requires_all_parts(self):
        job = normalize_job(schedule_spec(shards=2))
        with pytest.raises(ProtocolError, match="incomplete"):
            merge_job(job, {})

    def test_merge_stats_recomputes_derived_ratios(self):
        merged = merge_stats([
            {"evaluations": 6, "cache_hits": 2,
             "hit_rate": 0.25, "requests": 8,
             "faults": {"degraded_serial": False, "retries": 1}},
            {"evaluations": 2, "cache_hits": 6,
             "hit_rate": 0.75, "requests": 8,
             "faults": {"degraded_serial": True, "retries": 2}},
        ])
        assert merged["evaluations"] == 8
        assert merged["cache_hits"] == 8
        assert merged["requests"] == 16
        assert merged["hit_rate"] == 0.5
        assert merged["faults"] == {"degraded_serial": True, "retries": 3}

    def test_outcome_sort_key_ranks_validity_then_value(self):
        lose = {"found": False, "cost": None}
        ok = {"found": True,
              "cost": {"edp": 2.0, "energy_pj": 1.0, "valid": True},
              "mapping": {"levels": []}}
        invalid = {"found": True,
                   "cost": {"edp": 1.0, "energy_pj": 1.0, "valid": False},
                   "mapping": {"levels": []}}
        ranked = sorted([lose, invalid, ok],
                        key=lambda d: outcome_sort_key(d, "edp"))
        assert ranked == [ok, invalid, lose]


# ---------------------------------------------------------------------------
# bit-identity vs the cold CLI
# ---------------------------------------------------------------------------

def cold_schedule(shard=None):
    workload = build_workload("conv1d", ["K=4", "C=4", "P=14", "R=3"])
    arch = build_architecture("tiny")
    result = schedule(workload, arch, SchedulerOptions(shard=shard))
    return rt({"found": result.found,
               "mapping": mapping_to_dict(result.mapping),
               "cost": cost_doc(result.cost),
               "evaluations": result.stats.evaluations})


class TestBitIdentity:
    def test_one_shard_job_equals_cold_cli_run(self):
        job, = run_jobs([schedule_spec()])
        cold = cold_schedule()
        assert job.state == "done", job.error
        assert job.result["mapping"] == cold["mapping"]
        assert job.result["cost"] == cold["cost"]
        assert job.result["evaluations"] == cold["evaluations"]
        assert job.result["status"] == "ok"

    def test_sharded_job_equals_canonical_merge_of_cold_shards(self):
        n = 3
        job, = run_jobs([schedule_spec(shards=n)])
        colds = [cold_schedule(shard=(i, n)) for i in range(n)]
        best = min(colds, key=lambda d: outcome_sort_key(d, "edp"))
        assert job.state == "done", job.error
        assert job.result["mapping"] == best["mapping"]
        assert job.result["cost"] == best["cost"]
        assert job.result["evaluations"] == sum(c["evaluations"]
                                                for c in colds)
        assert [p["shard"] for p in job.result["per_shard"]] == [
            [i, n] for i in range(n)]

    def test_compare_job_rows_equal_cold_cli_rows(self):
        workload = build_workload("conv1d", ["K=4", "C=4", "P=14", "R=3"])
        arch = build_architecture("tiny")
        want = {name: rt(result_doc(run_mapper(name, workload, arch,
                                               SchedulerOptions())))
                for name in ("sunstone", "timeloop-like", "gamma-like")}
        job, = run_jobs([{
            "kind": "compare", "workload": SMALL_CONV, "arch": "tiny",
            "mappers": "timeloop,gamma",
        }])
        assert job.state == "done", job.error
        rows = {row["mapper"]: row for row in job.result["mappers"]}
        assert set(rows) == set(want)
        for name, cold in want.items():
            assert rows[name]["mapping"] == cold["mapping"], name
            assert rows[name]["cost"] == cold["cost"], name
            assert rows[name]["evaluations"] == cold["evaluations"], name
            assert rows[name]["status"] == cold["status"], name

    def test_network_job_equals_cold_schedule_network(self):
        model = [build_workload("conv1d", ["K=4", "C=4", "P=14", "R=3"]),
                 build_workload("fc", ["N=2", "K=8", "C=8"])]
        model.append(model[0])
        network = schedule_network(model, build_architecture("tiny"),
                                   SchedulerOptions())
        job, = run_jobs([{
            "kind": "network", "arch": "tiny",
            "layers": [workload_to_dict(w) for w in model],
        }])
        assert job.state == "done", job.error
        result = job.result
        assert result["found_all"] is network.all_found
        for got, entry in zip(result["layers"], network.layers):
            assert got["mapping"] == rt(mapping_to_dict(entry.result.mapping))
            assert got["cost"] == rt(cost_doc(entry.result.cost))
            assert got["shared_with"] == entry.shared_with
        totals = rt({"energy_pj": network.total_energy_pj,
                     "cycles": network.total_cycles,
                     "edp": network.total_edp})
        assert result["totals"]["energy_pj"] == totals["energy_pj"]
        assert result["totals"]["cycles"] == totals["cycles"]
        assert result["totals"]["edp"] == totals["edp"]
        assert result["totals"]["unique_searches"] == 2

    def test_warm_cache_changes_accounting_but_never_results(self):
        first, second = run_jobs([schedule_spec(), schedule_spec()])
        assert first.seed_hits == 0
        assert second.seed_hits > 0
        # The shared cache is a pure accelerator: identical outcome...
        assert second.result["mapping"] == first.result["mapping"]
        assert second.result["cost"] == first.result["cost"]
        assert second.result["evaluations"] == first.result["evaluations"]
        # ...with strictly less model execution.
        assert (second.result["search"]["evaluations"]
                < first.result["search"]["evaluations"])


    def test_warm_waves_equal_cold_runs_with_less_model_work(self,
                                                             tmp_path,
                                                             capsys):
        """Two waves of jobs on one daemon against the same requests as
        cold ``repro schedule`` runs: every warm answer is the cold one,
        the repeat wave hits the shared cache, and the daemon runs the
        cost model fewer times than the cold runs do together."""
        specs = [schedule_spec(), schedule_spec(workload=dict(SMALL_FC))]
        jobs = run_jobs(specs * 2)
        colds = []
        for spec in specs:
            path = tmp_path / f"{spec['workload']['kind']}.json"
            dims = [f"{d}={v}" for d, v in spec["workload"]["dims"].items()]
            assert main(["schedule", "--workload", spec["workload"]["kind"],
                         "--arch", "tiny", "--stats-json", str(path),
                         *dims]) == 0
            colds.append(json.loads(path.read_text()))
        capsys.readouterr()
        for job, cold in zip(jobs, colds * 2):
            assert job.state == "done", job.error
            assert job.result["mapping"] == cold["mapping"]
            assert job.result["cost"] == cold["cost"]
            assert job.result["evaluations"] == cold["evaluations"]
        assert sum(job.seed_hits for job in jobs[len(specs):]) > 0
        warm_model_runs = sum(job.result["search"]["evaluations"]
                              for job in jobs)
        cold_model_runs = 2 * sum(cold["search"]["evaluations"]
                                  for cold in colds)
        assert cold_model_runs > warm_model_runs


# ---------------------------------------------------------------------------
# fleet: worker death and recovery
# ---------------------------------------------------------------------------

class TestFleet:
    def test_killed_worker_is_retried_bit_identically(self, monkeypatch):
        job_inline, = run_jobs([schedule_spec(shards=2)])
        monkeypatch.setenv("REPRO_SERVE_KILL_TASK", "j00001:1")

        async def body(daemon):
            job = daemon.manager.submit(schedule_spec(shards=2))
            await job.runner
            return job, daemon.fleet.stats()

        job, fleet_stats = with_daemon(body, workers=1)
        assert job.state == "done", job.error
        assert fleet_stats["crashes_recovered"] >= 1
        assert fleet_stats["retries"] >= 1
        assert job.result["mapping"] == job_inline.result["mapping"]
        assert job.result["cost"] == job_inline.result["cost"]
        assert job.result["evaluations"] == job_inline.result["evaluations"]

    def test_fleet_rejects_bad_config(self):
        with pytest.raises(ValueError):
            WorkerFleet(-1)
        with pytest.raises(ValueError):
            WorkerFleet(0, max_task_attempts=0)

    def test_task_error_propagates_without_retry(self):
        # A deterministic task error (bad workload doc) must surface
        # immediately rather than burn the retry budget.
        bad = {"type": "schedule", "index": 0, "workload": {"bad": 1},
               "arch": {}, "objective": "edp", "sparsity": None,
               "shard": None, "options": {"cache_size": None}}
        with pytest.raises(Exception):
            run_task({"job_id": "x", "task": bad, "seed": [], "attempt": 0})


# ---------------------------------------------------------------------------
# connection/lifecycle bugfixes (this PR's satellites)
# ---------------------------------------------------------------------------

def raw_http(port, data, timeout=20.0):
    """One raw request on a fresh socket; returns the response bytes."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        if data:
            sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestConnectionHardening:
    def test_negative_content_length_is_rejected_with_400(self):
        # int("-5") parses, and readexactly(-5) used to blow up into a
        # 500 via the blanket handler.
        async def body(daemon):
            return await asyncio.to_thread(
                raw_http, daemon.port,
                b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n")

        response = with_daemon(body)
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"Content-Length" in response

    def test_oversized_content_length_is_rejected_with_400(self):
        async def body(daemon):
            return await asyncio.to_thread(
                raw_http, daemon.port,
                b"POST /jobs HTTP/1.1\r\n"
                b"Content-Length: 999999999999\r\n\r\n")

        response = with_daemon(body)
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"too large" in response

    def test_body_nested_past_recursion_limit_is_rejected_with_400(self):
        # json.loads raises RecursionError, not ValueError, on a body
        # this deep.
        body_bytes = b"[" * 100_000 + b"]" * 100_000

        async def body(daemon):
            nested = await asyncio.to_thread(
                raw_http, daemon.port,
                b"POST /jobs HTTP/1.1\r\n"
                + f"Content-Length: {len(body_bytes)}\r\n\r\n".encode()
                + body_bytes)
            health = await asyncio.to_thread(
                raw_http, daemon.port, b"GET /healthz HTTP/1.1\r\n\r\n")
            return nested, health

        nested, health = with_daemon(body)
        assert nested.startswith(b"HTTP/1.1 400 ")
        assert b"body is not valid JSON" in nested
        assert health.startswith(b"HTTP/1.1 200 ")

    def test_stalled_request_times_out_with_408(self):
        # A client that connects and never finishes its headers must
        # not pin the handler task forever.
        async def body(daemon):
            return await asyncio.to_thread(
                raw_http, daemon.port, b"POST /jobs HTTP/1.1\r\n")

        response = with_daemon(body, read_timeout_s=0.3)
        assert response.startswith(b"HTTP/1.1 408 ")


class _FailingFleet(FleetBackend):
    """Task index 1 fails fast; every other task lingers and must be
    cancelled instead of journaling parts for a dead job."""

    workers = 4

    def __init__(self):
        self.cancelled = 0

    async def run(self, payload):
        index = payload["task"]["index"]
        if index == 1:
            await asyncio.sleep(0.05)
            raise RuntimeError("deterministic task error")
        try:
            await asyncio.sleep(60)
        except asyncio.CancelledError:
            self.cancelled += 1
            raise
        return {"index": index, "doc": {}, "stats": None,
                "seed_hits": 0, "entries": [], "wall_time_s": 0.0}

    def stats(self):
        return {"backend": "fake"}

    def close(self):
        pass


class TestJobLifecycle:
    def test_first_failure_cancels_siblings_no_stray_journal_appends(
            self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "serve.jsonl"),
                                    {"kind": "serve"})
        fleet = _FailingFleet()

        async def body():
            manager = JobManager(fleet, SharedEvalCache(), journal=journal)
            job = manager.submit(schedule_spec(shards=3))
            await job.runner
            assert job.state == "failed"
            assert "deterministic task error" in job.error
            # Give any stray sibling time to (incorrectly) journal.
            await asyncio.sleep(0.2)
            return job

        job = asyncio.run(body())
        assert fleet.cancelled == 2
        assert journal.all("task") == []
        assert [e["id"] for e in journal.all("failed")] == [job.id]

    def test_gate_follows_backend_dispatch_width(self):
        async def probe():
            return JobManager(_FailingFleet(),
                              SharedEvalCache())._gate._value

        assert asyncio.run(probe()) == 4


class _CountingJournal:
    def __init__(self, inner):
        self.inner = inner
        self.all_calls = Counter()

    def all(self, kind):
        self.all_calls[kind] += 1
        return self.inner.all(kind)

    def append(self, entry):
        return self.inner.append(entry)


class TestResumeScan:
    def test_resume_scans_the_journal_once_not_once_per_job(
            self, tmp_path):
        journal_path = str(tmp_path / "serve.jsonl")
        jobs = run_jobs([schedule_spec(), schedule_spec(shards=2),
                         schedule_spec(shards=3)],
                        journal_path=journal_path)
        assert all(job.state == "done" for job in jobs)
        counting = _CountingJournal(CheckpointJournal(
            journal_path, {"kind": "serve"}, resume=True))
        manager = JobManager(WorkerFleet(0), SharedEvalCache(),
                             journal=counting)
        restarted = manager.resume()
        assert restarted == []
        assert len(manager.jobs) == 3
        assert all(job.state == "done" for job in manager.jobs.values())
        # O(1) journal passes however many jobs the journal holds
        # (used to be one full task scan per job).
        assert counting.all_calls == {"failed": 1, "task": 1, "job": 1}


class TestFleetCounters:
    def test_cancelled_run_cancels_the_pool_future(self):
        class _StubPool:
            def __init__(self):
                self.futures = []

            def submit(self, fn, payload):
                future = Future()
                self.futures.append(future)
                return future

            def shutdown(self, wait=False, cancel_futures=False):
                pass

        async def body():
            fleet = WorkerFleet(0)
            fleet.workers = 1  # force the pooled path onto the stub
            stub = fleet._pool = _StubPool()
            task = asyncio.ensure_future(fleet.run(
                {"job_id": "x", "task": {"index": 0}, "seed": [],
                 "attempt": 0}))
            while not stub.futures:
                await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return stub

        stub = asyncio.run(body())
        # The abandoned pool future used to keep grinding; now the
        # cancellation reaches it.
        assert stub.futures[0].cancelled()

    def test_counter_writes_share_the_stats_lock(self):
        fleet = WorkerFleet(0)
        with fleet._lock:
            thread = threading.Thread(target=fleet._count,
                                      args=("tasks_run",))
            thread.start()
            thread.join(timeout=0.2)
            assert thread.is_alive()  # blocked on the held lock
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert fleet.tasks_run == 1


class TestBackpressure:
    def test_full_queue_answers_429_with_retry_after(self):
        # A remote fleet with no workers keeps every task pending, so
        # the second submit deterministically overflows the bound.
        async def body(daemon):
            manager = daemon.manager
            manager.submit(schedule_spec(shards=2))
            with pytest.raises(QueueFullError) as err:
                manager.submit(schedule_spec())
            assert err.value.retry_after_s >= 1
            spec = json.dumps(schedule_spec()).encode()
            request = (f"POST /jobs HTTP/1.1\r\n"
                       f"Content-Length: {len(spec)}\r\n\r\n"
                       ).encode() + spec
            return await asyncio.to_thread(raw_http, daemon.port, request)

        response = with_daemon(body, fleet="remote", queue_limit=1,
                               poll_s=0.2)
        assert response.startswith(b"HTTP/1.1 429 ")
        assert b"Retry-After:" in response
        assert b"retry_after_s" in response


# ---------------------------------------------------------------------------
# durability: journal, restart, resume
# ---------------------------------------------------------------------------

class TestResume:
    def test_restart_recovers_finished_job_without_rerunning(self, tmp_path):
        journal = str(tmp_path / "serve.jsonl")
        job, = run_jobs([schedule_spec(shards=2)], journal_path=journal)
        assert job.state == "done"

        async def body(daemon):
            recovered = daemon.manager.get(job.id)
            assert recovered is not None
            if recovered.runner is not None:
                await recovered.runner
            # Replay-only recovery: the fleet never executed a task.
            return recovered, daemon.fleet.stats()

        recovered, fleet_stats = with_daemon(body, journal_path=journal,
                                             resume=True)
        assert recovered.state == "done"
        assert recovered.result == job.result
        assert fleet_stats["tasks_run"] == 0

    def test_restart_completes_partial_job_bit_identically(self, tmp_path):
        uninterrupted, = run_jobs([schedule_spec(shards=2)])
        journal = str(tmp_path / "serve.jsonl")
        job, = run_jobs([schedule_spec(shards=2)], journal_path=journal)

        # Simulate a daemon killed after one task: drop one task entry
        # (and the clean-shutdown marker) from the journal.
        from repro.search.checkpoint import _encode_line
        entries = read_journal_entries(journal)
        kept, dropped_one = [], False
        for entry in entries:
            if entry.get("type") == "shutdown":
                continue
            if entry.get("type") == "task" and not dropped_one:
                dropped_one = True
                continue
            kept.append(entry)
        assert dropped_one
        with open(journal, "w", encoding="utf-8") as handle:
            handle.writelines(_encode_line(e) for e in kept)

        async def body(daemon):
            restored = daemon.manager.get(job.id)
            assert restored is not None
            if restored.runner is not None:
                await restored.runner
            return restored

        restored = with_daemon(body, journal_path=journal, resume=True)
        assert restored.state == "done", restored.error
        assert (sans_timing(restored.result)
                == sans_timing(uninterrupted.result))

    def test_journal_with_retired_batch_options_resumes_bit_identically(
            self, tmp_path):
        """A journal whose job docs still carry the retired ``batch`` and
        ``batch_gen`` options resumes: every task re-runs from that doc
        and the outcome is the uninterrupted one."""
        uninterrupted, = run_jobs([schedule_spec(shards=2)])
        journal = str(tmp_path / "serve.jsonl")
        job, = run_jobs([schedule_spec(shards=2)], journal_path=journal)

        # The job doc as earlier releases journaled it, with no task part
        # and no clean-shutdown marker: a daemon killed before any task.
        from repro.search.checkpoint import _encode_line
        legacy = {"batch": True, "batch_gen": True, "bound": True,
                  "cache_size": None}
        kept = []
        for entry in read_journal_entries(journal):
            if entry.get("type") in ("shutdown", "task"):
                continue
            if entry.get("type") == "job":
                entry["spec"]["options"] = dict(legacy)
            kept.append(entry)
        with open(journal, "w", encoding="utf-8") as handle:
            handle.writelines(_encode_line(e) for e in kept)

        async def body(daemon):
            restored = daemon.manager.get(job.id)
            if restored.runner is not None:
                await restored.runner
            return restored, daemon.fleet.stats()

        restored, fleet_stats = with_daemon(body, journal_path=journal,
                                            resume=True)
        assert restored.state == "done", restored.error
        assert restored.spec["options"] == legacy
        assert fleet_stats["tasks_run"] == 2  # both tasks really re-ran
        for field in ("found", "mapping", "cost", "evaluations",
                      "certificate"):
            assert restored.result[field] == uninterrupted.result[field], \
                field
        assert (sans_timing(restored.result)
                == sans_timing(uninterrupted.result))

    def test_daemon_journal_survives_with_stale_temp_sweep(self, tmp_path):
        journal = tmp_path / "serve.jsonl"
        stale = tmp_path / "serve.jsonl.deadbeef.tmp"
        stale.write_text("garbage")
        run_jobs([schedule_spec()], journal_path=str(journal))
        assert not stale.exists()


# ---------------------------------------------------------------------------
# HTTP front-end + client + CLI client commands
# ---------------------------------------------------------------------------

def http_session(body):
    """Serve on an ephemeral port; run blocking client code in a thread."""
    async def outer(daemon):
        client = ServeClient("127.0.0.1", daemon.port)
        return await asyncio.to_thread(body, client)
    return with_daemon(outer)


class TestHttp:
    def test_full_client_round_trip(self):
        def drive(client):
            health = client.healthz()
            assert health["ok"] is True
            row = client.submit(schedule_spec(shards=2))
            assert row["kind"] == "schedule"
            assert row["tasks_total"] == 2
            doc = client.result(row["id"], wait=True)
            assert doc["state"] == "done"
            assert doc["result"]["status"] == "ok"
            jobs = client.jobs()
            assert [j["id"] for j in jobs] == [row["id"]]
            stats = client.stats()
            assert row["id"] in stats["jobs"]
            assert stats["cache"]["admitted"] > 0
            assert "bound" in stats["jobs"][row["id"]]["search"]
            # The winning shard's certificate survives the merge.
            assert doc["result"]["certificate"] is not None
            assert doc["result"]["certificate"]["gap_pct"] >= 0.0
            return doc

        doc = http_session(drive)
        best = min([cold_schedule(shard=(0, 2)), cold_schedule(shard=(1, 2))],
                   key=lambda d: outcome_sort_key(d, "edp"))
        # Bit-identity holds across the wire too, not just in-process.
        assert doc["result"]["mapping"] == best["mapping"]
        assert doc["result"]["cost"] == best["cost"]

    def test_error_responses(self):
        def drive(client):
            from repro.serve import ServeError
            with pytest.raises(ServeError, match="kind"):
                client.submit({"kind": "nope"})
            with pytest.raises(ServeError, match="no such job"):
                client.result("j99999")
            with pytest.raises(ServeError, match="no route"):
                client._request("GET", "/frobnicate")
            return True

        assert http_session(drive)

    def test_retired_batch_options_answer_400(self):
        def drive(client):
            from repro.serve import ServeError
            for option in ("batch", "batch_gen", "bound"):
                with pytest.raises(ServeError,
                                   match="unknown option") as caught:
                    client.submit(schedule_spec(options={option: False}))
                assert caught.value.status == 400
            return True

        assert http_session(drive)

    def test_malformed_spec_answers_400_and_daemon_stays_up(self):
        def drive(client):
            from repro.serve import ServeError
            with pytest.raises(ServeError, match="cache_size") as caught:
                client.submit(schedule_spec(options={"cache_size": "abc"}))
            assert caught.value.status == 400
            assert client.healthz()["ok"] is True
            return True

        assert http_session(drive)

    def test_malformed_inline_document_answers_400(self):
        def drive(client):
            from repro.serve import ServeError
            spec, field = HOSTILE_SPECS["inline-read-energy-str"]
            with pytest.raises(ServeError, match=field) as caught:
                client.submit(spec)
            assert caught.value.status == 400
            assert client.healthz()["ok"] is True
            return True

        assert http_session(drive)

    def test_result_conflict_while_running_then_wait(self):
        def drive(client):
            row = client.submit(schedule_spec(shards=2))
            doc = client.result(row["id"], wait=True)
            assert doc["result"]["found"]
            return True

        assert http_session(drive)


class TestServeCli:
    @pytest.fixture()
    def daemon_proc(self, tmp_path):
        env = {"PYTHONPATH": str(REPO_ROOT / "src"),
               "PATH": "/usr/bin:/bin"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=str(tmp_path))
        ready = proc.stdout.readline()
        assert "serving on http://" in ready, proc.stderr.read()
        port = int(ready.rsplit(":", 1)[1].split()[0])
        try:
            yield port
        finally:
            if proc.poll() is None:
                proc.terminate()
            proc.wait(timeout=30)

    def test_submit_jobs_result_commands(self, daemon_proc, capsys):
        port = str(daemon_proc)
        code = main(["submit", "--port", port, "--workload", "conv1d",
                     "--arch", "tiny", "--shards", "2", "--wait",
                     "K=4", "C=4", "P=14", "R=3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "submitted j00001" in out
        assert "status ok" in out

        assert main(["jobs", "--port", port]) == 0
        out = capsys.readouterr().out
        assert "j00001" in out and "done" in out

        assert main(["result", "--port", port, "j00001"]) == 0
        out = capsys.readouterr().out
        assert "candidates evaluated" in out

    def test_client_error_against_dead_daemon(self, capsys):
        code = main(["jobs", "--port", "1"])  # nothing listens on port 1
        assert code == 1
        assert "serve error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# satellite 1: SIGTERM drains cleanly with exit 143
# ---------------------------------------------------------------------------

_SIGTERM_ARGS = ["--workload", "conv1d", "--arch", "tiny",
                 "K=4", "C=4", "P=14", "R=3"]


class TestGracefulSigterm:
    def test_sigterm_mid_search_exits_143_and_flushes_journal(
            self, tmp_path):
        ckpt = str(tmp_path / "term.jsonl")
        env = {"PYTHONPATH": str(REPO_ROOT / "src"),
               "PATH": "/usr/bin:/bin",
               "REPRO_CHECKPOINT_KILL_AFTER": "1",
               "REPRO_CHECKPOINT_KILL_MODE": "sigterm"}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "schedule", *_SIGTERM_ARGS,
             "--checkpoint", ckpt],
            capture_output=True, text=True, timeout=600, env=env,
            cwd=str(tmp_path))
        assert proc.returncode == 143, proc.stderr
        assert "terminated" in proc.stderr
        # The final flush appended a durable interruption marker...
        entries = read_journal_entries(ckpt)
        assert any(e.get("type") == "interrupted"
                   and e.get("note") == "sigterm" for e in entries)

        # ...and the journal still resumes to the uninterrupted result.
        env_resume = {k: v for k, v in env.items()
                      if not k.startswith("REPRO_CHECKPOINT_KILL")}
        resumed = subprocess.run(
            [sys.executable, "-m", "repro", "schedule", *_SIGTERM_ARGS,
             "--checkpoint", ckpt, "--resume"],
            capture_output=True, text=True, timeout=600, env=env_resume,
            cwd=str(tmp_path))
        assert resumed.returncode == 0, resumed.stderr
        cold = subprocess.run(
            [sys.executable, "-m", "repro", "schedule", *_SIGTERM_ARGS],
            capture_output=True, text=True, timeout=600, env=env_resume,
            cwd=str(tmp_path))

        def essence(out):
            return [line for line in out.splitlines()
                    if "wall" not in line and " in " not in line
                    and "search engine:" not in line]

        assert essence(resumed.stdout) == essence(cold.stdout)

    def test_sigterm_handler_restored_after_main(self):
        before = signal.getsignal(signal.SIGTERM)
        main(["describe", "--arch", "tiny"])
        assert signal.getsignal(signal.SIGTERM) is before

    def test_graceful_exit_is_a_keyboard_interrupt(self):
        # The whole satellite leans on this: every existing interrupt
        # path (network --processes terminating its pool, journal
        # flush) must catch SIGTERM unchanged.
        from repro.cli import GracefulExit
        assert issubclass(GracefulExit, KeyboardInterrupt)

    def test_sigterm_in_worker_thread_does_not_install_handler(self):
        # Embedders call main() off the main thread; signal.signal would
        # raise ValueError there and must be swallowed.
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(main(["describe", "--arch",
                                              "tiny"])))
        thread.start()
        thread.join()
        assert codes == [0]
