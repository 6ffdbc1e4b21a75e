"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``schedule``
    Map a workload onto an accelerator and print the mapping, its loop
    nest and cost; optionally save the mapping document as JSON.
``compare``
    Run Sunstone and the baseline mappers on one workload and print a
    comparison table.
``evaluate``
    Re-evaluate a saved mapping document.
``describe``
    Print an architecture preset or the reuse table of a workload.
``tech``
    List the registered technology packs, or dump the resolved energy
    reference table (ERT) of a pack applied to an architecture.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Sequence

from . import workloads
from .arch import PRESETS, Architecture
from .baselines.common import certificate_from_bound
from .core import SchedulerOptions, schedule
from .mappers import cost_doc, result_doc, run_mapper, select_mappers
from .mapping import render_nest
from .mapping.serialize import (
    architecture_to_dict,
    load_mapping,
    mapping_to_dict,
    save_mapping,
    workload_to_dict,
)
from .model import evaluate
from .search import (
    CheckpointJournal,
    JournalError,
    SearchEngine,
    atomic_write_json,
    flush_active_journals,
)
from .sparse import SparsityError, SparsitySpec, spec_from_cli
from .workloads import Workload


def _parse_dims(pairs: Sequence[str]) -> dict[str, int]:
    dims = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"expected DIM=SIZE, got {pair!r}")
        name, _, value = pair.partition("=")
        dims[name] = int(value)
    return dims


def build_workload(kind: str, dims: Sequence[str]) -> Workload:
    """Construct a library workload from DIM=SIZE arguments."""
    try:
        return workloads.build_workload(kind, _parse_dims(dims))
    except LookupError as error:
        raise SystemExit(str(error))


def _resolve_tech(name: str | None):
    """Look up a technology pack by registry name or JSON path."""
    if name is None:
        return None
    from .energy.tech import TechnologyError, get_pack
    try:
        return get_pack(name)
    except (TechnologyError, OSError) as error:
        raise SystemExit(f"cannot resolve technology pack {name!r}: {error}")


def build_architecture(name: str, tech: str | None = None) -> Architecture:
    """Resolve a preset name or a JSON architecture-config path.

    ``tech`` retargets the architecture to another technology pack.
    Presets re-resolve their component descriptions directly; a JSON
    config can only be retargeted when it carries per-level ``component``
    metadata (configs written from presets do).
    """
    pack = _resolve_tech(tech)
    if name in PRESETS:
        if pack is not None:
            return PRESETS[name](tech=pack)
        return PRESETS[name]()
    if name.endswith(".json"):
        from .mapping.serialize import architecture_from_dict
        try:
            with open(name, encoding="utf-8") as handle:
                arch = architecture_from_dict(json.load(handle))
        except OSError as error:
            raise SystemExit(f"cannot read architecture config: {error}")
        except KeyError as error:
            raise SystemExit(f"bad architecture config {name!r}: "
                             f"missing field {error}")
        except (AttributeError, TypeError, ValueError) as error:
            raise SystemExit(f"bad architecture config {name!r}: {error}")
        if pack is not None and pack.name != arch.tech:
            if not any(lvl.component is not None for lvl in arch.levels):
                raise SystemExit(
                    f"architecture config {name!r} has no component "
                    f"metadata, so it cannot be retargeted to pack "
                    f"{pack.name!r}; regenerate the config from a preset "
                    f"or drop --tech")
            from .energy.tech import resolve_architecture
            arch = resolve_architecture(arch, pack)
        return arch
    raise SystemExit(f"unknown architecture {name!r}; choose from "
                     f"{sorted(PRESETS)} or pass a .json config")


def _parse_shard(text: str | None) -> tuple[int, int] | None:
    """Parse an ``I/N`` shard descriptor (e.g. ``0/4``)."""
    if text is None:
        return None
    from .mapspace import check_shard
    index, sep, count = text.partition("/")
    try:
        if not sep:
            raise ValueError
        shard = (int(index), int(count))
        return check_shard(shard)
    except ValueError as error:
        detail = f": {error}" if str(error) else ""
        raise SystemExit(f"expected --shard I/N with 0 <= I < N, "
                         f"got {text!r}{detail}")


def build_sparsity(args: argparse.Namespace,
                   workload: Workload) -> SparsitySpec | None:
    """Assemble the sparsity spec from --density/--format/--saf flags."""
    try:
        return spec_from_cli(
            args.density, args.format, args.saf,
            tensor_names=[t.name for t in workload.tensors],
        )
    except SparsityError as error:
        raise SystemExit(str(error))


def _certificate_line(certificate: dict | None) -> str | None:
    """Human-readable optimality certificate, or None when absent."""
    if not certificate:
        return None
    gap = certificate.get("gap_pct")
    if gap is None:
        return None
    return (f"certificate: best found is within {gap:.2f}% of the "
            f"analytic lower bound")


def _write_stats_json(path: str, document: dict) -> None:
    # Atomic (temp file + rename): a crash mid-dump must never leave a
    # truncated, unparseable stats file behind.
    atomic_write_json(path, document)
    print(f"stats saved to {path}")


def _open_journal(args: argparse.Namespace, meta: dict
                  ) -> CheckpointJournal | None:
    """Open the crash-safe checkpoint journal requested by --checkpoint/
    --resume (None when checkpointing is off)."""
    path = getattr(args, "checkpoint", None)
    resume = bool(getattr(args, "resume", False))
    if path is None:
        if resume:
            raise SystemExit("--resume requires --checkpoint PATH")
        return None
    try:
        return CheckpointJournal(
            path, meta, resume=resume,
            cache_snapshots=bool(getattr(args, "checkpoint_cache", False)))
    except JournalError as error:
        raise SystemExit(str(error))


def cmd_schedule(args: argparse.Namespace) -> int:
    """Schedule one workload and print mapping, nest, cost (and report)."""
    workload = build_workload(args.workload, args.dims)
    arch = build_architecture(args.arch, args.tech)
    sparsity = build_sparsity(args, workload)
    options = SchedulerOptions(objective=args.objective,
                               cache=not args.no_cache,
                               sparsity=sparsity,
                               cache_size=args.cache_size,
                               shard=_parse_shard(args.shard))
    journal = _open_journal(args, {
        "kind": "schedule",
        "workload": workload_to_dict(workload),
        "arch": architecture_to_dict(arch),
        "objective": args.objective,
        "sparsity": sparsity.describe() if sparsity else None,
        "shard": args.shard,
    })
    engine = None
    if journal is not None and not args.no_cache:
        warm = journal.load_cache_snapshot()
        if warm is not None:
            # Resume warm: seed the engine with the snapshotted result
            # cache (a pure accelerator — results are bit-identical).
            engine = SearchEngine(cache=warm, sparsity=sparsity,
                                  cache_size=args.cache_size)
    result = schedule(workload, arch, options, engine=engine,
                      journal=journal)
    if not result.found:
        print("no valid mapping found", file=sys.stderr)
        return 1
    print(result.mapping)
    print(render_nest(result.mapping))
    if sparsity is not None:
        print(f"sparsity: {sparsity.describe()}")
    print(result.cost.summary())
    if args.report:
        from .analysis.visualize import mapping_report
        print()
        print(mapping_report(result.mapping, result.cost))
    print(f"candidates evaluated: {result.stats.evaluations} in "
          f"{result.stats.wall_time_s:.2f}s")
    print(f"search engine: {result.stats.search.summary()}")
    certificate = certificate_from_bound(result.stats.bound)
    cert_line = _certificate_line(certificate)
    if cert_line is not None:
        print(cert_line)
    if args.profile:
        print(result.stats.search.profile_summary())
    if args.output:
        save_mapping(result.mapping, args.output)
        print(f"mapping saved to {args.output}")
    if args.stats_json:
        _write_stats_json(args.stats_json, {
            "command": "schedule",
            "workload": workload.name,
            "arch": arch.name,
            "objective": args.objective,
            "sparsity": sparsity.describe() if sparsity else None,
            "mapping": mapping_to_dict(result.mapping),
            "cost": cost_doc(result.cost),
            "evaluations": result.stats.evaluations,
            "wall_time_s": result.stats.wall_time_s,
            "search": result.stats.search.to_dict(),
            "certificate": certificate,
        })
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run Sunstone and the selected baselines; print a comparison table."""
    workload = build_workload(args.workload, args.dims)
    arch = build_architecture(args.arch, args.tech)
    sparsity = build_sparsity(args, workload)
    try:
        names = select_mappers(args.mappers)
    except ValueError as error:
        raise SystemExit(str(error))
    options = SchedulerOptions(cache=not args.no_cache,
                               sparsity=sparsity,
                               cache_size=args.cache_size,
                               shard=_parse_shard(args.shard))
    journal = _open_journal(args, {
        "kind": "compare",
        "workload": workload_to_dict(workload),
        "arch": architecture_to_dict(arch),
        "sparsity": sparsity.describe() if sparsity else None,
        "shard": args.shard,
    })
    mapper_docs: list[dict] = []
    profiles: list[tuple[str, str]] = []
    for name in names:
        if journal is not None:
            entry = journal.last("mapper", name=name)
            if entry is not None:
                # Completed before the interruption: reuse the journaled
                # row instead of repeating the search.
                mapper_docs.append(entry["doc"])
                continue
        result = run_mapper(name, workload, arch, options)
        doc = result_doc(result)
        mapper_docs.append(doc)
        if args.profile and result.search_stats is not None:
            profiles.append((name, result.search_stats.profile_summary()))
        if journal is not None:
            journal.append({"type": "mapper", "name": name, "doc": doc})
    if sparsity is not None:
        print(f"sparsity: {sparsity.describe()}")
    print(f"{'mapper':<18} {'EDP':>12} {'time(s)':>8} {'evals':>8} "
          f"{'hits':>8} {'status':>8}")
    for doc in mapper_docs:
        edp = doc["cost"]["edp"] if doc["found"] else float("inf")
        hits = doc["search"]["cache_hits"] if doc["search"] else 0
        print(f"{doc['mapper']:<18} {edp:>12.3e} "
              f"{doc['wall_time_s']:>8.2f} {doc['evaluations']:>8} "
              f"{hits:>8} {doc['status']:>8}")
    for doc in mapper_docs:
        cert_line = _certificate_line(doc.get("certificate"))
        if cert_line is not None:
            print(f"{doc['mapper']}: {cert_line}")
    for name, text in profiles:
        print(f"{name}:")
        print(text)
    if args.stats_json:
        _write_stats_json(args.stats_json, {
            "command": "compare",
            "workload": workload.name,
            "arch": arch.name,
            "sparsity": sparsity.describe() if sparsity else None,
            "mappers": mapper_docs,
        })
    return 0


def cmd_network(args: argparse.Namespace) -> int:
    """Schedule every layer of a model description file."""
    from .core.network import schedule_network
    from .workloads.importer import load_model

    model = load_model(args.model)
    arch = build_architecture(args.arch, args.tech)
    options = SchedulerOptions(cache=not args.no_cache,
                               cache_size=args.cache_size)
    journal = _open_journal(args, {
        "kind": "network",
        "model": args.model,
        "layers": [workload_to_dict(w) for w in model],
        "arch": architecture_to_dict(arch),
    })
    network = schedule_network(model, arch, options,
                               processes=args.processes,
                               journal=journal)
    print(network.summary())
    if args.profile:
        print(network.search_stats.profile_summary())
    if args.stats_json:
        _write_stats_json(args.stats_json, {
            "command": "network",
            "model": args.model,
            "arch": arch.name,
            "totals": {
                "energy_pj": network.total_energy_pj,
                "cycles": network.total_cycles,
                "edp": network.total_edp,
                "unique_searches": network.unique_searches,
                "wall_time_s": network.wall_time_s,
            },
            "layers": [
                {
                    "layer": entry.workload.name,
                    "found": entry.result.found,
                    "shared_with": entry.shared_with,
                    "cost": (cost_doc(entry.result.cost)
                             if entry.result.found else None),
                    "mapping": (mapping_to_dict(entry.result.mapping)
                                if entry.result.found else None),
                }
                for entry in network.layers
            ],
            "search": network.search_stats.to_dict(),
        })
    return 0 if network.all_found else 1


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Re-evaluate a saved mapping document with the cost model."""
    mapping = load_mapping(args.mapping)
    result = evaluate(mapping)
    print(mapping)
    print(result.summary())
    if args.json:
        print(json.dumps({
            "energy_pj": result.energy_pj,
            "cycles": result.cycles,
            "edp": result.edp,
            "valid": result.valid,
            "violations": result.violations,
        }, indent=2))
    return 0 if result.valid else 1


def cmd_describe(args: argparse.Namespace) -> int:
    """Print an architecture summary and/or a workload reuse table."""
    if args.arch:
        print(build_architecture(args.arch, args.tech).describe())
    if args.workload:
        workload = build_workload(args.workload, args.dims)
        print(workload)
        for name, info in workload.reuse_table().items():
            print(f"  {name:<10} indexed by {sorted(info.indexed_by)}, "
                  f"reused by {sorted(info.reused_by)}, "
                  f"partial {sorted(info.partially_reused_by)}")
    return 0


def cmd_tech_list(args: argparse.Namespace) -> int:
    """List the registered technology packs."""
    from .energy.tech import DEFAULT_TECH, available_packs, get_pack

    for name in available_packs():
        pack = get_pack(name)
        marker = " (default)" if name == DEFAULT_TECH else ""
        print(f"{name:<10} {pack.description}{marker}")
    return 0


def cmd_tech_show(args: argparse.Namespace) -> int:
    """Dump a pack's parameters and its resolved ERT for --arch."""
    pack = _resolve_tech(args.pack)
    print(f"technology pack {pack.name}: {pack.description}")
    for key, value in pack.to_dict().items():
        if key in ("name", "description"):
            continue
        print(f"  {key} = {value}")
    if args.arch:
        arch = build_architecture(args.arch, pack)
        table = arch.energy_table()
        print(f"energy reference table for {arch.name} "
              f"(pack {table.pack}):")
        for key, value in sorted(table.actions.items()):
            print(f"  {key:<16} {value:.6f} pJ")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the scheduler-as-a-service daemon (docs/SERVE_API.md)."""
    import asyncio

    from .serve import ServeConfig, ServeDaemon

    if args.resume and not args.journal:
        raise SystemExit("--resume requires --journal PATH")
    config = ServeConfig(host=args.host, port=args.port,
                         workers=args.workers,
                         journal_path=args.journal,
                         resume=args.resume,
                         cache_entries=args.cache_entries,
                         max_task_attempts=args.max_task_attempts,
                         fleet=args.fleet,
                         lease_ttl_s=args.lease_ttl,
                         poll_s=args.poll,
                         window=args.window,
                         queue_limit=args.queue_limit or None,
                         read_timeout_s=args.read_timeout or None)
    daemon = ServeDaemon(config)
    exit_code = 0

    async def _run() -> None:
        nonlocal exit_code
        loop = asyncio.get_running_loop()

        def _stop(code: int) -> None:
            nonlocal exit_code
            exit_code = code
            daemon.request_stop()

        # Same conventional codes as one-shot CLI runs: 130 for SIGINT,
        # 143 for SIGTERM.  Either way the stop is graceful — jobs stay
        # journaled and a --resume restart picks them back up.
        for sig, code in ((signal.SIGINT, 130), (signal.SIGTERM, 143)):
            try:
                loop.add_signal_handler(sig, _stop, code)
            except (NotImplementedError, RuntimeError):
                pass

        def _ready(port: int, resumed: list) -> None:
            fleet = (f"fleet=remote, window={config.window}"
                     if config.fleet == "remote"
                     else f"workers={config.workers}")
            print(f"serving on http://{config.host}:{port} "
                  f"({fleet}, "
                  f"restarted {len(resumed)} unfinished jobs)", flush=True)

        await daemon.serve(ready_cb=_ready)

    asyncio.run(_run())
    print("serve: stopped", file=sys.stderr)
    return exit_code


def cmd_worker(args: argparse.Namespace) -> int:
    """Join a remote-fleet daemon as a worker (docs/SERVE_API.md,
    "Remote worker fleets")."""
    from .serve import run_worker

    host, _, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(f"--connect expects HOST:PORT, got "
                         f"{args.connect!r}")

    def _log(message: str) -> None:
        print(f"worker: {message}", file=sys.stderr, flush=True)

    return run_worker(host or "127.0.0.1", port, workers=args.workers,
                      name=args.name, retry_s=args.retry, log=_log)


def _print_serve_result(doc: dict) -> int:
    """Render a daemon result document; returns the process exit code."""
    if doc.get("state") == "failed":
        print(f"job {doc.get('id')} failed: {doc.get('error')}",
              file=sys.stderr)
        return 1
    result = doc.get("result") or {}
    seed_hits = doc.get("seed_hits", 0)
    kind = result.get("kind")
    if kind == "schedule":
        if not result.get("found"):
            print("no valid mapping found", file=sys.stderr)
            return 1
        cost = result["cost"]
        print(f"status {result['status']}: edp {cost['edp']:.3e}, "
              f"energy {cost['energy_pj']:.3e} pJ, "
              f"cycles {cost['cycles']:.3e}")
        print(f"candidates evaluated: {result['evaluations']} across "
              f"{result['shards']} shard(s); seed hits {seed_hits}")
        cert_line = _certificate_line(result.get("certificate"))
        if cert_line is not None:
            print(cert_line)
        return 0 if result["status"] == "ok" else 1
    if kind == "compare":
        print(f"{'mapper':<18} {'EDP':>12} {'time(s)':>8} {'evals':>8} "
              f"{'status':>8}")
        for row in result["mappers"]:
            edp = row["cost"]["edp"] if row["found"] else float("inf")
            print(f"{row['mapper']:<18} {edp:>12.3e} "
                  f"{row['wall_time_s']:>8.2f} {row['evaluations']:>8} "
                  f"{row['status']:>8}")
        for row in result["mappers"]:
            cert_line = _certificate_line(row.get("certificate"))
            if cert_line is not None:
                print(f"{row['mapper']}: {cert_line}")
        print(f"seed hits {seed_hits}")
        return 0
    if kind == "network":
        totals = result["totals"]
        print(f"network: {len(result['layers'])} layers, "
              f"{totals['unique_searches']} unique searches, "
              f"energy {totals['energy_pj']:.3e} pJ, "
              f"cycles {totals['cycles']:.3e}, edp {totals['edp']:.3e}; "
              f"seed hits {seed_hits}")
        return 0 if result["found_all"] else 1
    print(json.dumps(doc, indent=2))
    return 0


def _build_job_spec(args: argparse.Namespace) -> dict:
    """Assemble the job spec ``repro submit`` posts to the daemon."""
    spec: dict = {"kind": args.kind, "arch": args.arch,
                  "objective": args.objective}
    if args.tech:
        # Resolve locally first so bad pack names fail client-side with
        # the same message a daemon would return.
        spec["tech"] = _resolve_tech(args.tech).name
    if args.kind == "network":
        if not args.model:
            raise SystemExit("--kind network requires --model PATH")
        from .workloads.importer import load_model
        spec["layers"] = [workload_to_dict(w) for w in load_model(args.model)]
        return spec
    if not args.workload:
        raise SystemExit(f"--kind {args.kind} requires --workload")
    workload = build_workload(args.workload, args.dims)
    spec["workload"] = workload_to_dict(workload)
    # Validate sparsity flags client-side (same error text as schedule).
    build_sparsity(args, workload)
    if args.density or args.format or args.saf:
        spec["sparsity"] = {"density": args.density,
                            "format": args.format, "saf": args.saf}
    if args.kind == "schedule":
        spec["shards"] = args.shards
    if args.kind == "compare" and args.mappers is not None:
        spec["mappers"] = args.mappers
    return spec


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job to a running daemon (optionally wait for it)."""
    from .serve import ServeClient, ServeError

    spec = _build_job_spec(args)
    client = ServeClient(args.host, args.port)
    try:
        row = client.submit(spec)
        print(f"submitted {row['id']}: {row['kind']}, "
              f"{row['tasks_total']} task(s), fingerprint "
              f"{row['fingerprint']}")
        if not args.wait:
            return 0
        doc = client.result(row["id"], wait=True)
    except ServeError as error:
        print(f"serve error: {error}", file=sys.stderr)
        return 1
    return _print_serve_result(doc)


def cmd_jobs(args: argparse.Namespace) -> int:
    """List the daemon's jobs."""
    from .serve import ServeClient, ServeError

    try:
        rows = ServeClient(args.host, args.port).jobs()
    except ServeError as error:
        print(f"serve error: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    print(f"{'id':<8} {'kind':<9} {'state':<8} {'tasks':>7} "
          f"{'seed hits':>10} {'wall(s)':>8}")
    for row in rows:
        print(f"{row['id']:<8} {row['kind']:<9} {row['state']:<8} "
              f"{row['tasks_done']:>3}/{row['tasks_total']:<3} "
              f"{row['seed_hits']:>10} {row['wall_time_s']:>8.2f}")
    return 0


def cmd_result(args: argparse.Namespace) -> int:
    """Fetch (and optionally wait for) one job's merged result."""
    from .serve import ServeClient, ServeError

    try:
        doc = ServeClient(args.host, args.port).result(args.job_id,
                                                       wait=args.wait)
    except ServeError as error:
        print(f"serve error: {error}", file=sys.stderr)
        return 1
    if args.json:
        atomic_write_json(args.json, doc)
        print(f"result saved to {args.json}")
    return _print_serve_result(doc)


def make_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(prog="repro",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return value

    def nonnegative_int(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    def add_engine_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--no-cache", action="store_true",
                       help="disable cost-result memoisation")
        p.add_argument("--cache-size", type=nonnegative_int, default=None,
                       metavar="N",
                       help="entry cap for the result cache "
                            "(0 = unbounded; default 200000)")
        p.add_argument("--profile", action="store_true",
                       help="print the per-stage evaluation profile "
                            "(model/generation/cache time, vectorised "
                            "share)")

    def add_shard_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--shard", metavar="I/N", default=None,
                       help="walk only the I-th of N disjoint deterministic "
                            "shards of each candidate stream (0 <= I < N); "
                            "run all N shards to cover the whole space. "
                            "Applies to the mapspace-enumerating mappers "
                            "(sunstone, dmazerunner, interstellar)")

    def add_sparsity_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--density", action="append", default=[],
                       metavar="TENSOR=P",
                       help="expected density of a tensor, e.g. A=0.05 "
                            "(repeatable; default format coordinate, "
                            "action skipping)")
        p.add_argument("--format", action="append", default=[],
                       metavar="TENSOR=FMT",
                       help="compressed format: uncompressed, bitmask, "
                            "rle, coordinate, csr")
        p.add_argument("--saf", action="append", default=[],
                       metavar="TENSOR=ACTION",
                       help="compute optimisation: none, gating, skipping")

    def add_tech_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tech", metavar="PACK", default=None,
                       help="technology pack to resolve the architecture "
                            "under (a registered pack name — see "
                            "'repro tech list' — or a pack .json path); "
                            "default: the architecture's own pack")

    def add_stats_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--stats-json", metavar="PATH",
                       help="dump mapping, cost breakdown and search "
                            "statistics as JSON")

    def add_checkpoint_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--checkpoint", metavar="PATH",
                       help="crash-safe journal of search progress "
                            "(JSON lines, fsync'd per step)")
        p.add_argument("--resume", action="store_true",
                       help="continue an interrupted run from the last "
                            "completed step in --checkpoint; the final "
                            "result is bit-identical to an uninterrupted "
                            "run")
        p.add_argument("--checkpoint-cache", action="store_true",
                       help="also snapshot the evaluation cache beside "
                            "the journal for a warm resume (a pure "
                            "accelerator; never changes results)")

    p = sub.add_parser("schedule", help="map a workload onto an accelerator")
    p.add_argument("--workload", required=True)
    p.add_argument("--arch", default="conventional")
    add_tech_flag(p)
    p.add_argument("--objective", default="edp", choices=("edp", "energy"))
    p.add_argument("--output", help="save the mapping document (JSON)")
    p.add_argument("--report", action="store_true",
                   help="print the occupancy/energy/spatial dashboard")
    add_engine_flags(p)
    add_shard_flag(p)
    add_sparsity_flags(p)
    add_stats_json(p)
    add_checkpoint_flags(p)
    p.add_argument("dims", nargs="*", help="DIM=SIZE assignments")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("network",
                       help="schedule a model description file")
    p.add_argument("model", help="path to a model JSON (see configs/)")
    p.add_argument("--arch", default="conventional")
    add_tech_flag(p)
    p.add_argument("--processes", type=positive_int, default=None,
                   metavar="N",
                   help="search the distinct layer shapes in N worker "
                        "processes (default: one in-process search "
                        "sharing a result cache)")
    add_engine_flags(p)
    add_stats_json(p)
    add_checkpoint_flags(p)
    p.set_defaults(func=cmd_network)

    p = sub.add_parser("compare", help="compare Sunstone against baselines")
    p.add_argument("--workload", required=True)
    p.add_argument("--arch", default="conventional")
    add_tech_flag(p)
    p.add_argument("--mappers",
                   help="comma-separated subset of "
                        "timeloop,dmazerunner,interstellar,cosa,gamma")
    add_engine_flags(p)
    add_shard_flag(p)
    add_sparsity_flags(p)
    add_stats_json(p)
    add_checkpoint_flags(p)
    p.add_argument("dims", nargs="*", help="DIM=SIZE assignments")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("evaluate", help="re-evaluate a saved mapping")
    p.add_argument("mapping", help="path to a mapping JSON document")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("describe", help="show an architecture or workload")
    p.add_argument("--arch")
    add_tech_flag(p)
    p.add_argument("--workload")
    p.add_argument("dims", nargs="*", help="DIM=SIZE assignments")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("tech",
                       help="list technology packs or dump a resolved ERT")
    tech_sub = p.add_subparsers(dest="tech_command", required=True)
    tp = tech_sub.add_parser("list", help="list the registered packs")
    tp.set_defaults(func=cmd_tech_list)
    tp = tech_sub.add_parser("show",
                             help="show a pack's parameters and, with "
                                  "--arch, its resolved energy reference "
                                  "table")
    tp.add_argument("pack", help="registered pack name or pack .json path")
    tp.add_argument("--arch", default=None,
                    help="architecture preset or config to resolve the "
                         "ERT for")
    tp.set_defaults(func=cmd_tech_show)

    def add_client_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1",
                       help="serve daemon address")
        p.add_argument("--port", type=int, default=8181)

    p = sub.add_parser("serve",
                       help="run the scheduling service daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8181,
                   help="listen port (0 = pick a free port; the actual "
                        "port is printed on the ready line)")
    p.add_argument("--workers", type=nonnegative_int, default=1,
                   help="worker processes running job tasks "
                        "(0 = in-process)")
    p.add_argument("--journal", metavar="PATH",
                   help="crash-safe job journal (JSON lines, fsync'd); "
                        "restart with --resume to recover in-flight jobs")
    p.add_argument("--resume", action="store_true",
                   help="recover journaled jobs on startup; recovered "
                        "results are bit-identical to uninterrupted ones")
    p.add_argument("--cache-entries", type=nonnegative_int,
                   default=200_000,
                   help="shared cross-request eval-cache entry cap "
                        "(0 = unbounded)")
    p.add_argument("--max-task-attempts", type=positive_int, default=3,
                   help="pool-crash retries per task before degrading "
                        "to an in-process run")
    p.add_argument("--fleet", default="local",
                   choices=("local", "remote"),
                   help="task execution backend: 'local' runs a process "
                        "pool in the daemon, 'remote' leases tasks to "
                        "'repro worker' processes")
    p.add_argument("--lease-ttl", type=float, default=30.0,
                   metavar="SECONDS",
                   help="remote fleet: lease lifetime without a "
                        "heartbeat before the task is fenced and "
                        "re-leased")
    p.add_argument("--poll", type=float, default=10.0, metavar="SECONDS",
                   help="remote fleet: long-poll window for POST /lease")
    p.add_argument("--window", type=positive_int, default=32,
                   help="remote fleet: tasks dispatched (and cache-"
                        "seeded) concurrently")
    p.add_argument("--queue-limit", type=nonnegative_int, default=4096,
                   help="pending-task bound; POST /jobs answers 429 + "
                        "Retry-After above it (0 = unbounded)")
    p.add_argument("--read-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="per-connection request read timeout "
                        "(0 = none)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("worker",
                       help="join a remote-fleet daemon as a worker")
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="daemon address (its ready line prints the "
                        "actual port)")
    p.add_argument("--workers", type=positive_int, default=1,
                   help="local worker processes (= lease slots held "
                        "concurrently)")
    p.add_argument("--name", default=None,
                   help="worker name shown in /stats "
                        "(default host:pid)")
    p.add_argument("--retry", type=float, default=60.0, metavar="SECONDS",
                   help="give up after this long without reaching the "
                        "daemon")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser("submit", help="submit a job to a serve daemon")
    add_client_flags(p)
    p.add_argument("--kind", default="schedule",
                   choices=("schedule", "compare", "network"))
    p.add_argument("--workload", help="workload kind (schedule/compare)")
    p.add_argument("--model", help="model JSON path (--kind network)")
    p.add_argument("--arch", default="conventional")
    add_tech_flag(p)
    p.add_argument("--objective", default="edp", choices=("edp", "energy"))
    p.add_argument("--shards", type=positive_int, default=1,
                   help="split the mapspace into N union-complete shards "
                        "searched in parallel (--kind schedule)")
    p.add_argument("--mappers",
                   help="comma-separated baseline subset (--kind compare)")
    add_sparsity_flags(p)
    p.add_argument("--wait", action="store_true",
                   help="block until the result is ready and print it")
    p.add_argument("dims", nargs="*", help="DIM=SIZE assignments")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("jobs", help="list a serve daemon's jobs")
    add_client_flags(p)
    p.add_argument("--json", action="store_true",
                   help="print the raw job rows as JSON")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser("result", help="fetch a job result from a daemon")
    add_client_flags(p)
    p.add_argument("job_id")
    p.add_argument("--wait", action="store_true",
                   help="block until the job finishes")
    p.add_argument("--json", metavar="PATH",
                   help="save the full result document (atomic write)")
    p.set_defaults(func=cmd_result)

    return parser


class GracefulExit(KeyboardInterrupt):
    """SIGTERM delivered as an exception.

    Subclassing :class:`KeyboardInterrupt` reuses every existing
    interrupt path unchanged — ``network --processes`` terminates its
    pool on the way out — while ``main`` can still tell the two apart
    to return the conventional 128+signal code (143 vs 130).
    """


def _raise_graceful_exit(signum, frame):  # noqa: ARG001 - signal API
    raise GracefulExit(f"signal {signum}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = make_parser()
    args = parser.parse_args(argv)
    previous = None
    if args.command != "serve":
        # One-shot runs: turn SIGTERM into the same clean unwinding a
        # Ctrl-C gets.  The serve daemon installs its own loop-level
        # handlers instead (graceful stop, not an exception).
        try:
            previous = signal.signal(signal.SIGTERM, _raise_graceful_exit)
        except (ValueError, OSError):
            previous = None  # not the main thread (embedding)
    try:
        return args.func(args)
    except GracefulExit:
        # Pools are terminated on the way out; flush one final journal
        # append so an orchestrated stop is durably recorded, then exit
        # 128+SIGTERM.  Rerun with --resume to continue.
        flush_active_journals("sigterm")
        print("terminated", file=sys.stderr)
        return 143
    except KeyboardInterrupt:
        # Evaluation runs in-process and ``network --processes``
        # terminates its pool on the way out, so a Ctrl-C exits promptly
        # with the conventional 128+SIGINT code.  A --checkpoint journal
        # keeps every completed step; rerun with --resume to continue.
        flush_active_journals("sigint")
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if previous is not None:
            try:
                signal.signal(signal.SIGTERM, previous)
            except (ValueError, OSError):
                pass


if __name__ == "__main__":
    raise SystemExit(main())
