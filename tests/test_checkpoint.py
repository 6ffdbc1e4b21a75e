"""Checkpoint/resume: crash-safe journals that converge bit-identically.

Pins the second crash-safety guarantee of docs/SEARCH.md: a search
killed at *any* journal append and resumed with ``--resume`` returns the
same best mapping, cost and evaluation count as an uninterrupted run —
and the journal file itself survives truncated tails, corrupt lines and
configuration mismatches.
"""

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.arch import tiny
from repro.core import SchedulerOptions, schedule
from repro.core.network import schedule_network
from repro.mapping.serialize import mapping_to_dict
from repro.search import (
    CheckpointJournal,
    EvalCache,
    JournalError,
    atomic_write_json,
    read_journal_entries,
)
from repro.search.checkpoint import KILL_EXIT_CODE, checkpoint_kill_after
from repro.workloads import conv1d

REPO_ROOT = Path(__file__).resolve().parent.parent

WORKLOAD = conv1d(K=4, C=4, P=14, R=3)
ARCH = tiny(l1_words=64, l2_words=512, pes=4)
META = {"kind": "test", "workload": "conv1d-small"}


def _cost_tuple(result):
    return (result.cost.energy_pj, result.cost.cycles, result.cost.edp)


# ---------------------------------------------------------------------------
# atomic_write_json
# ---------------------------------------------------------------------------


def test_atomic_write_json_round_trip(tmp_path):
    path = tmp_path / "out.json"
    atomic_write_json(str(path), {"a": [1, 2], "b": None})
    assert json.loads(path.read_text()) == {"a": [1, 2], "b": None}
    assert not list(tmp_path.glob("*.tmp"))  # no stray temp files


def test_atomic_write_json_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "out.json"
    atomic_write_json(str(path), {"v": 1})
    with pytest.raises(TypeError):
        atomic_write_json(str(path), {"v": object()})  # unserialisable
    assert json.loads(path.read_text()) == {"v": 1}
    assert not list(tmp_path.glob("*.tmp"))


# ---------------------------------------------------------------------------
# journal file format
# ---------------------------------------------------------------------------


def test_journal_append_and_read_round_trip(tmp_path):
    path = str(tmp_path / "j.jsonl")
    journal = CheckpointJournal(path, META)
    journal.append({"type": "level", "step": 0, "x": [1, 2]})
    journal.append({"type": "level", "step": 1, "x": []})
    entries = read_journal_entries(path)
    assert entries[0] == {"type": "meta", "meta": META}
    assert entries[1:] == [{"type": "level", "step": 0, "x": [1, 2]},
                           {"type": "level", "step": 1, "x": []}]


def test_journal_truncated_tail_round_trip(tmp_path):
    """Satellite: a kill mid-append leaves a partial last line; reads
    drop exactly that line and resume compacts the file."""
    path = str(tmp_path / "j.jsonl")
    journal = CheckpointJournal(path, META)
    journal.append({"type": "level", "step": 0})
    journal.append({"type": "level", "step": 1})
    whole = Path(path).read_text()
    # Chop the file mid-way through its final line.
    Path(path).write_text(whole[:-7])
    entries = read_journal_entries(path)
    assert [e.get("step") for e in entries[1:]] == [0]
    # Resume: the torn tail is compacted away and appends continue.
    resumed = CheckpointJournal(path, META, resume=True)
    assert [e.get("step") for e in resumed.entries] == [0]
    resumed.append({"type": "level", "step": 1})
    assert [e.get("step") for e in read_journal_entries(path)[1:]] == [0, 1]


def test_journal_crc_mismatch_stops_the_read(tmp_path):
    path = str(tmp_path / "j.jsonl")
    journal = CheckpointJournal(path, META)
    journal.append({"type": "level", "step": 0})
    journal.append({"type": "level", "step": 1})
    lines = Path(path).read_text().splitlines(keepends=True)
    doc = json.loads(lines[1])
    doc["entry"]["step"] = 99  # bit-rot: entry no longer matches its CRC
    lines[1] = json.dumps(doc) + "\n"
    Path(path).write_text("".join(lines))
    entries = read_journal_entries(path)
    assert len(entries) == 1  # only the meta line survives
    # Sanity: fixing the CRC makes the line valid again.
    doc["crc"] = zlib.crc32(json.dumps(
        doc["entry"], sort_keys=True, separators=(",", ":")).encode())
    lines[1] = json.dumps(doc) + "\n"
    Path(path).write_text("".join(lines))
    assert len(read_journal_entries(path)) == 3


def test_resume_rejects_mismatched_meta(tmp_path):
    path = str(tmp_path / "j.jsonl")
    CheckpointJournal(path, META)
    with pytest.raises(JournalError):
        CheckpointJournal(path, {"kind": "other"}, resume=True)


def test_resume_of_missing_journal_is_a_fresh_run(tmp_path):
    path = str(tmp_path / "missing.jsonl")
    journal = CheckpointJournal(path, META, resume=True)
    assert journal.entries == []
    assert read_journal_entries(path)[0]["type"] == "meta"


def test_fresh_journal_truncates_stale_contents(tmp_path):
    path = str(tmp_path / "j.jsonl")
    old = CheckpointJournal(path, META)
    old.append({"type": "level", "step": 0})
    fresh = CheckpointJournal(path, META)  # no resume: start over
    assert fresh.entries == []
    assert len(read_journal_entries(path)) == 1


def test_journal_last_matches_fields(tmp_path):
    journal = CheckpointJournal(str(tmp_path / "j.jsonl"), META)
    journal.append({"type": "level", "phase": "base", "step": 0})
    journal.append({"type": "level", "phase": "wide", "step": 0})
    journal.append({"type": "level", "phase": "base", "step": 1})
    assert journal.last("level", phase="base")["step"] == 1
    assert journal.last("level", phase="wide")["step"] == 0
    assert journal.last("phase_done") is None


def test_cache_snapshot_round_trip(tmp_path):
    path = str(tmp_path / "j.jsonl")
    journal = CheckpointJournal(path, META, cache_snapshots=True)
    cache = EvalCache(max_entries=10)
    cache.put(("fp", 1), "r1")
    cache.put(("fp", 2), "r2")
    journal.save_cache_snapshot(cache)
    restored = journal.load_cache_snapshot()
    assert restored is not None
    assert restored.max_entries == 10
    assert restored.get(("fp", 1)) == "r1"
    assert restored.get(("fp", 2)) == "r2"
    # Disabled snapshots are inert in both directions.
    plain = CheckpointJournal(str(tmp_path / "k.jsonl"), META)
    plain.save_cache_snapshot(cache)
    assert plain.load_cache_snapshot() is None
    # A corrupt sidecar is dropped silently (costs warm-up, not results).
    Path(journal.cache_path).write_bytes(b"\x80garbage")
    assert journal.load_cache_snapshot() is None


# ---------------------------------------------------------------------------
# scheduler kill/resume convergence
# ---------------------------------------------------------------------------


def test_scheduler_resume_converges_from_any_kill_point(tmp_path):
    """Killing at every successive journal append and resuming must
    always converge to the uninterrupted run's result."""
    base = schedule(WORKLOAD, ARCH)
    kill_after = 1
    while True:
        path = str(tmp_path / f"kill{kill_after}.jsonl")
        journal = CheckpointJournal(path, META, kill_after=kill_after,
                                    kill_mode="interrupt")
        try:
            schedule(WORKLOAD, ARCH, journal=journal)
            completed = True
        except KeyboardInterrupt:
            completed = False
        resumed = CheckpointJournal(path, META, resume=True)
        result = schedule(WORKLOAD, ARCH, journal=resumed)
        assert mapping_to_dict(result.mapping) == \
            mapping_to_dict(base.mapping), kill_after
        assert _cost_tuple(result) == _cost_tuple(base), kill_after
        assert result.stats.evaluations == base.stats.evaluations, kill_after
        if completed:
            break
        kill_after += 1
    assert kill_after >= 2  # the loop really exercised mid-run kills


def test_resume_of_complete_journal_skips_the_search(tmp_path):
    path = str(tmp_path / "done.jsonl")
    base = schedule(WORKLOAD, ARCH, journal=CheckpointJournal(path, META))
    resumed = CheckpointJournal(path, META, resume=True)
    result = schedule(WORKLOAD, ARCH, journal=resumed)
    assert mapping_to_dict(result.mapping) == mapping_to_dict(base.mapping)
    assert _cost_tuple(result) == _cost_tuple(base)
    # Restoring re-evaluates only the stored winners, not the mapspace.
    assert result.stats.search.evaluations <= 4


def test_resume_ignores_retired_bound_counters(tmp_path):
    """Journals written while the sweep still counted point bounds carry
    a ``bound`` triple in every level entry; a resume ignores it and
    converges to the uninterrupted run, certificate included."""
    from repro.search.checkpoint import _encode_line

    base = schedule(WORKLOAD, ARCH)
    path = str(tmp_path / "old.jsonl")
    journal = CheckpointJournal(path, META, kill_after=1,
                                kill_mode="interrupt")
    with pytest.raises(KeyboardInterrupt):
        schedule(WORKLOAD, ARCH, journal=journal)
    entries = read_journal_entries(path)
    levels = [e for e in entries if e.get("type") == "level"]
    assert levels
    for entry in levels:
        entry["bound"] = [7, 3, 3]
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_encode_line(e) for e in entries)
    result = schedule(WORKLOAD, ARCH,
                      journal=CheckpointJournal(path, META, resume=True))
    assert mapping_to_dict(result.mapping) == mapping_to_dict(base.mapping)
    assert _cost_tuple(result) == _cost_tuple(base)
    assert result.stats.evaluations == base.stats.evaluations
    assert result.stats.bound == base.stats.bound


def test_resume_respects_sharded_and_sparse_meta(tmp_path):
    """The meta fingerprint is the guard against resuming the wrong
    search: any field difference refuses the journal."""
    path = str(tmp_path / "j.jsonl")
    CheckpointJournal(path, {"kind": "schedule", "shard": "0/2"})
    with pytest.raises(JournalError):
        CheckpointJournal(path, {"kind": "schedule", "shard": "1/2"},
                          resume=True)


# ---------------------------------------------------------------------------
# network kill/resume convergence
# ---------------------------------------------------------------------------


def test_network_resume_converges(tmp_path):
    layers = [conv1d(K=4, C=4, P=14, R=3),
              conv1d(K=4, C=4, P=14, R=3),  # dedupe shares the first's
              conv1d(K=8, C=4, P=7, R=3)]
    base = schedule_network(layers, ARCH, SchedulerOptions())
    path = str(tmp_path / "net.jsonl")
    journal = CheckpointJournal(path, META, kill_after=1,
                                kill_mode="interrupt")
    with pytest.raises(KeyboardInterrupt):
        schedule_network(layers, ARCH, SchedulerOptions(), journal=journal)
    resumed = CheckpointJournal(path, META, resume=True)
    network = schedule_network(layers, ARCH, SchedulerOptions(),
                               journal=resumed)
    assert network.all_found
    assert network.total_edp == base.total_edp
    assert network.total_energy_pj == base.total_energy_pj
    for got, want in zip(network.layers, base.layers):
        assert mapping_to_dict(got.result.mapping) == \
            mapping_to_dict(want.result.mapping)
    # Only the interrupted remainder was searched on resume.
    assert len(resumed.all("layer")) == 2


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------

_CLI_ARGS = ["--workload", "conv1d", "--arch", "tiny",
             "K=4", "C=4", "P=14", "R=3"]


def _run_cli(argv, capsys):
    from repro.cli import main
    code = main(argv)
    return code, capsys.readouterr().out


def test_cli_schedule_checkpoint_then_resume(tmp_path, capsys):
    ckpt = str(tmp_path / "cli.jsonl")
    code, fresh_out = _run_cli(["schedule", *_CLI_ARGS,
                                "--checkpoint", ckpt], capsys)
    assert code == 0
    code, resumed_out = _run_cli(["schedule", *_CLI_ARGS,
                                  "--checkpoint", ckpt, "--resume"], capsys)
    assert code == 0
    # Identical mapping, nest and cost — resume changed nothing but time.
    strip = [line for line in fresh_out.splitlines()
             if "wall" not in line and " in " not in line
             and "search engine:" not in line]
    strip_resumed = [line for line in resumed_out.splitlines()
                     if "wall" not in line and " in " not in line
                     and "search engine:" not in line]
    assert strip == strip_resumed


def test_cli_schedule_checkpoint_cache_warm_resume(tmp_path, capsys):
    ckpt = str(tmp_path / "warm.jsonl")
    code, _ = _run_cli(["schedule", *_CLI_ARGS, "--checkpoint", ckpt,
                        "--checkpoint-cache"], capsys)
    assert code == 0
    assert os.path.exists(ckpt + ".cache.pkl")
    code, _ = _run_cli(["schedule", *_CLI_ARGS, "--checkpoint", ckpt,
                        "--resume", "--checkpoint-cache"], capsys)
    assert code == 0


def test_cli_resume_requires_checkpoint(capsys):
    from repro.cli import main
    with pytest.raises(SystemExit, match="--resume requires --checkpoint"):
        main(["schedule", *_CLI_ARGS, "--resume"])


def test_cli_resume_rejects_foreign_journal(tmp_path, capsys):
    from repro.cli import main
    ckpt = str(tmp_path / "cli.jsonl")
    code, _ = _run_cli(["schedule", *_CLI_ARGS, "--checkpoint", ckpt],
                       capsys)
    assert code == 0
    with pytest.raises(SystemExit, match="different search configuration"):
        main(["schedule", "--workload", "conv1d", "--arch", "tiny",
              "K=8", "C=4", "P=14", "R=3",
              "--checkpoint", ckpt, "--resume"])


def test_cli_compare_resume_reuses_journaled_mappers(tmp_path, capsys):
    ckpt = str(tmp_path / "cmp.jsonl")
    argv = ["compare", "--workload", "conv1d", "--arch", "tiny",
            "--mappers", "timeloop", "K=4", "C=4", "P=14", "R=3",
            "--checkpoint", ckpt]
    code, fresh_out = _run_cli(argv, capsys)
    assert code == 0
    entries = read_journal_entries(ckpt)
    assert [e["name"] for e in entries if e.get("type") == "mapper"] == \
        ["sunstone", "timeloop-like"]
    code, resumed_out = _run_cli([*argv, "--resume"], capsys)
    assert code == 0
    # Every row is replayed from the journal, numbers included.
    assert fresh_out == resumed_out


def test_cli_stats_json_is_atomic_and_complete(tmp_path, capsys):
    stats = tmp_path / "stats.json"
    code, _ = _run_cli(["schedule", *_CLI_ARGS,
                        "--stats-json", str(stats)], capsys)
    assert code == 0
    doc = json.loads(stats.read_text())
    assert doc["command"] == "schedule"
    assert not list(tmp_path.glob("*.tmp"))


# ---------------------------------------------------------------------------
# hard-kill smoke: a real SIGKILL-style exit mid-search, then resume
# ---------------------------------------------------------------------------


def test_checkpoint_kill_after():
    assert checkpoint_kill_after({}) is None
    assert checkpoint_kill_after(
        {"REPRO_CHECKPOINT_KILL_AFTER": "3"}) == 3
    with pytest.raises(ValueError):
        checkpoint_kill_after({"REPRO_CHECKPOINT_KILL_AFTER": "0"})


def test_subprocess_hard_kill_then_resume_is_identical(tmp_path):
    """The CI smoke in miniature: the journal hard-exits the process
    (exit code 86) after its first append; a --resume run finishes the
    search and matches a never-interrupted run exactly."""
    ckpt = str(tmp_path / "hard.jsonl")
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    argv = [sys.executable, "-m", "repro", "schedule", *_CLI_ARGS]

    killed = subprocess.run(
        [*argv, "--checkpoint", ckpt],
        capture_output=True, text=True, timeout=600,
        env={**env, "REPRO_CHECKPOINT_KILL_AFTER": "1"}, cwd=str(tmp_path))
    assert killed.returncode == KILL_EXIT_CODE, killed.stderr

    resumed = subprocess.run(
        [*argv, "--checkpoint", ckpt, "--resume"],
        capture_output=True, text=True, timeout=600,
        env=env, cwd=str(tmp_path))
    assert resumed.returncode == 0, resumed.stderr

    uninterrupted = subprocess.run(
        argv, capture_output=True, text=True, timeout=600,
        env=env, cwd=str(tmp_path))
    assert uninterrupted.returncode == 0, uninterrupted.stderr

    def essence(out):
        return [line for line in out.splitlines()
                if "wall" not in line and " in " not in line
                and "search engine:" not in line]

    assert essence(resumed.stdout) == essence(uninterrupted.stdout)


# ---------------------------------------------------------------------------
# stale *.tmp sweep: a hard kill between write and rename must not leak
# ---------------------------------------------------------------------------


def test_journal_open_sweeps_stale_temps(tmp_path):
    """Opening a journal removes leftover ``<basename>.*.tmp`` siblings
    (of the journal *and* its cache sidecar) but nothing else."""
    ckpt = tmp_path / "swept.jsonl"
    mine = [tmp_path / "swept.jsonl.abc123.tmp",
            tmp_path / "swept.jsonl.cache.pkl.xyz.tmp"]
    others = [tmp_path / "other.json.def.tmp",
              tmp_path / "swept.jsonl.notatmp"]
    for path in mine + others:
        path.write_text("stranded")

    CheckpointJournal(str(ckpt), META)
    for path in mine:
        assert not path.exists(), path
    for path in others:
        assert path.exists(), path


def test_sweep_stale_temps_ignores_missing_directory(tmp_path):
    from repro.search import sweep_stale_temps
    assert sweep_stale_temps(str(tmp_path / "no" / "dir" / "x.jsonl")) == []


def test_kill_during_atomic_write_leaves_temp_then_sweep_recovers(tmp_path):
    """The regression the sweep exists for: kill a process between the
    temp write and ``os.replace`` (patched to hard-exit), confirm the
    stranded ``*.tmp`` survives and the destination is intact, then
    confirm reopening the journal sweeps it."""
    ckpt = tmp_path / "leak.jsonl"
    CheckpointJournal(str(ckpt), META).append({"type": "step", "n": 1})
    before = ckpt.read_text()

    script = (
        "import os, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from repro.search import checkpoint\n"
        "real_replace = os.replace\n"
        "def dying_replace(src, dst):\n"
        "    os._exit(9)\n"
        "checkpoint.os.replace = dying_replace\n"
        "checkpoint.atomic_write_json(sys.argv[2] + '.compact', {'x': 1})\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(REPO_ROOT / "src"), str(ckpt)],
        capture_output=True, text=True, timeout=120, cwd=str(tmp_path))
    assert proc.returncode == 9, proc.stderr

    stranded = list(tmp_path.glob("leak.jsonl.compact.*.tmp"))
    assert stranded, "the injected kill should strand one temp file"
    assert ckpt.read_text() == before  # destination untouched

    # A journal opened at the *stranded* path sweeps its own temps.
    CheckpointJournal(str(tmp_path / "leak.jsonl.compact"), META)
    assert not list(tmp_path.glob("leak.jsonl.compact.*.tmp"))
