"""Crash-safe checkpointing for long-running searches (docs/SEARCH.md).

Two primitives live here:

:func:`atomic_write_json`
    Write-to-temp + ``os.replace`` so a crash mid-write can never leave
    a truncated, unparseable document at the destination (used by the
    CLI's ``--stats-json`` and the benchmark ``BENCH_*.json`` writers).

:class:`CheckpointJournal`
    An append-only JSON-lines journal with a per-line CRC.  Writers
    append one self-contained entry per unit of completed work (a
    scheduler level step, a network layer, a compare mapper) and
    ``fsync`` each line; readers recover every *complete* entry and
    silently drop a truncated or corrupt tail — exactly what a
    SIGKILL/OOM mid-append leaves behind.  On resume the file is first
    compacted back to its complete prefix (atomically), so new appends
    never chase garbage.

The journal stores only deterministic *decisions* (integer tile
factors, loop orders, mapping documents) — never floating-point state
that downstream search steps would consume — so a resumed search
replays the exact candidate stream of an uninterrupted one and
provably converges to the same best mapping (pinned by
``tests/test_checkpoint.py``).

An optional sidecar (``<path>.cache.pkl``) snapshots the
:class:`~repro.search.cache.EvalCache` so a resumed search also starts
warm; it is a pure accelerator and never changes results.

Two environment hooks let CI kill a search through the unmodified CLI:
``REPRO_CHECKPOINT_KILL_AFTER=N`` makes the journal fire after its
``N``-th append, and ``REPRO_CHECKPOINT_KILL_MODE`` picks how
(:func:`checkpoint_kill_mode`); the default hard-exits with
:data:`KILL_EXIT_CODE`, a deterministic "OOM-killed mid-search" for the
``--checkpoint``/``--resume`` smoke test.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import weakref
import zlib
from typing import Any, Iterable

from .cache import EvalCache

KILL_EXIT_CODE = 86
KILL_MODES = ("exit", "interrupt", "sigterm")


def checkpoint_kill_after(env: dict[str, str] | None = None) -> int | None:
    """``REPRO_CHECKPOINT_KILL_AFTER`` as an int, or ``None``."""
    text = (env if env is not None else os.environ).get(
        "REPRO_CHECKPOINT_KILL_AFTER", "").strip()
    if not text:
        return None
    value = int(text)
    if value < 1:
        raise ValueError("REPRO_CHECKPOINT_KILL_AFTER must be >= 1")
    return value


def checkpoint_kill_mode(env: dict[str, str] | None = None) -> str:
    """``REPRO_CHECKPOINT_KILL_MODE``: how the journal's injected kill
    fires — ``exit`` (hard ``os._exit``, the SIGKILL/OOM stand-in),
    ``interrupt`` (raise ``KeyboardInterrupt``, the Ctrl-C stand-in) or
    ``sigterm`` (deliver a real ``SIGTERM`` to this process, for
    deterministic graceful-shutdown tests).  Defaults to ``exit``."""
    mode = (env if env is not None else os.environ).get(
        "REPRO_CHECKPOINT_KILL_MODE", "").strip() or "exit"
    if mode not in KILL_MODES:
        raise ValueError(f"REPRO_CHECKPOINT_KILL_MODE must be one of "
                         f"{KILL_MODES}, got {mode!r}")
    return mode


class JournalError(RuntimeError):
    """A checkpoint journal is unusable for this search (e.g. it was
    written by a different workload/architecture/options combination)."""


# Live journals of this process, for the CLI's signal handlers: a
# SIGTERM/SIGINT on a long run appends one final marker entry to each
# before exiting, so the journal durably records *why* it stops where
# it does.  Weak references — a journal that fell out of scope is gone.
_ACTIVE_JOURNALS: "weakref.WeakSet[CheckpointJournal]" = weakref.WeakSet()


def flush_active_journals(note: str) -> int:
    """Append a final ``{"type": "interrupted"}`` entry to every live
    journal (fsync'd like any append).  Resume ignores the marker —
    unknown entry types are skipped by all consumers — so an
    interrupted run still continues from its last completed step.
    Returns how many journals were flushed."""
    flushed = 0
    for journal in list(_ACTIVE_JOURNALS):
        try:
            journal.append({"type": "interrupted", "note": note})
            flushed += 1
        except Exception:
            # Exit path: a journal that cannot take one more append
            # (disk gone, file closed) must not mask the clean exit.
            continue
    return flushed


def sweep_stale_temps(path: str) -> list[str]:
    """Remove leftover ``<basename>.*.tmp`` files beside ``path``.

    :func:`atomic_write_json` and the journal's compaction stage their
    payload in ``<basename>.<random>.tmp`` siblings before the
    ``os.replace``; a hard kill (SIGKILL, OOM) between the write and the
    rename strands the temp file.  Stale temps are harmless to
    correctness — the rename never happened, so the destination is
    intact — but they accumulate under orchestration, so journal open
    sweeps them.  Returns the paths removed.  Only exact
    ``<basename>.*.tmp`` matches are touched: temps of other files in
    the same directory belong to other writers.
    """
    target = os.path.abspath(path)
    directory = os.path.dirname(target) or "."
    prefix = os.path.basename(target) + "."
    removed: list[str] = []
    try:
        names = os.listdir(directory)
    except OSError:
        return removed
    for name in names:
        if not (name.startswith(prefix) and name.endswith(".tmp")):
            continue
        stale = os.path.join(directory, name)
        try:
            os.unlink(stale)
        except OSError:
            continue
        removed.append(stale)
    return removed


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str, document: Any, indent: int | None = 2,
                      ) -> None:
    """Serialise ``document`` and move it into place atomically.

    The temp file lives in the destination's directory so ``os.replace``
    is a same-filesystem rename; a crash at any point leaves either the
    previous file or the complete new one, never a truncated mix.
    """
    payload = (json.dumps(document, indent=indent) + "\n").encode("utf-8")
    _atomic_write_bytes(path, payload)


def _canonical(entry: Any) -> bytes:
    return json.dumps(entry, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _encode_line(entry: Any) -> str:
    return json.dumps({"crc": zlib.crc32(_canonical(entry)),
                       "entry": entry}) + "\n"


def read_journal_entries(path: str) -> list[dict]:
    """Every complete entry of ``path``, in order.

    Parsing stops at the first incomplete line — a missing trailing
    newline, malformed JSON, or a CRC mismatch — which is what a kill
    mid-append leaves; everything before it is trusted.
    """
    entries: list[dict] = []
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        return entries
    for line in lines:
        if not line.endswith("\n"):
            break
        try:
            doc = json.loads(line)
            entry = doc["entry"]
            crc = doc["crc"]
        except (ValueError, KeyError, TypeError):
            break
        if not isinstance(crc, int) or zlib.crc32(_canonical(entry)) != crc:
            break
        entries.append(entry)
    return entries


class CheckpointJournal:
    """Append-only, crash-tolerant journal keyed to one search setup.

    Parameters
    ----------
    path:
        Journal file (JSON lines).  A fresh journal truncates it; with
        ``resume=True`` the complete prefix is recovered first and new
        entries continue after it.
    meta:
        Configuration fingerprint of the search (workload, architecture,
        objective, shard, ...).  Stored as the first entry; a resume
        against a journal whose stored meta differs raises
        :class:`JournalError` — resuming a *different* search from this
        file would silently produce wrong results.
    cache_snapshots:
        Enable :meth:`save_cache_snapshot` / :meth:`load_cache_snapshot`
        (the ``<path>.cache.pkl`` sidecar).
    kill_after / kill_mode:
        Deterministic kill injection: after ``kill_after`` successful
        appends the journal either hard-exits the process
        (``"exit"``, exit code :data:`KILL_EXIT_CODE` — the CI
        kill-mid-search smoke), raises ``KeyboardInterrupt``
        (``"interrupt"`` — the in-process regression tests), or
        delivers a real ``SIGTERM`` to the process (``"sigterm"`` —
        the graceful-shutdown tests).  Defaults follow the
        ``REPRO_CHECKPOINT_KILL_AFTER`` / ``REPRO_CHECKPOINT_KILL_MODE``
        environment hooks.
    """

    def __init__(
        self,
        path: str,
        meta: dict,
        *,
        resume: bool = False,
        cache_snapshots: bool = False,
        kill_after: int | None = None,
        kill_mode: str | None = None,
    ) -> None:
        if kill_mode is None:
            kill_mode = checkpoint_kill_mode()
        if kill_mode not in KILL_MODES:
            raise ValueError(f"kill_mode must be one of {KILL_MODES}")
        self.path = path
        self.cache_path = path + ".cache.pkl"
        self.cache_snapshots = cache_snapshots
        self.meta = meta
        self._appends = 0
        self._kill_after = (kill_after if kill_after is not None
                            else checkpoint_kill_after())
        self._kill_mode = kill_mode
        # A hard kill mid-compaction or mid-snapshot strands a *.tmp
        # sibling; the journal is single-writer, so any temp found at
        # open is stale by definition.
        sweep_stale_temps(self.path)
        sweep_stale_temps(self.cache_path)
        _ACTIVE_JOURNALS.add(self)
        # Round-trip the meta through JSON so comparison on resume sees
        # the same types the journal file stores (tuples -> lists, ...).
        meta_rt = json.loads(_canonical(meta))
        if resume:
            recovered = read_journal_entries(path)
            if recovered and recovered[0].get("type") == "meta":
                stored = recovered[0].get("meta")
                if stored != meta_rt:
                    raise JournalError(
                        f"checkpoint {path} was written by a different "
                        f"search configuration; refusing to resume")
                self.entries: list[dict] = recovered[1:]
                # Compact away any truncated tail so appends continue
                # after the last *complete* entry.
                self._rewrite(recovered)
                return
            # Missing or unusable journal: resume degenerates to a
            # fresh run (the caller simply has no prior entries).
            self.entries = []
            self._rewrite([{"type": "meta", "meta": meta_rt}])
        else:
            self.entries = []
            self._rewrite([{"type": "meta", "meta": meta_rt}])

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _rewrite(self, entries: Iterable[dict]) -> None:
        payload = "".join(_encode_line(e) for e in entries).encode("utf-8")
        _atomic_write_bytes(self.path, payload)

    def append(self, entry: dict) -> None:
        """Durably append one complete entry (fsync'd), then honour the
        injected kill hook if one is armed."""
        line = _encode_line(entry)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        self.entries.append(json.loads(_canonical(entry)))
        self._appends += 1
        if self._kill_after is not None and self._appends >= self._kill_after:
            if self._kill_mode == "interrupt":
                self._kill_after = None
                raise KeyboardInterrupt(
                    f"injected kill after {self._appends} journal appends")
            if self._kill_mode == "sigterm":
                # A real signal, delivered to ourselves: exercises the
                # CLI's SIGTERM handler (GracefulExit -> exit 143) at a
                # deterministic point mid-search.
                self._kill_after = None
                import signal
                os.kill(os.getpid(), signal.SIGTERM)
                return
            os._exit(KILL_EXIT_CODE)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def last(self, entry_type: str, **match: Any) -> dict | None:
        """The most recent prior entry of ``entry_type`` whose fields
        equal ``match`` (resume-time lookup)."""
        for entry in reversed(self.entries):
            if entry.get("type") != entry_type:
                continue
            if all(entry.get(k) == v for k, v in match.items()):
                return entry
        return None

    def all(self, entry_type: str) -> list[dict]:
        return [e for e in self.entries if e.get("type") == entry_type]

    # ------------------------------------------------------------------
    # optional EvalCache sidecar
    # ------------------------------------------------------------------
    def save_cache_snapshot(self, cache: EvalCache | None) -> None:
        """Atomically snapshot the result cache (no-op unless enabled)."""
        if not self.cache_snapshots or cache is None:
            return
        payload = pickle.dumps({
            "max_entries": cache.max_entries,
            "entries": list(cache._entries.items()),
        }, protocol=pickle.HIGHEST_PROTOCOL)
        _atomic_write_bytes(self.cache_path, payload)

    def load_cache_snapshot(self) -> EvalCache | None:
        """Rebuild the snapshotted cache, or ``None`` when absent or
        unreadable (a stale/corrupt sidecar only costs warm-up time,
        never correctness, so it is dropped silently)."""
        if not self.cache_snapshots:
            return None
        try:
            with open(self.cache_path, "rb") as handle:
                doc = pickle.load(handle)
            cache = EvalCache(max_entries=doc["max_entries"])
            for key, result in doc["entries"]:
                cache.put(key, result)
            return cache
        except Exception:
            # A corrupt/stale sidecar can fail in arbitrary pickle-layer
            # ways; all of them just mean "start cold".
            return None
