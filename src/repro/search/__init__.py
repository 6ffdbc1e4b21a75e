"""Memoized, in-process schedule-search engine shared by all mappers."""

from .cache import EvalCache
from .checkpoint import (
    CheckpointJournal,
    JournalError,
    atomic_write_json,
    flush_active_journals,
    read_journal_entries,
    sweep_stale_temps,
)
from .engine import SearchEngine, resolve_engine
from .result import MappingOutcome
from .fingerprint import (
    architecture_fingerprint,
    mapping_fingerprint,
    workload_fingerprint,
)
from .stats import SearchStats

__all__ = [
    "CheckpointJournal",
    "EvalCache",
    "JournalError",
    "MappingOutcome",
    "SearchEngine",
    "SearchStats",
    "architecture_fingerprint",
    "atomic_write_json",
    "flush_active_journals",
    "mapping_fingerprint",
    "read_journal_entries",
    "resolve_engine",
    "sweep_stale_temps",
    "workload_fingerprint",
]
