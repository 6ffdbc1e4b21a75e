"""Shared result type and helpers for the baseline mappers."""

from __future__ import annotations

from dataclasses import dataclass

from ..mapspace.factor import prime_factors
from ..search import MappingOutcome, SearchStats, resolve_engine

__all__ = [
    "SearchResult",
    "certificate_from_bound",
    "from_schedule",
    "prime_factors",
    "resolve_engine",
]


@dataclass
class SearchResult(MappingOutcome):
    """Outcome of a baseline search, comparable to
    :class:`repro.core.scheduler.ScheduleResult`.

    The ``mapping``/``cost`` fields and the derived accessors live on the
    shared :class:`~repro.search.result.MappingOutcome` base.
    """

    mapper: str = ""
    evaluations: int = 0
    wall_time_s: float = 0.0
    invalid_reason: str = ""
    # Engine telemetry; ``evaluations`` above stays the mapper's own
    # notion of candidates considered (cache hits included), matching the
    # paper's search-size accounting.
    search_stats: SearchStats | None = None
    # Optimality certificate: {"lower_bound", "best_value", "gap_pct"}
    # from the analytic whole-space bound (the Sunstone-sweep mappers,
    # and the exhaustive walker when it runs branch-and-bound).
    certificate: dict | None = None


def certificate_from_bound(bound_stats) -> dict | None:
    """Build a ``SearchResult.certificate`` dict from a
    :class:`~repro.mapspace.spaces.BoundStats` record (``None`` when the
    search found nothing)."""
    if bound_stats is None or bound_stats.lower_bound is None:
        return None
    cert = {"lower_bound": bound_stats.lower_bound,
            "best_value": bound_stats.best_value}
    gap = bound_stats.gap_pct()
    if gap is not None:
        cert["gap_pct"] = gap
    return cert


def from_schedule(mapper: str, result,
                  invalid_reason: str = "") -> SearchResult:
    """A :class:`~repro.core.scheduler.ScheduleResult` as the
    ``SearchResult`` of ``mapper``: the scheduler's evaluation count,
    wall time, engine telemetry and certificate; ``invalid_reason``
    explains a search that found nothing."""
    return SearchResult(
        mapper=mapper,
        mapping=result.mapping,
        cost=result.cost,
        evaluations=result.stats.evaluations,
        wall_time_s=result.stats.wall_time_s,
        invalid_reason="" if result.found else invalid_reason,
        search_stats=result.stats.search,
        certificate=certificate_from_bound(result.stats.bound),
    )
