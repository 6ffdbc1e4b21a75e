"""Search telemetry shared by Sunstone and the baseline mappers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SearchStats:
    """Evaluation-engine accounting (Fig. 9 overhead study).

    ``evaluations`` counts cost-model executions actually performed;
    ``cache_hits`` counts results served from the memo instead (a request
    is one or the other, never both).  ``prunes`` aggregates candidates
    discarded before evaluation (alpha-beta + beam for Sunstone).
    ``level_wall_time_s`` buckets sweep time per memory-level step.

    The per-stage profile (``--profile`` on the CLI, docs/PERF.md):
    ``stage_time_s`` buckets wall time by pipeline stage — ``"model"``
    (cost-model execution, scalar or vectorised), ``"generation"``
    (candidate enumeration + materialisation) and ``"cache"``
    (fingerprint + memo lookup/merge).  ``batched_evaluations`` counts
    how many of ``evaluations`` ran through the vectorised model
    (:mod:`repro.model.batch`): exactly the rows the array path staged.
    """

    evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    batches: int = 0
    prunes: int = 0
    wall_time_s: float = 0.0
    level_wall_time_s: dict[str, float] = field(default_factory=dict)
    batched_evaluations: int = 0
    stage_time_s: dict[str, float] = field(default_factory=dict)
    # Branch-and-bound accounting (docs/MAPSPACE.md): whole regions
    # tested/discarded against the incumbent, and the individual
    # candidate evaluations those prunes provably avoided.
    bound_regions_tested: int = 0
    bound_regions_pruned: int = 0
    bound_candidates_skipped: int = 0

    @property
    def requests(self) -> int:
        """Cost-model queries issued, whether computed or served cached."""
        return self.evaluations + self.cache_hits

    @property
    def hit_rate(self) -> float:
        total = self.requests
        return self.cache_hits / total if total else 0.0

    def add_level_time(self, level_name: str, seconds: float) -> None:
        self.level_wall_time_s[level_name] = (
            self.level_wall_time_s.get(level_name, 0.0) + seconds
        )

    def add_stage_time(self, stage: str, seconds: float) -> None:
        self.stage_time_s[stage] = (
            self.stage_time_s.get(stage, 0.0) + seconds
        )

    def merge(self, other: "SearchStats") -> None:
        """Fold another record (e.g. a worker process's) into this one."""
        self.evaluations += other.evaluations
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_evictions += other.cache_evictions
        self.batches += other.batches
        self.prunes += other.prunes
        self.wall_time_s += other.wall_time_s
        for name, seconds in other.level_wall_time_s.items():
            self.add_level_time(name, seconds)
        self.batched_evaluations += other.batched_evaluations
        for name, seconds in other.stage_time_s.items():
            self.add_stage_time(name, seconds)
        self.bound_regions_tested += other.bound_regions_tested
        self.bound_regions_pruned += other.bound_regions_pruned
        self.bound_candidates_skipped += other.bound_candidates_skipped

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot (used by the CLI's ``--stats-json``)."""
        return {
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "batches": self.batches,
            "prunes": self.prunes,
            "requests": self.requests,
            "hit_rate": self.hit_rate,
            "wall_time_s": self.wall_time_s,
            "level_wall_time_s": dict(self.level_wall_time_s),
            "batched_evaluations": self.batched_evaluations,
            "stage_time_s": dict(self.stage_time_s),
            "bound": {
                "regions_tested": self.bound_regions_tested,
                "regions_pruned": self.bound_regions_pruned,
                "candidates_skipped": self.bound_candidates_skipped,
            },
        }

    def summary(self) -> str:
        return (
            f"evaluations {self.evaluations}, cache hits {self.cache_hits} "
            f"({self.hit_rate:.0%} of {self.requests} requests), "
            f"prunes {self.prunes}, "
            f"wall {self.wall_time_s:.2f}s"
        )

    def profile_summary(self) -> str:
        """Multi-line per-stage breakdown for the CLI's ``--profile``."""
        stages = ("model", "generation", "cache")
        known = {s: self.stage_time_s.get(s, 0.0) for s in stages}
        extra = {s: t for s, t in self.stage_time_s.items()
                 if s not in known}
        parts = [f"{s} {t:.3f}s" for s, t in known.items()]
        parts += [f"{s} {t:.3f}s" for s, t in sorted(extra.items())]
        lines = [
            "profile:",
            "  stage time: " + ", ".join(parts),
            (f"  evaluations {self.evaluations} "
             f"({self.batched_evaluations} vectorised), "
             f"batches {self.batches}"),
            (f"  eval cache: hits {self.cache_hits} "
             f"({self.hit_rate:.0%} of {self.requests} requests), "
             f"evictions {self.cache_evictions}"),
        ]
        if (self.bound_regions_tested or self.bound_regions_pruned
                or self.bound_candidates_skipped):
            lines.append(
                f"  branch-and-bound: regions "
                f"{self.bound_regions_pruned}/{self.bound_regions_tested} "
                f"pruned, {self.bound_candidates_skipped} evaluations "
                f"skipped")
        return "\n".join(lines)
