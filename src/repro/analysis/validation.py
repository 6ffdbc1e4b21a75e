"""Invalid-mapping-rate validation corpus (Table I, bottom rows).

Table I reports whether each tool returns worse or *invalid* mappings:
CoSA ~60 % of the time, dMazeRunner ~30 %, Interstellar ~10 %, Sunstone and
Timeloop never.  This harness measures those rates over a workload corpus
with every mapper judged by the same validity rules (capacity, fanout,
2D-realisable unrolling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..arch.spec import Architecture
from ..core.scheduler import SchedulerOptions
from ..mappers import run_mapper, select_mappers
from ..workloads.expression import Workload


@dataclass
class MapperOutcome:
    """One mapper's behaviour over the corpus."""

    mapper: str
    attempted: int = 0
    returned: int = 0  # produced some mapping
    valid: int = 0  # mapping satisfies every hardware constraint
    best: int = 0  # matched the best EDP seen for that workload (within 2%)

    @property
    def invalid_rate(self) -> float:
        if self.attempted == 0:
            return 0.0
        return 1.0 - self.valid / self.attempted


def validity_survey(
    workloads: Sequence[Workload],
    arch: Architecture,
    mappers: Sequence[str] | None = None,
) -> dict[str, MapperOutcome]:
    """Run every mapper over every workload and tabulate validity rates.

    ``mappers`` selects as ``repro compare --mappers`` does
    (:func:`repro.mappers.select_mappers`; every mapper when ``None``),
    and each runs with default options."""
    names = select_mappers(mappers)
    options = SchedulerOptions()
    outcomes = {name: MapperOutcome(name) for name in names}
    for workload in workloads:
        results = {}
        for name in names:
            outcome = outcomes[name]
            outcome.attempted += 1
            result = results[name] = run_mapper(name, workload, arch,
                                                options)
            if result.found:
                outcome.returned += 1
                if result.valid:
                    outcome.valid += 1
        best_edp = min((r.edp for r in results.values()
                        if r.found and r.valid), default=float("inf"))
        for name, result in results.items():
            if (result.found and result.valid
                    and result.edp <= best_edp * 1.02):
                outcomes[name].best += 1
    return outcomes


def survey_table(outcomes: dict[str, MapperOutcome]) -> list[str]:
    """Render the survey as aligned text rows."""
    lines = [f"{'mapper':<18} {'returned':>8} {'valid':>6} {'invalid%':>9} "
             f"{'best':>5}"]
    for outcome in outcomes.values():
        lines.append(
            f"{outcome.mapper:<18} "
            f"{outcome.returned:>5}/{outcome.attempted:<3}"
            f"{outcome.valid:>5} {outcome.invalid_rate:>8.0%} "
            f"{outcome.best:>5}"
        )
    return lines
