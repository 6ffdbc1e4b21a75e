"""Energy / latency / EDP evaluation of mappings.

Follows the paper's evaluation platform (§V-A): performance of a spatial
accelerator is estimated as the sum of operation/access counts for each
hardware component multiplied by its per-operation/access energy, with
double buffering assumed to hide transfer latency (latency is the maximum of
the compute-bound and per-level bandwidth-bound cycle counts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..mapping.mapping import Mapping
from ..sparse.spec import SparsitySpec
from .accesses import AccessCounts, count_accesses
from .terms import ModelInfo, model_info


@dataclass
class CostResult:
    """Evaluation of one mapping.

    ``chip2chip_energy`` is the portion of ``noc_energy`` spent on
    package-level chiplet links (zero for single-chip hierarchies).
    """

    energy_pj: float
    cycles: float
    valid: bool
    violations: list[str] = field(default_factory=list)
    level_energy: dict[str, float] = field(default_factory=dict)
    compute_energy: float = 0.0
    noc_energy: float = 0.0
    chip2chip_energy: float = 0.0
    utilization: float = 0.0
    accesses: AccessCounts | None = None

    @property
    def edp(self) -> float:
        """Energy-delay product (pJ x cycles)."""
        return self.energy_pj * self.cycles

    def summary(self) -> str:
        status = "valid" if self.valid else "INVALID"
        return (
            f"energy {self.energy_pj:.3e} pJ, latency {self.cycles:.3e} cy, "
            f"EDP {self.edp:.3e}, util {self.utilization:.1%} [{status}]"
        )


INVALID_COST = float("inf")


def evaluate(mapping: Mapping, partial_reuse: bool = True,
             keep_accesses: bool = False,
             sparsity: SparsitySpec | None = None, *,
             info: ModelInfo | None = None) -> CostResult:
    """Evaluate energy, latency and EDP for ``mapping``.

    Invalid mappings (capacity or fanout violations) still receive an
    energy/latency estimate — the search algorithms need a number to rank
    by — but are flagged ``valid=False`` and must never be returned as
    solutions.

    ``sparsity`` optionally applies the expected-value sparse traffic
    model of :mod:`repro.sparse` (docs/SPARSE.md).  ``None`` — and any
    degenerate all-dense spec — yields output bit-identical to the dense
    model; sparsity never changes which mappings are *valid*, since
    buffer occupancy is provisioned for the dense tile (worst case).

    ``info`` (see :mod:`repro.model.terms`) is a pure accelerator —
    every field of the result is bit-identical with or without it;
    docs/PERF.md describes the pipeline.
    """
    arch = mapping.arch
    if info is None:
        info = model_info(mapping.workload, arch)
    violations = mapping.validate()
    counts = count_accesses(mapping, partial_reuse=partial_reuse,
                            sparsity=sparsity, info=info)

    # Per-access energies come from the resolved technology tables hoisted
    # on ModelInfo (identical floats to the levels' attributes).
    read_energies = info.read_energies
    write_energies = info.write_energies
    level_energy: dict[str, float] = {}
    total = 0.0
    for i, arch_level in enumerate(arch.levels):
        acc = counts.levels[i]
        energy = (acc.reads * read_energies[i]
                  + acc.writes * write_energies[i])
        level_energy[arch_level.name] = energy
        total += energy

    noc_energy = 0.0
    chip2chip_energy = 0.0
    network_energies = info.network_energies
    for boundary, words in counts.noc_words.items():
        energy = words * network_energies[boundary]
        noc_energy += energy
        if boundary in info.chip2chip_levels:
            chip2chip_energy += energy
    total += noc_energy

    compute_energy = counts.energy_ops * info.mac_energy
    total += compute_energy

    # Latency: compute-bound vs per-level bandwidth-bound.  Skipping
    # (but not gating) shrinks the effective MAC issue count.
    used_lanes = mapping.used_lanes() * arch.mac_width
    compute_cycles = float(counts.cycle_ops) / float(max(used_lanes, 1))
    cycles = compute_cycles
    for i, arch_level in enumerate(arch.levels):
        instances = math.prod(
            mapping.levels[j].spatial_size for j in range(i, arch.num_levels)
        ) or 1
        acc = counts.levels[i]
        read_cycles = acc.reads / instances / arch_level.read_bandwidth
        write_cycles = acc.writes / instances / arch_level.write_bandwidth
        cycles = max(cycles, read_cycles, write_cycles)
    # Finite-bandwidth interconnect links (chip2chip): all words crossing
    # the boundary share the link.
    for boundary, link_bw in info.link_bandwidths:
        cycles = max(cycles, counts.noc_words[boundary] / link_bw)

    return CostResult(
        energy_pj=total,
        cycles=cycles,
        valid=not violations,
        violations=violations,
        level_energy=level_energy,
        compute_energy=compute_energy,
        noc_energy=noc_energy,
        chip2chip_energy=chip2chip_energy,
        utilization=mapping.spatial_utilization(),
        accesses=counts if keep_accesses else None,
    )


def edp(mapping: Mapping, partial_reuse: bool = True,
        sparsity: SparsitySpec | None = None) -> float:
    """EDP of a mapping; ``inf`` when invalid."""
    result = evaluate(mapping, partial_reuse=partial_reuse,
                      sparsity=sparsity)
    if not result.valid:
        return INVALID_COST
    return result.edp
