"""Text-mode visualisation of mappings and evaluations.

Terminal-friendly renderings used by the CLI and the examples: per-level
buffer-occupancy gauges, energy-breakdown bars, the reuse table, and the
spatial layout of a fanout boundary.  No plotting dependencies.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..arch.spec import UNIFIED
from ..mapping.mapping import Mapping
from ..mapping.placement import placement_table
from ..model.cost import CostResult, evaluate
from ..workloads.expression import Workload

BAR_WIDTH = 36


def _bar(fraction: float, width: int = BAR_WIDTH) -> str:
    fraction = max(0.0, min(1.0, fraction))
    filled = round(fraction * width)
    return "#" * filled + "." * (width - filled)


def occupancy_chart(mapping: Mapping) -> str:
    """Per-level buffer-fill gauges for every capacity slot in use."""
    table = placement_table(mapping.workload, mapping.arch)
    lines = ["buffer occupancy (one instance per level):"]
    for index in reversed(range(mapping.arch.num_levels)):
        name = mapping.arch.levels[index].name
        usage = table.usage(index, mapping.cumulative_sizes(index))
        for slot, used in sorted(zip(table.slots[index], usage),
                                 key=lambda pair: pair[0].role):
            cap = slot.capacity
            if cap is None:
                lines.append(f"  {name:<10} unbounded")
            elif slot.role == UNIFIED:
                lines.append(
                    f"  {name:<10} [{_bar(used / cap)}] {used}/{cap} words")
            else:
                lines.append(
                    f"  {name:<10} {slot.role:<7} [{_bar(used / cap)}] "
                    f"{used}/{cap} words"
                )
    return "\n".join(lines)


def energy_chart(cost: CostResult) -> str:
    """Horizontal bars of the per-component energy breakdown."""
    parts: list[tuple[str, float]] = list(cost.level_energy.items())
    chip2chip = getattr(cost, "chip2chip_energy", 0.0)
    if chip2chip > 0:
        # chip2chip traffic is accounted inside noc_energy; split it out
        # so package-boundary crossings are visible in the breakdown.
        parts.append(("NoC", cost.noc_energy - chip2chip))
        parts.append(("chip2chip", chip2chip))
    else:
        parts.append(("NoC", cost.noc_energy))
    parts.append(("compute", cost.compute_energy))
    total = cost.energy_pj or 1.0
    lines = [f"energy breakdown ({total / 1e6:.2f} uJ total):"]
    for name, energy in sorted(parts, key=lambda kv: -kv[1]):
        fraction = energy / total
        lines.append(f"  {name:<10} [{_bar(fraction)}] {fraction:6.1%}")
    return "\n".join(lines)


def spatial_chart(mapping: Mapping, level: int) -> str:
    """The unrolled dimensions laid out over a fanout boundary's mesh."""
    arch_level = mapping.arch.levels[level]
    if arch_level.fanout <= 1:
        return f"{arch_level.name}: no fanout boundary"
    shape = arch_level.fanout_shape or (arch_level.fanout, 1)
    spatial = [(d, f) for d, f in mapping.levels[level].spatial if f > 1]
    used = math.prod(f for _, f in spatial) or 1
    header = (f"{arch_level.name} fanout {shape[0]}x{shape[1]}: "
              + (" * ".join(f"{d}x{f}" for d, f in spatial) or "idle")
              + f"  ({used}/{arch_level.fanout} = "
                f"{used / arch_level.fanout:.0%} used)")
    # Draw a compact grid marking active PEs (row-major packing of the
    # unrolled factors, the same convention the NoC simulator uses).
    cols = min(shape[0], 32)
    rows = min(shape[1], 16)
    scale_x = shape[0] / cols
    scale_y = shape[1] / rows
    lines = [header]
    for r in range(rows):
        row_chars = []
        for c in range(cols):
            linear = (int(r * scale_y) * shape[0]) + int(c * scale_x)
            row_chars.append("o" if linear < used else ".")
        lines.append("  " + "".join(row_chars))
    return "\n".join(lines)


def reuse_chart(workload: Workload) -> str:
    """Table III as aligned text."""
    lines = [f"reuse inference for {workload.name}:"]
    lines.append(f"  {'tensor':<10} {'indexed by':<18} {'reused by':<14} "
                 f"partial")
    for name, info in workload.reuse_table().items():
        lines.append(
            f"  {name:<10} {','.join(sorted(info.indexed_by)):<18} "
            f"{','.join(sorted(info.reused_by)) or '-':<14} "
            f"{','.join(sorted(info.partially_reused_by)) or '-'}"
        )
    return "\n".join(lines)


def mapping_report(mapping: Mapping, cost: CostResult | None = None) -> str:
    """Full text dashboard for one mapping."""
    cost = cost if cost is not None else evaluate(mapping)
    sections = [
        repr(mapping),
        cost.summary(),
        "",
        occupancy_chart(mapping),
        "",
        energy_chart(cost),
    ]
    for index, level in enumerate(mapping.arch.levels):
        if level.fanout > 1:
            sections.append("")
            sections.append(spatial_chart(mapping, index))
    return "\n".join(sections)
