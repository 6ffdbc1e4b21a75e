"""Spatial-accelerator architecture description.

An :class:`Architecture` is an ordered list of :class:`MemoryLevel` objects,
innermost first.  Each level may fan out spatially: ``fanout`` instances of
the level (and everything below it) exist per instance of the parent level.
This uniform representation covers both the paper's "conventional"
accelerator (one spatial level: a PE grid between L2 and the per-PE L1) and
"modern" Simba-like designs (a second spatial level: vector-MAC lanes with
operand registers inside each PE).

Capacities are per *instance* and per datatype role; a level that does not
list a role bypasses it (e.g. weights bypass the Simba global buffer).  The
special role ``"*"`` denotes a unified buffer shared by all datatypes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

UNIFIED = "*"


class ArchitectureError(ValueError):
    """Raised when an architecture description is malformed."""


LINK_KINDS = ("noc", "chip2chip", "fixed")


@dataclass(frozen=True)
class ComponentSpec:
    """What a memory level physically *is*, for technology retargeting.

    A level that carries a component spec gets its per-access energies
    re-derived by :func:`repro.energy.tech.resolve_architecture` whenever
    the architecture is resolved under a technology pack; a level without
    one keeps its hand-specified energies under every pack.

    ``kind`` selects the estimator: ``"sram"`` (Cacti-style analytic model
    over ``capacity_bytes``/``word_bits``/``banks``), ``"regfile"``
    (flip-flop array over ``entries``/``word_bits``), ``"dram"`` (off-chip
    reference energy scaled by ``word_bits``), or ``"fixed"``
    (``read_energy``/``write_energy`` given directly, scaled by the pack's
    ``logic_scale``).  ``word_bits`` doubles as the flit width of the
    level's interconnect link.
    """

    kind: str
    capacity_bytes: int = 0
    word_bits: int = 16
    banks: int = 1
    entries: int = 0
    read_energy: float = 0.0
    write_energy: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("sram", "regfile", "dram", "fixed"):
            raise ArchitectureError(
                f"unknown component kind '{self.kind}' "
                f"(expected sram, regfile, dram or fixed)")
        if self.kind == "sram" and self.capacity_bytes < 1:
            raise ArchitectureError("sram component needs capacity_bytes")
        if self.kind == "regfile" and self.entries < 1:
            raise ArchitectureError("regfile component needs entries")
        if self.word_bits < 1:
            raise ArchitectureError("component word_bits must be positive")

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.kind == "sram":
            doc["capacity_bytes"] = self.capacity_bytes
            if self.banks != 1:
                doc["banks"] = self.banks
        elif self.kind == "regfile":
            doc["entries"] = self.entries
        elif self.kind == "fixed":
            doc["read_energy"] = self.read_energy
            doc["write_energy"] = self.write_energy
        if self.word_bits != 16:
            doc["word_bits"] = self.word_bits
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ComponentSpec":
        return cls(
            kind=doc["kind"],
            capacity_bytes=int(doc.get("capacity_bytes", 0)),
            word_bits=int(doc.get("word_bits", 16)),
            banks=int(doc.get("banks", 1)),
            entries=int(doc.get("entries", 0)),
            read_energy=float(doc.get("read_energy", 0.0)),
            write_energy=float(doc.get("write_energy", 0.0)),
        )


@dataclass(frozen=True)
class MemoryLevel:
    """One storage level of the hierarchy (innermost = index 0).

    Attributes
    ----------
    name:
        Human-readable name (``"L1"``, ``"GlobalBuffer"``, ``"DRAM"``...).
    capacity_words:
        Per-instance capacity in words for each datatype role it stores,
        or ``None`` for unbounded capacity (off-chip DRAM).  ``{"*": n}``
        describes a unified buffer of ``n`` words.
    fanout:
        Number of instances of this level per parent-level instance; the
        spatial unrolling between this level and its parent is bounded by
        this.  ``1`` means no spatial boundary above this level.
    fanout_shape:
        Mesh shape ``(x, y)`` of the fanout, used for NoC energy estimates.
    read_energy / write_energy:
        Energy (pJ) per word read from / written to one instance.
    network_energy:
        Energy (pJ) per word crossing the interconnect between the parent
        level and this level's instances (tagged multicast, Eyeriss-style).
    read_bandwidth / write_bandwidth:
        Words per cycle per instance (``inf`` = never a bottleneck).
    component:
        Optional :class:`ComponentSpec` describing the physical component,
        enabling technology retargeting.  ``None`` freezes the energies.
    link:
        Kind of interconnect between the parent level and this level's
        instances: ``"noc"`` (on-chip tagged-multicast mesh, the default),
        ``"chip2chip"`` (package-level chiplet link with its own energy and
        finite bandwidth), or ``"fixed"`` (keep ``network_energy`` as
        given under every technology pack).
    link_bandwidth:
        Words per cycle crossing the link *in total* (``inf`` = never a
        bottleneck; only chip2chip links typically constrain this).
    """

    name: str
    capacity_words: Mapping[str, int] | None
    fanout: int = 1
    fanout_shape: tuple[int, int] | None = None
    read_energy: float = 0.0
    write_energy: float = 0.0
    network_energy: float = 0.0
    read_bandwidth: float = math.inf
    write_bandwidth: float = math.inf
    component: ComponentSpec | None = None
    link: str = "noc"
    link_bandwidth: float = math.inf

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ArchitectureError(f"{self.name}: fanout must be >= 1")
        if self.link not in LINK_KINDS:
            raise ArchitectureError(
                f"{self.name}: unknown link kind '{self.link}' "
                f"(expected one of {', '.join(LINK_KINDS)})")
        if not self.link_bandwidth > 0:
            raise ArchitectureError(
                f"{self.name}: link_bandwidth must be positive")
        if self.capacity_words is not None:
            for role, words in self.capacity_words.items():
                if words < 1:
                    raise ArchitectureError(
                        f"{self.name}: capacity for {role} must be positive"
                    )
        if self.fanout_shape is not None:
            x, y = self.fanout_shape
            if x * y != self.fanout:
                raise ArchitectureError(
                    f"{self.name}: fanout_shape {self.fanout_shape} does not "
                    f"multiply to fanout {self.fanout}"
                )

    @property
    def is_unbounded(self) -> bool:
        return self.capacity_words is None

    @property
    def is_unified(self) -> bool:
        return self.capacity_words is not None and UNIFIED in self.capacity_words

    def stores(self, role: str) -> bool:
        """Whether this level buffers the given datatype role."""
        if self.capacity_words is None:
            return True
        return self.is_unified or role in self.capacity_words

    def capacity_for(self, role: str) -> int | None:
        """Capacity available to ``role`` (None = unbounded)."""
        if self.capacity_words is None:
            return None
        if self.is_unified:
            return self.capacity_words[UNIFIED]
        return self.capacity_words.get(role, 0)


class Architecture:
    """A full accelerator: memory levels (innermost first) plus compute.

    ``mac_energy`` is the energy of one multiply-accumulate; ``mac_width``
    the number of scalar MACs ganged per lane (a Simba vector MAC has
    ``mac_width == 8``).  Total peak parallelism is the product of all level
    fanouts times ``mac_width``.

    ``tech`` names the technology pack the per-level energies were resolved
    under (see :mod:`repro.energy.tech`); ``mac_word_bits``, when given,
    lets resolution re-derive ``mac_energy`` from the pack's datapath
    reference energies instead of scaling the given value.
    """

    def __init__(
        self,
        name: str,
        levels: Sequence[MemoryLevel],
        mac_energy: float = 1.0,
        mac_width: int = 1,
        *,
        tech: str = "cmos45",
        mac_word_bits: int | None = None,
    ) -> None:
        if not levels:
            raise ArchitectureError("architecture needs at least one level")
        if not levels[-1].is_unbounded:
            raise ArchitectureError("outermost level must be unbounded (DRAM)")
        for level in levels[:-1]:
            if level.is_unbounded:
                raise ArchitectureError(
                    f"only the outermost level may be unbounded, not {level.name}"
                )
        names = [level.name for level in levels]
        if len(set(names)) != len(names):
            raise ArchitectureError(f"duplicate level names: {names}")
        if levels[-1].fanout != 1:
            raise ArchitectureError("outermost level cannot have a fanout")
        self.name = name
        self.levels: tuple[MemoryLevel, ...] = tuple(levels)
        self.mac_energy = mac_energy
        self.mac_width = mac_width
        self.tech = tech
        self.mac_word_bits = mac_word_bits
        self._energy_table = None

    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def total_fanout(self) -> int:
        """Peak spatial parallelism (excluding intra-lane vector width)."""
        return math.prod(level.fanout for level in self.levels)

    @property
    def peak_macs_per_cycle(self) -> int:
        return self.total_fanout * self.mac_width

    def level_index(self, name: str) -> int:
        for i, level in enumerate(self.levels):
            if level.name == name:
                return i
        raise KeyError(name)

    def instances_of(self, index: int) -> int:
        """Total number of instances of level ``index`` in the machine.

        ``fanout`` counts instances per parent, so the total multiplies the
        fanouts of this level and everything above it.
        """
        return math.prod(level.fanout for level in self.levels[index:])

    def storage_levels(self, role: str) -> tuple[int, ...]:
        """Indices of levels that buffer ``role``, innermost first.

        Every role is held at least by the unbounded outer level.
        """
        return tuple(
            i for i, level in enumerate(self.levels) if level.stores(role)
        )

    def parent_storage(self, index: int, role: str) -> int | None:
        """The next level above ``index`` that stores ``role`` (None at top)."""
        for i in range(index + 1, self.num_levels):
            if self.levels[i].stores(role):
                return i
        return None

    def with_level(self, name: str, **changes) -> "Architecture":
        """Return a copy with one level's attributes replaced."""
        levels = [
            replace(level, **changes) if level.name == name else level
            for level in self.levels
        ]
        return Architecture(self.name, levels, self.mac_energy, self.mac_width,
                            tech=self.tech, mac_word_bits=self.mac_word_bits)

    def energy_table(self):
        """The resolved energy reference table (ERT) for this architecture.

        One Accelergy-style :class:`~repro.energy.table.EnergyTable` built
        from the already-resolved per-level floats: ``<level>.read`` /
        ``<level>.write`` for every level, ``<level>.transfer`` for levels
        with a spatial boundary above them, and ``MAC.compute``.  The cost
        model gathers its per-level energy arrays from this artefact, so a
        pack that fails to define an action fails here with a contextual
        :class:`~repro.energy.table.EnergyLookupError` rather than
        producing silent zeros.  Built lazily and cached.
        """
        if self._energy_table is None:
            from ..energy.table import EnergyTable  # circular at module load

            table = EnergyTable(pack=self.tech)
            for level in self.levels:
                table.define(level.name, "read", level.read_energy)
                table.define(level.name, "write", level.write_energy)
                if level.fanout > 1:
                    table.define(level.name, "transfer", level.network_energy)
            table.define("MAC", "compute", self.mac_energy)
            self._energy_table = table
        return self._energy_table

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [f"Architecture {self.name} "
                 f"(peak {self.peak_macs_per_cycle} MACs/cycle)"]
        for i in reversed(range(self.num_levels)):
            level = self.levels[i]
            if level.capacity_words is None:
                cap = "unbounded"
            else:
                cap = ", ".join(
                    f"{role}:{words}w" for role, words in level.capacity_words.items()
                )
            fan = f" x{level.fanout}" if level.fanout > 1 else ""
            lines.append(
                f"  [{i}] {level.name}{fan}: {cap} "
                f"(rd {level.read_energy:.2f}pJ wr {level.write_energy:.2f}pJ)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Architecture({self.name}, {self.num_levels} levels)"


def words(kib: float, word_bits: int) -> int:
    """Capacity helper: words in ``kib`` KiB at ``word_bits`` per word."""
    return int(kib * 1024 * 8 // word_bits)
