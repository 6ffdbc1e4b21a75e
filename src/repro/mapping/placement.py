"""The placement table: one capacity rule per (workload, architecture).

Sunstone's Tiling Principle grows each tile until it no longer fits its
buffers (paper §III-A, §IV-B), so the capacity test is the tiling tree's
inner loop.  A :class:`PlacementTable` compiles a pair once: per level its
*capacity slots* (the unified ``*`` buffer, or one role's partition of a
per-role buffer) in the order ``Mapping.validate`` reports them, each
with its capacity and stored tensors; per tensor its *home* at or above
every level; and one footprint memo.  :meth:`PlacementTable.problems` is
the only code that writes a violation string, :meth:`PlacementTable.fits`
the bottom-up sweep's necessary-fit check.  Nothing here reads energies.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping, NamedTuple

from ..arch.spec import UNIFIED, Architecture
from ..workloads.expression import Workload

# Per-tensor footprint memo entries kept before the memo is reset (a
# pure cache: resetting it changes no result).
_MEMO_MAX = 1 << 17


class Slot(NamedTuple):
    """One capacity slot: ``role`` is ``"*"`` for a buffer every datatype
    shares (``capacity`` ``None`` when unbounded); ``tensors`` are the
    workload tensor indices it stores, in workload order."""

    role: str
    capacity: int | None
    tensors: tuple[int, ...]


class PlacementTable:
    """Where each tensor of one workload lives on one architecture."""

    def __init__(self, workload: Workload, arch: Architecture) -> None:
        self.workload = workload
        self.arch = arch
        tensors = workload.tensors
        dim_names = workload.dim_names
        num = arch.num_levels
        # Indexing dims per tensor, in workload order: the footprint
        # memo's key spans.
        self.rel_dims = tuple(
            tuple(d for d in dim_names if d in t.indexing_dims)
            for t in tensors)
        slots = []
        for level in arch.levels:
            stored = [i for i, t in enumerate(tensors)
                      if level.stores(t.role)]
            if level.is_unbounded or level.is_unified:
                slots.append((Slot(UNIFIED, level.capacity_for(UNIFIED),
                                   tuple(stored)),))
                continue
            # Roles in first-tensor-encounter order.
            by_role: dict[str, list[int]] = {}
            for i in stored:
                by_role.setdefault(tensors[i].role, []).append(i)
            slots.append(tuple(
                Slot(role, level.capacity_for(role), tuple(members))
                for role, members in by_role.items()))
        self.slots: tuple[tuple[Slot, ...], ...] = tuple(slots)
        slot_of = [{i: slot for slot in level_slots for i in slot.tensors}
                   for level_slots in slots]
        self.stored: tuple[frozenset[str], ...] = tuple(
            frozenset(tensors[i].name for i in held) for held in slot_of)
        # homes[t][L]: the innermost level >= L storing tensor t.  The
        # outermost level is unbounded, so it stores every tensor.
        homes = []
        for i in range(len(tensors)):
            row = [num - 1] * num
            for level in range(num - 2, -1, -1):
                row[level] = level if i in slot_of[level] else row[level + 1]
            homes.append(tuple(row))
        self.homes: tuple[tuple[int, ...], ...] = tuple(homes)
        # Per level, the bounded slots a tile decided there charges:
        # (home is above the level, capacity, charged tensors), where the
        # charged tensors are the slot's members whose home it is.
        charges = []
        for level in range(num):
            groups: dict[tuple[int, Slot], list[int]] = {}
            for i in range(len(tensors)):
                home = homes[i][level]
                slot = slot_of[home][i]
                if slot.capacity is not None:
                    groups.setdefault((home, slot), []).append(i)
            charges.append(tuple(
                (home != level, slot.capacity, tuple(members))
                for (home, slot), members in groups.items()))
        self._charges = tuple(charges)
        # Per level, the dims whose spans decide its capacity verdict.
        capacity_dims = []
        for level_slots in slots:
            spanned = {d for slot in level_slots if slot.capacity is not None
                       for i in slot.tensors for d in self.rel_dims[i]}
            capacity_dims.append(tuple(d for d in dim_names if d in spanned))
        self.capacity_dims: tuple[tuple[str, ...], ...] = \
            tuple(capacity_dims)
        self._memo: list[dict[tuple, int]] = [{} for _ in tensors]

    def footprint(self, index: int, sizes: Mapping[str, int],
                  key: tuple | None = None) -> int:
        """Words of tensor ``index``'s tile when dims span ``sizes``.

        ``key``, when the caller has it, is the tuple of spans over the
        tensor's indexing dims (``rel_dims[index]``).
        """
        if key is None:
            key = tuple([sizes.get(d, 1) for d in self.rel_dims[index]])
        memo = self._memo[index]
        words = memo.get(key)
        if words is None:
            if len(memo) >= _MEMO_MAX:
                memo.clear()
            words = self.workload.tensors[index].footprint(sizes)
            memo[key] = words
        return words

    def usage(self, level: int, sizes: Mapping[str, int]) -> list[int]:
        """Words held in each of ``level``'s slots (slot order) by one
        instance whose tile spans ``sizes``."""
        footprint = self.footprint
        return [sum(footprint(i, sizes) for i in slot.tensors)
                for slot in self.slots[level]]

    def problems(self, level: int, spatial_size: int, unrolled: int,
                 sizes: Mapping[str, int]) -> list[str]:
        """Violation strings of one level: the fanout checks on its
        spatial unrolling (``spatial_size`` instances, ``unrolled``
        nontrivially unrolled dims), then each bounded slot that the tile
        spanning ``sizes`` overflows, in slot order."""
        arch_level = self.arch.levels[level]
        name = arch_level.name
        problems: list[str] = []
        if spatial_size > arch_level.fanout:
            problems.append(
                f"level {name}: spatial unrolling "
                f"{spatial_size} exceeds fanout {arch_level.fanout}"
            )
        if unrolled > 2:
            # A 2D mesh delivers distinct data along at most two axes.
            problems.append(
                f"level {name}: {unrolled} dimensions "
                f"unrolled across a 2D fanout"
            )
        footprint = self.footprint
        for slot in self.slots[level]:
            cap = slot.capacity
            if cap is None:
                continue
            used = sum(footprint(i, sizes) for i in slot.tensors)
            if used <= cap:
                continue
            if slot.role == UNIFIED:
                problems.append(
                    f"level {name}: tile of {used} words "
                    f"exceeds unified capacity {cap}"
                )
            else:
                problems.append(
                    f"level {name}: {slot.role} tile of {used} "
                    f"words exceeds capacity {cap}"
                )
        return problems

    def fits(self, level: int, sizes: Mapping[str, int],
             spatial: Mapping[str, int]) -> bool:
        """Necessary fit of a (tile, spatial unrolling) decided at
        ``level``: every tensor is charged to its home at or above the
        level.  At its home the tile spans ``sizes``; a bypassed tensor's
        home above also holds the ``spatial`` factors at this boundary.
        Upper levels only fill further once their own loops are chosen,
        so a valid completion always passes."""
        spread = None
        footprint = self.footprint
        for above, cap, members in self._charges[level]:
            span = sizes
            if above and spatial:
                if spread is None:
                    spread = {d: sizes.get(d, 1) * spatial.get(d, 1)
                              for d in self.workload.dims}
                span = spread
            used = 0
            for i in members:
                used += footprint(i, span)
            if used > cap:
                return False
        return True


def pair_memo(build):
    """Memoise ``build(workload, arch)`` per (workload, arch) object pair,
    keeping the 64 most recently used.  What ``build`` returns must keep
    its ``workload`` and ``arch``: a recycled ``id`` never matches."""
    cache: OrderedDict = OrderedDict()

    def get(workload: Workload, arch: Architecture):
        key = (id(workload), id(arch))
        entry = cache.get(key)
        if entry is None or entry.workload is not workload \
                or entry.arch is not arch:
            entry = cache[key] = build(workload, arch)
            while len(cache) > 64:
                cache.popitem(last=False)
        cache.move_to_end(key)
        return entry

    return get


placement_table = pair_memo(PlacementTable)
