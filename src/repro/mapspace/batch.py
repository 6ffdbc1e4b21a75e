"""Evaluation-ready candidate cohorts.

A :class:`Cohort` is a batch of candidates the search engine evaluates
as one.  It stages any subset of its rows as the int64 factor matrices
(``(n, levels, dims)``) plus per-level loop-order sequences that the
vectorised cost model reads, fingerprints a row without building a
``Mapping``, and can still ``materialize(i)`` the *i*-th candidate as a
bona-fide ``Mapping`` (bit-identical to what the scalar path would have
built) for winners, checkpoint journal entries and the scalar fallback.

Two concrete cohorts cover the two generators (the search engine wraps a
plain ``Mapping`` list as a third):

* :class:`NestCohort` — built by the beam schedulers from per-candidate
  completed nests (:meth:`from_nests`) and staged by
  :func:`repro.model.batch.stage_nests`, the staging ``Mapping`` lists
  share;
* :class:`MatrixCohort` — built by :func:`full_space_cohorts`, which
  index-decodes the exhaustive full mapping space straight into
  matrices, in the exact historical enumeration order, shardable.

Everything degrades gracefully without numpy: ``geometry()`` and
``evaluate_rows`` return ``None`` and callers fall back to
``materialize`` + scalar evaluation, which the differential tests pin.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .. import optional_numpy
from ..arch.spec import Architecture
from ..mapping.mapping import LevelMapping, Mapping
from ..model.batch import evaluate_geometry, stage_nests
from ..workloads.expression import Workload
from .mapspace import (
    assignment_slots,
    full_space_lattices,
    order_permutations,
)
from .spaces import check_shard

# Cohort size of full_space_cohorts: large enough to amortise the numpy
# staging of repro.model.batch, small enough to keep peak memory and the
# argmin scan granularity bounded.
DEFAULT_COHORT = 1024

# Spaces larger than this never take the index-decoded path (the
# exhaustive driver's evaluation budget rejects them long before, but
# the decode math should not be asked to range over them either).
_MAX_DECODED_SPACE = 1 << 40


class Cohort:
    """A batch of mapping candidates in evaluation-ready form."""

    workload: Workload
    arch: Architecture

    def __len__(self) -> int:
        raise NotImplementedError

    def fingerprint_levels(self, i: int) -> tuple:
        """The per-level part of ``mapping_fingerprint`` for row ``i``:
        ``tuple((nontrivial_temporal, sorted_nontrivial_spatial))`` per
        level, with python ints — identical to what the scalar path
        computes from the materialized ``Mapping``."""
        raise NotImplementedError

    def materialize(self, i: int) -> Mapping:
        """The row-``i`` candidate as a ``Mapping``, bit-identical to
        the one the scalar path would have built."""
        raise NotImplementedError

    def geometry(self, indices: Sequence[int] | None = None):
        """``(t_mat, s_mat, order_ids, order_table)`` of the selected
        rows (every row by default), or ``None``.

        The layout of :func:`repro.model.batch.stage_nests`: ``(n,
        levels, dims)`` int64 matrices in ``workload.dim_names`` column
        order, and ``order_table[order_ids[i]]`` is row ``i``'s tuple of
        per-level loop-order dim sequences.  ``None`` when numpy is
        unavailable.
        """
        raise NotImplementedError

    def evaluate_rows(self, indices: Sequence[int], partial_reuse,
                      sparsity):
        """Vectorized evaluation of the selected rows (in order), or
        ``None`` when the geometry path is unavailable."""
        geom = self.geometry(indices)
        if geom is None:
            return None
        return evaluate_geometry(self.workload, self.arch, *geom,
                                 partial_reuse=partial_reuse,
                                 sparsity=sparsity)


def _nontrivial_temporal(nest: Sequence[tuple[str, int]]) -> tuple:
    return tuple((d, f) for d, f in nest if f > 1)


def _nontrivial_spatial(pairs: Sequence[tuple[str, int]]) -> tuple:
    return tuple(sorted((d, f) for d, f in pairs if f > 1))


class NestCohort(Cohort):
    """Cohort over explicitly completed per-candidate nests.

    ``candidates[i]`` is ``(nests, spatials)``: per-level temporal nest
    tuples (outermost first, trivial factors included, exactly as
    ``build_mapping`` would emit them) and per-level sorted spatial
    factor tuples.
    """

    def __init__(self, workload: Workload, arch: Architecture,
                 candidates: Sequence[tuple]) -> None:
        self.workload = workload
        self.arch = arch
        self._candidates = list(candidates)

    @classmethod
    def from_nests(cls, workload: Workload, arch: Architecture,
                   candidates: Sequence[tuple]) -> "NestCohort":
        return cls(workload, arch, candidates)

    def __len__(self) -> int:
        return len(self._candidates)

    def fingerprint_levels(self, i: int) -> tuple:
        nests, spatials = self._candidates[i]
        return tuple(
            (_nontrivial_temporal(nest), _nontrivial_spatial(spatial))
            for nest, spatial in zip(nests, spatials)
        )

    def materialize(self, i: int) -> Mapping:
        nests, spatials = self._candidates[i]
        levels = [
            LevelMapping(temporal=tuple(nest), spatial=tuple(spatial))
            for nest, spatial in zip(nests, spatials)
        ]
        return Mapping(self.workload, self.arch, levels)

    def geometry(self, indices: Sequence[int] | None = None):
        if optional_numpy.np is None:
            return None
        rows = self._candidates
        if indices is not None:
            rows = [rows[i] for i in indices]
        return stage_nests(self.workload, self.arch, rows)


class MatrixCohort(Cohort):
    """Cohort backed directly by factor matrices (full-space decode)."""

    def __init__(self, workload: Workload, arch: Architecture,
                 t_mat, s_mat, order_ids, order_table) -> None:
        self.workload = workload
        self.arch = arch
        self._t_mat = t_mat
        self._s_mat = s_mat
        self._order_ids = order_ids
        self._order_table = order_table
        # python-int row views for exact fingerprints / materialization
        self._t_rows = t_mat.tolist()
        self._s_rows = s_mat.tolist()
        self._order_id_list = order_ids.tolist()

    def __len__(self) -> int:
        return len(self._t_rows)

    def fingerprint_levels(self, i: int) -> tuple:
        dims = self.workload.dim_names
        pos = {d: j for j, d in enumerate(dims)}
        sorted_dims = sorted(dims)
        orders = self._order_table[self._order_id_list[i]]
        t_row = self._t_rows[i]
        s_row = self._s_rows[i]
        out = []
        for level in range(self.arch.num_levels):
            t_level = t_row[level]
            s_level = s_row[level]
            nest = tuple((d, t_level[pos[d]]) for d in orders[level]
                         if t_level[pos[d]] > 1)
            spatial = tuple((d, s_level[pos[d]]) for d in sorted_dims
                            if s_level[pos[d]] > 1)
            out.append((nest, spatial))
        return tuple(out)

    def materialize(self, i: int) -> Mapping:
        dims = self.workload.dim_names
        pos = {d: j for j, d in enumerate(dims)}
        sorted_dims = sorted(dims)
        orders = self._order_table[self._order_id_list[i]]
        t_row = self._t_rows[i]
        s_row = self._s_rows[i]
        levels = []
        for level in range(self.arch.num_levels):
            t_level = t_row[level]
            s_level = s_row[level]
            nest = tuple((d, t_level[pos[d]]) for d in orders[level])
            spatial = tuple((d, s_level[pos[d]]) for d in sorted_dims
                            if s_level[pos[d]] > 1)
            levels.append(LevelMapping(temporal=nest, spatial=spatial))
        return Mapping(self.workload, self.arch, levels)

    def geometry(self, indices: Sequence[int] | None = None):
        if indices is None:
            return (self._t_mat, self._s_mat, self._order_ids,
                    self._order_table)
        np = optional_numpy.np
        idx = np.asarray(indices, dtype=np.int64)
        return (self._t_mat[idx], self._s_mat[idx], self._order_ids[idx],
                self._order_table)


class SpaceDecoder:
    """Index-decoder for the full mapping space.

    Stages every per-dimension factor lattice as an int64 split matrix
    once, then :meth:`decode` turns any ascending array of global
    enumeration indices into a :class:`MatrixCohort` — the primitive
    under both :func:`full_space_cohorts` (contiguous/shard-strided
    streams) and the branch-and-bound walker (the surviving leaf blocks,
    arbitrary indices).  ``available`` is False when the vectorized
    decode cannot run (no numpy, a lattice too large to stage, or a
    space beyond the decode guard).
    """

    def __init__(self, workload: Workload, arch: Architecture,
                 orders_per_level: int | None = None) -> None:
        self.workload = workload
        self.arch = arch
        self.num = arch.num_levels
        self.dims = workload.dim_names
        self.slots = assignment_slots(arch)
        self.available = False
        self.total = 0
        if optional_numpy.np is None:
            return
        matrices = [lattice.split_matrix()
                    for lattice in full_space_lattices(workload, arch)]
        if any(m is None for m in matrices):
            return
        order_items = order_permutations(self.dims, orders_per_level)
        if not order_items:
            return
        self.matrices = matrices
        self.order_items = order_items
        self.radices = [len(m) for m in matrices] \
            + [len(order_items)] * self.num
        total = 1
        for radix in self.radices:
            total *= radix
        if total == 0 or total > _MAX_DECODED_SPACE:
            return
        self.total = total
        self.available = True

    def decode(self, ks) -> "MatrixCohort":
        """Cohort for the rows at global indices ``ks`` (int64 array,
        ascending), in that order."""
        np = optional_numpy.np
        num = self.num
        dims = self.dims
        m = len(self.order_items)
        n = len(ks)
        digits = []
        rem = ks
        for radix in reversed(self.radices):
            rem, digit = np.divmod(rem, radix)
            digits.append(digit)
        digits.reverse()
        t_mat = np.ones((n, num, len(dims)), dtype=np.int64)
        s_mat = np.ones((n, num, len(dims)), dtype=np.int64)
        for j, matrix in enumerate(self.matrices):
            block = matrix[digits[j]]  # (n, num_slots)
            for s_idx, (kind, level) in enumerate(self.slots):
                col = block[:, s_idx]
                if kind == "t":
                    t_mat[:, level, j] = col
                else:
                    s_mat[:, level, j] = col
        combo = np.zeros(n, dtype=np.int64)
        for level in range(num):
            combo = combo * m + digits[len(dims) + level]
        uniq, inv = np.unique(combo, return_inverse=True)
        order_table = []
        for value in uniq.tolist():
            # least-significant digit is the innermost-listed order axis
            # (level num-1); reverse to get level 0 first.
            decoded = []
            for _ in range(num):
                value, digit = divmod(value, m)
                decoded.append(digit)
            decoded.reverse()
            order_table.append(tuple(self.order_items[d] for d in decoded))
        return MatrixCohort(self.workload, self.arch, t_mat, s_mat,
                            inv.astype(np.int64), order_table)


def full_space_cohorts(
    workload: Workload,
    arch: Architecture,
    orders_per_level: int | None = None,
    shard: tuple[int, int] | None = None,
    batch_size: int = DEFAULT_COHORT,
) -> "Iterator[MatrixCohort] | None":
    """Stream the full mapping space as :class:`MatrixCohort` batches.

    Row order matches :func:`~repro.mapspace.mapspace.full_mapping_space`
    (and hence the historical exhaustive stream) exactly;
    ``shard=(i, n)`` selects the rows whose global enumeration index is
    congruent to ``i`` mod ``n``.  Returns ``None`` when the vectorized
    decode is unavailable (no numpy, a lattice too large to stage, or a
    space beyond the decode guard) — callers then walk the scalar space.
    """
    decoder = SpaceDecoder(workload, arch, orders_per_level)
    if not decoder.available:
        return None
    shard = check_shard(shard)
    return _decode_cohorts(decoder, shard, batch_size)


def _decode_cohorts(decoder, shard, batch_size):
    np = optional_numpy.np
    start, step = (0, 1) if shard is None else shard
    total = decoder.total
    for block_start in range(start, total, step * batch_size):
        block_end = min(total, block_start + step * batch_size)
        ks = np.arange(block_start, block_end, step, dtype=np.int64)
        yield decoder.decode(ks)
