"""Evaluation-ready candidate cohorts and the full space's index decoder.

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
* :class:`MatrixCohort` — built by :meth:`SpaceDecoder.decode`, which
  index-decodes rows of the exhaustive full mapping space straight into
  matrices.

:class:`SpaceDecoder` is the one owner of the full space's enumeration
order.  Without numpy it decodes the same indices by integer division
into a :class:`NestCohort`, whose ``geometry()`` is ``None``: the engine
then materializes each row and runs the scalar model, which the
differential tests pin.
"""

from __future__ import annotations

import math
from typing import Sequence

from .. import optional_numpy
from ..arch.spec import Architecture
from ..mapping.mapping import LevelMapping, Mapping
from ..model.batch import evaluate_geometry, stage_nests
from ..workloads.expression import Workload
from .mapspace import (
    assignment_slots,
    full_space_lattices,
    order_permutations,
    stores_from_splits,
)


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
    """The full mapping space's one enumeration order.

    Global index ``k`` is a mixed-radix number.  Its digits, most
    significant first, are one split index per workload dimension (into
    that dimension's :meth:`FactorLattice.splits()
    <repro.mapspace.factor.FactorLattice.splits>` list over the
    canonical assignment slots, first dimension outermost) and then one
    loop-order index per level (into :func:`order_permutations`, level 0
    most significant).  ``radices`` lists the digit ranges in that order,
    so the candidates sharing a split prefix of length ``j`` form one
    contiguous block of ``prod(radices[j:])`` indices: the strides the
    exhaustive walker reads.  ``total`` is the space's size.
    """

    def __init__(self, workload: Workload, arch: Architecture,
                 orders_per_level: int | None = None) -> None:
        self.workload = workload
        self.arch = arch
        self.num = arch.num_levels
        self.dims = workload.dim_names
        self.slots = assignment_slots(arch)
        self.splits = [list(lattice.splits())
                       for lattice in full_space_lattices(workload, arch)]
        self.order_items = order_permutations(self.dims, orders_per_level)
        self.radices = ([len(s) for s in self.splits]
                        + [len(self.order_items)] * self.num)
        self.total = math.prod(self.radices)
        self._matrices = None

    def decode(self, ks: Sequence[int]) -> Cohort:
        """Cohort for the rows at global indices ``ks`` (ascending), in
        that order: a :class:`MatrixCohort` with numpy, else a
        :class:`NestCohort` of the same rows."""
        np = optional_numpy.np
        if np is None:
            return self._decode_nests(ks)
        if self._matrices is None:
            self._matrices = [np.array(splits, dtype=np.int64)
                              for splits in self.splits]
        num = self.num
        dims = self.dims
        m = len(self.order_items)
        ks = np.asarray(ks, dtype=np.int64)
        n = len(ks)
        digits = []
        rem = ks
        for radix in reversed(self.radices):
            rem, digit = np.divmod(rem, radix)
            digits.append(digit)
        digits.reverse()
        t_mat = np.ones((n, num, len(dims)), dtype=np.int64)
        s_mat = np.ones((n, num, len(dims)), dtype=np.int64)
        for j, matrix in enumerate(self._matrices):
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

    def _decode_nests(self, ks: Sequence[int]) -> "NestCohort":
        """The rows of :meth:`decode` by integer division, as the nests
        and sorted spatial factors ``assemble_mapping`` would build."""
        num = self.num
        num_dims = len(self.dims)
        stores: dict[tuple, tuple] = {}
        rows = []
        for k in ks:
            digits = []
            for radix in reversed(self.radices):
                k, digit = divmod(k, radix)
                digits.append(digit)
            digits.reverse()
            split_digits = tuple(digits[:num_dims])
            store = stores.get(split_digits)
            if store is None:
                store = stores[split_digits] = stores_from_splits(
                    self.dims,
                    [splits[d] for splits, d
                     in zip(self.splits, split_digits)],
                    self.slots, num)
            temporal, spatial = store
            orders = [self.order_items[d] for d in digits[num_dims:]]
            rows.append((
                tuple(tuple((d, temporal[level].get(d, 1))
                            for d in orders[level])
                      for level in range(num)),
                tuple(tuple(sorted(spatial[level].items()))
                      for level in range(num)),
            ))
        return NestCohort(self.workload, self.arch, rows)
