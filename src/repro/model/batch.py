"""Vectorised cohort evaluation: the cost model over factor matrices.

A Sunstone level sweep evaluates dozens of sibling candidates that share
one workload and architecture.  This module lays such a cohort out as
int64 factor matrices — ``(n, levels, dims)``, one row per candidate —
and performs the energy/cycle rollups of
:func:`repro.model.cost.evaluate` with elementwise array ops.  The
beam schedulers' nest cohorts and ready-made ``Mapping`` lists
(:func:`evaluate_batch`, the engine's ``evaluate_many``, both through
:func:`stage_mappings`) are staged by one function, :func:`stage_nests`;
the exhaustive decoder produces the same matrices directly.

Bit-identity contract
---------------------
Every field of every returned :class:`~repro.model.cost.CostResult` is
bit-identical to the scalar path:

* the per-(tensor, storage-pair) *terms* (fills, window-overlap fill
  words, sparse traffic scaling) come from the very same
  :func:`repro.model.terms._compute_term` the scalar path uses — exact
  integer arithmetic plus Python-float conversions at fixed points;
* every floating-point operation downstream of the terms is elementwise
  (``+``, ``*``, ``/``, ``maximum``) in exactly the scalar accumulation
  order, and IEEE-754 elementwise float64 ops round identically to the
  equivalent Python-float ops — no ``np.sum`` (pairwise summation) or
  other reassociation anywhere;
* numpy absent, a cohort smaller than :data:`MIN_BATCH`, or a
  ``Mapping`` list mixing workloads or architectures, falls back to
  calling the scalar :func:`~repro.model.cost.evaluate` per mapping.

``tests/test_model_batch.py`` pins the contract with seeded hypothesis
cases across window/halo workloads, bypass configs and sparsity specs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .. import optional_numpy
from ..mapping.mapping import Mapping
from ..sparse.spec import SparsitySpec
from .cost import CostResult, evaluate
from .terms import ModelInfo, _compute_term, model_info

# Whether numpy is installed, for reports; evaluation paths read the
# switch optional_numpy.np when called.
HAVE_NUMPY = optional_numpy.np is not None

# Fewest rows worth staging as matrices: below this the scalar model is
# faster (measured in docs/PERF.md: sweep cohorts break even at 7-8
# rows).  The search engine and evaluate_batch share it, so
# "vectorised" counts exactly the rows the array path ran.
MIN_BATCH = 8


def mapping_nests(mapping: Mapping) -> tuple[tuple, tuple]:
    """``(nests, spatials)`` of ``mapping``: the row form
    :func:`stage_nests` reads."""
    levels = mapping.levels
    return (tuple(lvl.temporal for lvl in levels),
            tuple(lvl.spatial for lvl in levels))


def stage_nests(workload, arch, candidates: Iterable[tuple]):
    """Stage a cohort as ``(t_mat, s_mat, order_ids, order_table)``.

    ``candidates`` yields one ``(nests, spatials)`` pair per row: per
    level, the temporal loops outermost first and the spatial unrolling,
    both as ``(dim, factor)`` pairs exactly as a
    :class:`~repro.mapping.mapping.LevelMapping` holds them (trivial
    factors allowed).  ``t_mat``/``s_mat`` are ``(n, levels, dims)``
    int64 matrices in ``workload.dim_names`` column order, whose
    cumulative products along the level axis reproduce
    ``Mapping.cumulative_sizes`` exactly; ``order_table[order_ids[k]]``
    is row ``k``'s tuple of per-level loop-order dim sequences.
    """
    np = optional_numpy.np
    pos = {d: j for j, d in enumerate(workload.dim_names)}
    one_row = [1] * len(pos)
    flat_t: list[int] = []
    flat_s: list[int] = []
    order_ids: list[int] = []
    combo_ids: dict[tuple, int] = {}
    order_table: list[tuple] = []
    for nests, spatials in candidates:
        seqs = []
        for nest in nests:
            row = one_row.copy()
            seq = []
            for d, f in nest:
                seq.append(d)
                if f != 1:
                    row[pos[d]] = f
            flat_t.extend(row)
            seqs.append(tuple(seq))
        seqs = tuple(seqs)
        combo = combo_ids.get(seqs)
        if combo is None:
            combo = combo_ids[seqs] = len(order_table)
            order_table.append(seqs)
        order_ids.append(combo)
        for spatial in spatials:
            row = one_row.copy()
            for d, f in spatial:
                if f != 1:
                    row[pos[d]] = f
            flat_s.extend(row)
    shape = (len(order_ids), arch.num_levels, len(pos))
    return (np.array(flat_t, dtype=np.int64).reshape(shape),
            np.array(flat_s, dtype=np.int64).reshape(shape),
            np.array(order_ids, dtype=np.int64),
            order_table)


def stage_mappings(workload, arch, mappings: Sequence[Mapping]):
    """Stage ``Mapping`` rows on ``workload``/``arch`` with
    :func:`stage_nests`, or ``None`` when any row is on another workload
    or architecture: a mixed list has no one geometry and runs the
    scalar model."""
    if any(m.workload is not workload or m.arch is not arch
           for m in mappings):
        return None
    return stage_nests(workload, arch, map(mapping_nests, mappings))


def evaluate_batch(
    mappings: list[Mapping],
    partial_reuse: bool = True,
    sparsity: SparsitySpec | None = None,
) -> list[CostResult]:
    """Evaluate a list of mappings, vectorising where profitable.

    The search engine's rule for a ``Mapping`` list: with numpy, a list
    of at least :data:`MIN_BATCH` rows on one workload and architecture
    is staged by :func:`stage_mappings` and evaluated by
    :func:`evaluate_geometry`; anything else runs the scalar model per
    mapping.  Results are bit-identical to ``[evaluate(m, ...) for m in
    mappings]``.
    """
    staged = None
    if optional_numpy.np is not None and len(mappings) >= MIN_BATCH:
        workload, arch = mappings[0].workload, mappings[0].arch
        staged = stage_mappings(workload, arch, mappings)
    if staged is None:
        return [evaluate(m, partial_reuse=partial_reuse, sparsity=sparsity)
                for m in mappings]
    return evaluate_geometry(workload, arch, *staged,
                             partial_reuse=partial_reuse, sparsity=sparsity)


def evaluate_geometry(
    workload,
    arch,
    t_mat,
    s_mat,
    order_ids,
    order_table,
    partial_reuse: bool = True,
    sparsity: SparsitySpec | None = None,
) -> list[CostResult]:
    """Evaluate a cohort given as the factor matrices of
    :func:`stage_nests`.

    Results are bit-identical to materializing each candidate as a
    ``Mapping`` and calling the scalar :func:`~repro.model.cost.evaluate`.
    """
    if optional_numpy.np is None:
        raise RuntimeError("evaluate_geometry requires numpy")
    geo = _CohortGeometry(model_info(workload, arch), t_mat, s_mat,
                          order_ids, order_table)
    return _rollup(geo, partial_reuse, sparsity)


class _CohortGeometry:
    """Exact int64 geometry of one cohort, derived from its factor
    matrices.

    The cumulative products along the level axis reproduce
    ``Mapping.cumulative_sizes`` — the same integers, so every term
    fingerprint built from them matches the scalar path's exactly.
    Spans and suffix runs are derived lazily per requested level.
    """

    __slots__ = ("info", "n", "cum_t", "cum_s", "t_from", "sp_all",
                 "sp_counts", "_t_mat", "_order_ids", "_order_table",
                 "_loops", "_spans", "_runs")

    def __init__(self, info: ModelInfo, t_mat, s_mat, order_ids,
                 order_table) -> None:
        np = optional_numpy.np
        self.info = info
        n = int(t_mat.shape[0])
        self.n = n
        num = info.num_levels
        self.cum_t = np.cumprod(t_mat, axis=1)
        self.cum_s = np.cumprod(s_mat, axis=1)
        # t_from[l] = product of every temporal bound at levels >= l;
        # the per-level product over the dim axis equals the nest's
        # _temporal_product exactly (absent dims contribute 1).
        tp = np.prod(t_mat, axis=2, dtype=np.int64)
        t_from = np.ones((n, num + 1), dtype=np.int64)
        acc = np.ones(n, dtype=np.int64)
        for level in range(num - 1, -1, -1):
            acc = acc * tp[:, level]
            t_from[:, level] = acc
        self.t_from = t_from
        # (n, levels) spatial size and nontrivial-unroll count: the first
        # two fingerprint columns of the violation checks.
        self.sp_all = np.prod(s_mat, axis=2, dtype=np.int64)
        self.sp_counts = (s_mat > 1).sum(axis=2).astype(np.int64)
        self._t_mat = t_mat
        self._order_ids = order_ids
        self._order_table = order_table
        self._loops = None
        self._spans: dict[int, object] = {}
        self._runs: dict[int, object] = {}

    def spans(self, level: int):
        """Tile spans ``(n, dims)`` of one level-``level`` instance:
        exactly ``cumulative_sizes(level)`` laid out per candidate."""
        out = self._spans.get(level)
        if out is None:
            out = self.cum_t[:, level]
            if level > 0:
                out = out * self.cum_s[:, level - 1]
            self._spans[level] = out
        return out

    def loops(self):
        """``(n, levels, width)`` column indices of every row's temporal
        loops, innermost first within each level.  Slots past a level's
        nest point at column ``dims`` of :meth:`runs`' padded factor
        matrix, whose bound is 1."""
        out = self._loops
        if out is None:
            np = optional_numpy.np
            pos = self.info.dim_index
            pad = len(pos)
            width = max((len(seq) for seqs in self._order_table
                         for seq in seqs), default=0)
            table = [[[pos.get(d, pad) for d in reversed(seq)]
                      + [pad] * (width - len(seq)) for seq in seqs]
                     for seqs in self._order_table]
            out = np.array(table, dtype=np.intp).reshape(
                len(table), self.info.num_levels, width)[self._order_ids]
            self._loops = out
        return out

    def runs(self, child: int):
        """``(n, tensors, 3)`` int64: per tensor the trailing temporal
        run above ``child`` as (trailing product, innermost relevant
        dim index or -1, its bound).

        The scalar path's per-mapping ``suffix_info`` walk, for every row at
        once: lay the loops above ``child`` out innermost-first, take the
        exclusive running product of their bounds, and per tensor pick
        the first nontrivial loop over one of its indexing dims.  Trivial
        and padding loops multiply 1 into the product and never match,
        exactly as if walking the nontrivial-only nests.
        """
        out = self._runs.get(child)
        if out is not None:
            return out
        np = optional_numpy.np
        info = self.info
        n = self.n
        pad = len(info.dim_names)
        out = np.empty((n, len(info.tensors), 3), dtype=np.int64)
        out[:, :, 0] = 1
        out[:, :, 1] = -1
        out[:, :, 2] = 1
        above = info.num_levels - child - 1
        loops = self.loops()
        if above > 0 and loops.shape[2] > 0:
            width = loops.shape[2]
            cols = loops[:, child + 1:, :].reshape(n, above * width)
            # Flat offsets into the padded (levels, dims + 1) factors.
            offsets = np.repeat(
                np.arange(child + 1, info.num_levels) * (pad + 1), width)
            padded = np.ones((n, info.num_levels, pad + 1), dtype=np.int64)
            padded[:, :, :pad] = self._t_mat
            bounds = np.take_along_axis(
                padded.reshape(n, -1), cols + offsets, axis=1)
            trailing = np.ones_like(bounds)
            np.cumprod(bounds[:, :-1], axis=1, out=trailing[:, 1:])
            rows = np.arange(n)
            nontrivial = bounds > 1
            for tinfo in info.tensors:
                relevant = np.zeros(pad + 1, dtype=bool)
                relevant[list(tinfo.rel_idx)] = True
                hit = nontrivial & relevant[cols]
                first = hit.argmax(axis=1)
                found = hit[rows, first]
                ti = tinfo.index
                out[:, ti, 0] = np.where(found, trailing[rows, first], 1)
                out[:, ti, 1] = np.where(found, cols[rows, first], -1)
                out[:, ti, 2] = np.where(found, bounds[rows, first], 1)
        self._runs[child] = out
        return out


def _pair_term_cols(info, tinfo, child, partial_reuse, spec, geo, idxb):
    """Term columns of one (tensor, child) for a whole cohort.

    Builds the term fingerprint rows as int64 columns and runs
    :func:`~repro.model.terms._compute_term` once per *distinct*
    fingerprint — sweep cohorts repeat fingerprints heavily.  Returns
    the per-candidate ``(fills, distinct, fill_words, pair_words)``
    columns, scattered back exactly (integer/float64 gathers reorder
    nothing).
    """
    np = optional_numpy.np
    num = info.num_levels
    rel = tinfo.rel_dims
    nrel = len(rel)
    sub = geo.spans(child)[:, list(tinfo.rel_idx)]
    span_prod = np.prod(sub, axis=1, dtype=np.int64)
    t_rel = tinfo.rel_total // (
        span_prod * (idxb[:, num] // idxb[:, child]))
    run = geo.runs(child)[:, tinfo.index, :]
    trivial = t_rel == 1
    fills = np.where(trivial, 1,
                     geo.t_from[:, child + 1] // run[:, 0])
    inner_id = np.where(trivial, -1, run[:, 1])
    inner_bound = np.where(trivial, 1, run[:, 2])
    key_mat = np.column_stack([sub, fills, inner_id, inner_bound, t_rel])

    dim_names = info.dim_names
    local: dict[tuple, int] = {}
    local_get = local.get
    inverse: list[int] = []
    inv_append = inverse.append
    d_fills: list[int] = []
    d_dist: list[int] = []
    d_fw: list[float] = []
    d_pw: list[float] = []
    for row in key_mat.tolist():
        kt = tuple(row)
        slot = local_get(kt)
        if slot is None:
            spans_row = row[:nrel]
            fills_u, inner_id_u, inner_bound_u, t_rel_u = row[nrel:]
            inner_dim = dim_names[inner_id_u] if inner_id_u >= 0 else None
            term = _compute_term(info, tinfo, dict(zip(rel, spans_row)),
                                 tuple(spans_row), fills_u, inner_dim,
                                 inner_bound_u, t_rel_u, partial_reuse,
                                 spec)
            slot = len(d_fills)
            local[kt] = slot
            d_fills.append(term[0])
            d_dist.append(term[1])
            d_fw.append(term[2])
            d_pw.append(term[3])
        inv_append(slot)
    if len(d_fills) == 1:
        # One fingerprint for the whole cohort — broadcast it.
        n = len(inverse)
        return (np.full(n, d_fills[0], dtype=np.int64),
                np.full(n, d_dist[0], dtype=np.int64),
                np.full(n, d_fw[0]),
                np.full(n, d_pw[0]))
    inv = np.array(inverse, dtype=np.intp)
    return (np.array(d_fills, dtype=np.int64)[inv],
            np.array(d_dist, dtype=np.int64)[inv],
            np.array(d_fw)[inv],
            np.array(d_pw)[inv])


def _violations_cols(info, geo):
    """Per-candidate violation lists, one check per distinct profile.

    Builds one fused fingerprint row per candidate — every level's
    spatial unrolling plus the tile spans its capacity verdict reads
    (``PlacementTable.capacity_dims``) — and asks the placement table,
    the rule ``Mapping.validate`` reads too, once per distinct row,
    sharing the (immutable) result lists across candidates.
    """
    np = optional_numpy.np
    table = info.placement
    num = info.num_levels
    cols = [geo.sp_all, geo.sp_counts]
    spans = []
    off = 2 * num
    for level, dims in enumerate(table.capacity_dims):
        if dims:
            cols.append(geo.spans(level)[:, [info.dim_index[d] for d in dims]])
        spans.append((dims, off, off + len(dims)))
        off += len(dims)
    key_mat = np.column_stack(cols)
    local: dict[tuple, list[str]] = {}
    local_get = local.get
    results: list[list[str]] = []
    for row in key_mat.tolist():
        kt = tuple(row)
        problems = local_get(kt)
        if problems is None:
            problems = []
            for level, (dims, start, stop) in enumerate(spans):
                problems.extend(table.problems(
                    level, row[level], row[num + level],
                    dict(zip(dims, row[start:stop]))))
            local[kt] = problems
        # Fresh list per candidate: results must not alias each other.
        results.append(list(problems))
    return results


def _rollup(
    geo: _CohortGeometry,
    partial_reuse: bool,
    sparsity: SparsitySpec | None,
) -> list[CostResult]:
    """Array rollup over one cohort's staged geometry."""
    np = optional_numpy.np
    info = geo.info
    arch = info.arch
    n = geo.n
    num = info.num_levels

    reads = np.zeros((n, num))
    writes = np.zeros((n, num))
    noc_words = {i: np.zeros(n) for i in info.fanout_levels}

    # Exact spatial prefix products, one row per candidate: ratios of
    # columns give sharing lanes, multicast boundaries and instance
    # counts as exact int64 divisions (identical to the scalar ints).
    ones_col = np.ones((n, 1), dtype=np.int64)
    spb = np.concatenate(
        [ones_col, np.prod(geo.cum_s, axis=2, dtype=np.int64)], axis=1)
    total_inst = spb[:, num]

    total_ops = info.total_ops
    energy_ops: float = total_ops
    cycle_ops: float = total_ops
    op_scale = 1.0
    if sparsity is not None:
        from ..sparse.saf import compute_scales
        op_scale, cycle_scale = compute_scales(sparsity, info.tensor_names)
        energy_ops = total_ops * op_scale
        cycle_ops = total_ops * cycle_scale

    pair_ratios: dict[tuple[int, int], tuple] = {}
    for tinfo in info.tensors:
        spec = sparsity.get(tinfo.name) if sparsity is not None else None
        innermost = tinfo.innermost
        idxb = np.concatenate(
            [ones_col,
             np.prod(geo.cum_s[:, :, list(tinfo.rel_idx)], axis=2,
                     dtype=np.int64)],
            axis=1)

        # ---- compute-side accesses at the innermost storage level ----
        # int64 operands promote to float64 exactly (values < 2**53),
        # identical to the scalar float(int) conversions.
        share = spb[:, innermost] // idxb[:, innermost]
        compute_accesses = float(total_ops) / share
        if sparsity is not None:
            compute_accesses = compute_accesses * op_scale
        if tinfo.is_output:
            writes[:, innermost] += compute_accesses
            reads[:, innermost] += compute_accesses
        else:
            reads[:, innermost] += compute_accesses

        # ---- transfers between adjacent storage levels ----
        for child, parent in tinfo.pairs:
            fills_a, dist_a, fw, pw = _pair_term_cols(
                info, tinfo, child, partial_reuse, spec, geo, idxb)
            bi = idxb[:, parent] // idxb[:, child]
            ratios = pair_ratios.get((child, parent))
            if ratios is None:
                ratios = (spb[:, parent] // spb[:, child],
                          total_inst // spb[:, parent])
                pair_ratios[(child, parent)] = ratios
            ba, ab = ratios

            child_side = fw * ba * ab
            parent_side = fw * bi * ab

            if tinfo.is_output:
                reads[:, child] += child_side
                writes[:, parent] += parent_side
                # Accumulation read-back; the masked zeros are exact
                # additive identities (all accumulators are >= +0.0).
                rv = fills_a - dist_a
                mask = rv > 0
                writes[:, child] += np.where(mask, rv * pw * ba * ab, 0.0)
                reads[:, parent] += np.where(mask, rv * pw * bi * ab, 0.0)
            else:
                writes[:, child] += child_side
                reads[:, parent] += parent_side

            for j in range(child, parent):
                if j in info.fanout_set:
                    noc_words[j] += parent_side

    # ---- energy rollup (scalar accumulation order preserved) ----
    # Per-access energies are the resolved-technology floats hoisted on
    # ModelInfo (the same objects as the levels' attributes).
    read_energies = info.read_energies
    write_energies = info.write_energies
    network_energies = info.network_energies
    level_energy = np.empty((n, num))
    total = np.zeros(n)
    for i in range(num):
        energy = (reads[:, i] * read_energies[i]
                  + writes[:, i] * write_energies[i])
        level_energy[:, i] = energy
        total = total + energy

    noc_energy = np.zeros(n)
    chip2chip_energy = np.zeros(n) if info.chip2chip_levels else None
    for boundary in info.fanout_levels:
        contribution = noc_words[boundary] * network_energies[boundary]
        noc_energy = noc_energy + contribution
        if chip2chip_energy is not None and boundary in info.chip2chip_levels:
            chip2chip_energy = chip2chip_energy + contribution
    total = total + noc_energy

    compute_energy = energy_ops * info.mac_energy
    total = total + compute_energy

    # ---- latency rollup ----
    lanes = np.maximum(total_inst * arch.mac_width, 1)
    cycles = float(cycle_ops) / lanes
    for i, arch_level in enumerate(arch.levels):
        instances = total_inst // spb[:, i]
        read_cycles = reads[:, i] / instances / arch_level.read_bandwidth
        write_cycles = writes[:, i] / instances / arch_level.write_bandwidth
        cycles = np.maximum(np.maximum(cycles, read_cycles), write_cycles)
    # Finite-bandwidth interconnect links (chip2chip), mirroring the
    # scalar path's trailing max terms.
    for boundary, link_bw in info.link_bandwidths:
        cycles = np.maximum(cycles, noc_words[boundary] / link_bw)

    total_fanout = arch.total_fanout
    all_violations = _violations_cols(info, geo)
    # ndarray.tolist() converts float64 -> Python float exactly (same
    # bits as per-element float() calls), one C pass per array.
    total_l = total.tolist()
    cycles_l = cycles.tolist()
    noc_l = noc_energy.tolist()
    c2c_l = (chip2chip_energy.tolist()
             if chip2chip_energy is not None else None)
    level_rows = level_energy.tolist()
    # total_inst is the machine-wide instance count (inst_above[0] of
    # the scalar view); the int64/int division is the same IEEE op.
    util_l = (total_inst / total_fanout).tolist()
    names = [arch.levels[i].name for i in range(num)]
    results: list[CostResult] = []
    for k in range(n):
        violations = all_violations[k]
        row = level_rows[k]
        results.append(CostResult(
            energy_pj=total_l[k],
            cycles=cycles_l[k],
            valid=not violations,
            violations=violations,
            level_energy=dict(zip(names, row)),
            compute_energy=compute_energy,
            noc_energy=noc_l[k],
            chip2chip_energy=c2c_l[k] if c2c_l is not None else 0.0,
            utilization=util_l[k],
            accesses=None,
        ))
    return results
