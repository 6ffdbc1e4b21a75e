"""Tensor-workload intermediate representation.

Sunstone accepts an einsum-like description of a tensor computation: a set of
named problem dimensions with integer extents, and a list of tensors, each
indexed by a tuple of *index expressions*.  An index expression is either a
single dimension (e.g. ``K``) or a sliding-window sum of dimensions (e.g.
``(P, R)`` meaning the tensor coordinate ``p * stride + r``), as found in
convolutions.

From this description the IR infers, per tensor, which dimensions *index* it,
which dimensions it can be *fully reused* across (the non-indexing
dimensions), and which dimensions offer *partial* (sliding-window) reuse —
exactly the information of Table III in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from ..sparse.spec import SparsitySpec


class WorkloadError(ValueError):
    """Raised when a workload description is malformed."""


@dataclass(frozen=True)
class IndexExpr:
    """One coordinate of a tensor, as a (possibly strided) sum of dimensions.

    ``dims`` lists the problem dimensions whose loop variables are summed to
    form this coordinate.  A plain index like ``K`` is ``IndexExpr(("K",))``;
    the sliding-window access ``p * stride + r`` of a convolution is
    ``IndexExpr(("P", "R"), stride=stride)`` where the stride applies to the
    first (outer) dimension.
    """

    dims: tuple[str, ...]
    stride: int = 1

    def __post_init__(self) -> None:
        if not self.dims:
            raise WorkloadError("an index expression needs at least one dimension")
        if len(set(self.dims)) != len(self.dims):
            raise WorkloadError(f"repeated dimension in index expression {self.dims}")
        if self.stride < 1:
            raise WorkloadError(f"stride must be >= 1, got {self.stride}")
        if self.stride != 1 and len(self.dims) == 1:
            raise WorkloadError("a stride is only meaningful for sliding windows")

    @property
    def is_window(self) -> bool:
        """Whether this coordinate slides over more than one dimension."""
        return len(self.dims) > 1

    def extent(self, sizes: Mapping[str, int]) -> int:
        """Coordinate extent when each dimension spans ``sizes[d]`` values.

        For a window ``(P, R)`` with stride ``s`` the accessed range is
        ``(P - 1) * s + R`` — the familiar halo formula.
        """
        outer, *inner = self.dims
        span = (sizes.get(outer, 1) - 1) * self.stride + 1
        for d in inner:
            span += sizes.get(d, 1) - 1
        return span

    def __str__(self) -> str:
        if not self.is_window:
            return self.dims[0]
        head = self.dims[0] if self.stride == 1 else f"{self.stride}*{self.dims[0]}"
        return "(" + "+".join([head, *self.dims[1:]]) + ")"


def _as_index_expr(raw: object) -> IndexExpr:
    if isinstance(raw, IndexExpr):
        return raw
    if isinstance(raw, str):
        return IndexExpr((raw,))
    if isinstance(raw, (tuple, list)):
        return IndexExpr(tuple(raw))
    raise WorkloadError(f"cannot interpret {raw!r} as an index expression")


@dataclass(frozen=True)
class TensorRef:
    """One tensor participating in the computation.

    ``role`` names the datatype class the architecture uses for buffer
    sizing (e.g. ``"ifmap"``/``"weight"``/``"ofmap"`` on DNN accelerators).
    Architectures with unified buffers ignore it.
    """

    name: str
    indices: tuple[IndexExpr, ...]
    is_output: bool = False
    role: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("tensor needs a name")
        object.__setattr__(self, "role", self.role or self.name)

    @property
    def indexing_dims(self) -> frozenset[str]:
        """All problem dimensions that appear in this tensor's coordinates."""
        return frozenset(d for expr in self.indices for d in expr.dims)

    @property
    def window_dims(self) -> frozenset[str]:
        """Dimensions that take part in a sliding-window coordinate."""
        return frozenset(d for expr in self.indices if expr.is_window for d in expr.dims)

    def footprint(self, sizes: Mapping[str, int]) -> int:
        """Number of tensor elements touched when dims span ``sizes``."""
        result = 1
        for expr in self.indices:
            result *= expr.extent(sizes)
        return result

    def __str__(self) -> str:
        return f"{self.name}[{', '.join(str(e) for e in self.indices)}]"


@dataclass(frozen=True)
class ReuseInfo:
    """Per-tensor reuse summary (the paper's Table III)."""

    indexed_by: frozenset[str]
    reused_by: frozenset[str]
    partially_reused_by: frozenset[str]


class Workload:
    """A tensor computation: named dimensions plus the tensors they index.

    Example — the paper's running 1D convolution::

        Workload(
            name="conv1d",
            dims={"K": 4, "C": 4, "P": 7, "R": 3},
            tensors=[
                TensorRef("ifmap", (IndexExpr(("C",)), IndexExpr(("P", "R")))),
                TensorRef("weight", (IndexExpr(("K",)), IndexExpr(("C",)),
                                     IndexExpr(("R",)))),
                TensorRef("ofmap", (IndexExpr(("K",)), IndexExpr(("P",))),
                          is_output=True),
            ],
        )
    """

    def __init__(
        self,
        name: str,
        dims: Mapping[str, int],
        tensors: Sequence[TensorRef],
        sparsity: "SparsitySpec | None" = None,
    ) -> None:
        self.name = name
        self.dims: dict[str, int] = dict(dims)
        self.tensors: tuple[TensorRef, ...] = tuple(tensors)
        # Advisory per-tensor sparsity (nnz-derived for the FROSTT /
        # SuiteSparse library entries).  Inert metadata: evaluation only
        # applies a spec passed to it explicitly, so attaching one here
        # never perturbs dense results.
        self.sparsity: "SparsitySpec | None" = sparsity
        self._validate()

    def _validate(self) -> None:
        if not self.dims:
            raise WorkloadError("workload needs at least one dimension")
        for dim, size in self.dims.items():
            if size < 1:
                raise WorkloadError(f"dimension {dim} has non-positive size {size}")
        if not self.tensors:
            raise WorkloadError("workload needs at least one tensor")
        names = [t.name for t in self.tensors]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate tensor names in {names}")
        if not any(t.is_output for t in self.tensors):
            raise WorkloadError("workload needs at least one output tensor")
        used: set[str] = set()
        for tensor in self.tensors:
            for expr in tensor.indices:
                for dim in expr.dims:
                    if dim not in self.dims:
                        raise WorkloadError(
                            f"tensor {tensor.name} uses unknown dimension {dim}"
                        )
                    used.add(dim)
        unused = set(self.dims) - used
        if unused:
            raise WorkloadError(f"dimensions {sorted(unused)} index no tensor")

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def dim_names(self) -> tuple[str, ...]:
        return tuple(self.dims)

    @property
    def outputs(self) -> tuple[TensorRef, ...]:
        return tuple(t for t in self.tensors if t.is_output)

    @property
    def inputs(self) -> tuple[TensorRef, ...]:
        return tuple(t for t in self.tensors if not t.is_output)

    def tensor(self, name: str) -> TensorRef:
        for t in self.tensors:
            if t.name == name:
                return t
        raise KeyError(name)

    @property
    def total_operations(self) -> int:
        """MAC (or generally fused multiply-accumulate) count: the full
        iteration-space volume."""
        return math.prod(self.dims.values())

    def tensor_size(self, name: str) -> int:
        """Total element count of a tensor over the full problem."""
        return self.tensor(name).footprint(self.dims)

    # ------------------------------------------------------------------
    # reuse inference (Table III)
    # ------------------------------------------------------------------
    def reuse_info(self, tensor_name: str) -> ReuseInfo:
        """Infer which dimensions fully / partially reuse ``tensor_name``.

        * A dimension that does not index the tensor fully reuses it
          (Ordering Principle 1).
        * Dimensions participating in a sliding window partially reuse it:
          consecutive iterations overlap in the accessed region.
        """
        tensor = self.tensor(tensor_name)
        indexed = tensor.indexing_dims
        reused = frozenset(self.dims) - indexed
        partial = tensor.window_dims
        return ReuseInfo(indexed_by=indexed, reused_by=reused,
                         partially_reused_by=partial)

    def reuse_table(self) -> dict[str, ReuseInfo]:
        """Table III for every tensor in the workload."""
        return {t.name: self.reuse_info(t.name) for t in self.tensors}

    def reusers_of(self, dim: str) -> frozenset[str]:
        """Tensors fully reused across ``dim``."""
        return frozenset(
            t.name for t in self.tensors if dim not in t.indexing_dims
        )

    def partial_reusers_of(self, dim: str) -> frozenset[str]:
        """Tensors partially (window) reused across ``dim``."""
        return frozenset(t.name for t in self.tensors if dim in t.window_dims)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def scale(self, factors: Mapping[str, int]) -> "Workload":
        """Return a copy with some dimension sizes multiplied (e.g. batch)."""
        dims = dict(self.dims)
        for dim, factor in factors.items():
            if dim not in dims:
                raise WorkloadError(f"unknown dimension {dim}")
            dims[dim] *= factor
        return Workload(self.name, dims, self.tensors,
                        sparsity=self.sparsity)

    def __repr__(self) -> str:
        dims = ", ".join(f"{d}={s}" for d, s in self.dims.items())
        tensors = "; ".join(str(t) for t in self.tensors)
        return f"Workload({self.name}: {dims} | {tensors})"


def make_workload(
    name: str,
    dims: Mapping[str, int],
    tensor_spec: Mapping[str, Sequence[object]],
    outputs: Iterable[str],
    roles: Mapping[str, str] | None = None,
) -> Workload:
    """Convenience constructor mirroring the paper's problem description.

    ``tensor_spec`` maps tensor names to lists of raw index expressions
    (strings or tuples), e.g. ``{"ifmap": ["C", ("P", "R")], ...}``.
    """
    output_set = set(outputs)
    roles = dict(roles or {})
    tensors = []
    for tname, raw_indices in tensor_spec.items():
        indices = tuple(_as_index_expr(raw) for raw in raw_indices)
        tensors.append(
            TensorRef(
                tname,
                indices,
                is_output=tname in output_set,
                role=roles.get(tname, ""),
            )
        )
    missing = output_set - {t.name for t in tensors}
    if missing:
        raise WorkloadError(f"outputs {sorted(missing)} not among tensors")
    return Workload(name, dims, tensors)
