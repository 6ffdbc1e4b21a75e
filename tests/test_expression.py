"""Unit tests for the tensor-workload IR."""

import pytest

from repro.workloads import (
    IndexExpr,
    TensorRef,
    Workload,
    WorkloadError,
    conv1d,
    make_workload,
)


class TestIndexExpr:
    def test_plain_index(self):
        expr = IndexExpr(("K",))
        assert not expr.is_window
        assert expr.extent({"K": 7}) == 7

    def test_window_extent_stride1(self):
        # (P, R): accessed range is P + R - 1.
        expr = IndexExpr(("P", "R"))
        assert expr.is_window
        assert expr.extent({"P": 7, "R": 3}) == 9

    def test_window_extent_strided(self):
        # Stride applies to the outer dimension: (P-1)*s + R.
        expr = IndexExpr(("P", "R"), stride=2)
        assert expr.extent({"P": 7, "R": 3}) == 15

    def test_missing_dim_defaults_to_one(self):
        expr = IndexExpr(("P", "R"))
        assert expr.extent({"P": 4}) == 4

    def test_empty_dims_rejected(self):
        with pytest.raises(WorkloadError):
            IndexExpr(())

    def test_repeated_dims_rejected(self):
        with pytest.raises(WorkloadError):
            IndexExpr(("P", "P"))

    def test_stride_on_plain_index_rejected(self):
        with pytest.raises(WorkloadError):
            IndexExpr(("P",), stride=2)

    def test_nonpositive_stride_rejected(self):
        with pytest.raises(WorkloadError):
            IndexExpr(("P", "R"), stride=0)

    def test_str(self):
        assert str(IndexExpr(("K",))) == "K"
        assert str(IndexExpr(("P", "R"))) == "(P+R)"
        assert str(IndexExpr(("P", "R"), stride=2)) == "(2*P+R)"


class TestTensorRef:
    def test_indexing_dims(self):
        t = TensorRef("ifmap", (IndexExpr(("C",)), IndexExpr(("P", "R"))))
        assert t.indexing_dims == {"C", "P", "R"}

    def test_window_dims(self):
        t = TensorRef("ifmap", (IndexExpr(("C",)), IndexExpr(("P", "R"))))
        assert t.window_dims == {"P", "R"}

    def test_footprint_with_halo(self):
        t = TensorRef("ifmap", (IndexExpr(("C",)), IndexExpr(("P", "R"))))
        assert t.footprint({"C": 4, "P": 7, "R": 3}) == 4 * 9

    def test_role_defaults_to_name(self):
        t = TensorRef("ifmap", (IndexExpr(("C",)),))
        assert t.role == "ifmap"
        t2 = TensorRef("x", (IndexExpr(("C",)),), role="weight")
        assert t2.role == "weight"


class TestWorkload:
    def test_conv1d_dimensions(self):
        wl = conv1d(K=4, C=4, P=7, R=3)
        assert wl.total_operations == 4 * 4 * 7 * 3
        assert wl.dim_names == ("K", "C", "P", "R")

    def test_tensor_sizes(self):
        wl = conv1d(K=4, C=4, P=7, R=3)
        assert wl.tensor_size("ofmap") == 28
        assert wl.tensor_size("weight") == 48
        assert wl.tensor_size("ifmap") == 4 * 9

    def test_reuse_table_matches_paper_table3(self):
        wl = conv1d(K=4, C=4, P=7, R=3)
        table = wl.reuse_table()
        assert table["ofmap"].indexed_by == {"K", "P"}
        assert table["ofmap"].reused_by == {"C", "R"}
        assert table["ifmap"].indexed_by == {"C", "P", "R"}
        assert table["ifmap"].reused_by == {"K"}
        assert table["ifmap"].partially_reused_by == {"P", "R"}
        assert table["weight"].indexed_by == {"C", "K", "R"}
        assert table["weight"].reused_by == {"P"}
        assert not table["weight"].partially_reused_by

    def test_reusers_of(self):
        wl = conv1d(K=4, C=4, P=7, R=3)
        assert wl.reusers_of("C") == {"ofmap"}
        assert wl.reusers_of("K") == {"ifmap"}
        assert wl.partial_reusers_of("R") == {"ifmap"}

    def test_outputs_and_inputs(self):
        wl = conv1d(K=4, C=4, P=7, R=3)
        assert [t.name for t in wl.outputs] == ["ofmap"]
        assert {t.name for t in wl.inputs} == {"ifmap", "weight"}

    def test_scale(self):
        wl = conv1d(K=4, C=4, P=7, R=3)
        scaled = wl.scale({"K": 2})
        assert scaled.dims["K"] == 8
        assert wl.dims["K"] == 4  # original untouched

    def test_scale_unknown_dim_rejected(self):
        with pytest.raises(WorkloadError):
            conv1d(4, 4, 7, 3).scale({"Z": 2})

    def test_unknown_tensor_raises(self):
        with pytest.raises(KeyError):
            conv1d(4, 4, 7, 3).tensor("nope")

    def test_footprints(self):
        wl = conv1d(K=4, C=4, P=7, R=3)
        sizes = {"K": 2, "C": 2, "P": 3, "R": 3}
        assert wl.tensor("ofmap").footprint(sizes) == 6
        assert wl.tensor("weight").footprint(sizes) == 12
        assert wl.tensor("ifmap").footprint(sizes) == 2 * 5


class TestWorkloadValidation:
    def test_needs_output(self):
        with pytest.raises(WorkloadError, match="output"):
            Workload("w", {"K": 2}, (TensorRef("a", (IndexExpr(("K",)),)),))

    def test_unknown_dimension(self):
        with pytest.raises(WorkloadError, match="unknown dimension"):
            Workload("w", {"K": 2}, (
                TensorRef("a", (IndexExpr(("Z",)),), is_output=True),
            ))

    def test_unused_dimension(self):
        with pytest.raises(WorkloadError, match="index no tensor"):
            Workload("w", {"K": 2, "Z": 3}, (
                TensorRef("a", (IndexExpr(("K",)),), is_output=True),
            ))

    def test_duplicate_tensor_names(self):
        t = TensorRef("a", (IndexExpr(("K",)),), is_output=True)
        with pytest.raises(WorkloadError, match="duplicate"):
            Workload("w", {"K": 2}, (t, t))

    def test_nonpositive_dim(self):
        with pytest.raises(WorkloadError, match="non-positive"):
            Workload("w", {"K": 0}, (
                TensorRef("a", (IndexExpr(("K",)),), is_output=True),
            ))

    def test_make_workload_missing_output(self):
        with pytest.raises(WorkloadError, match="not among tensors"):
            make_workload("w", {"K": 2}, {"a": ["K"]}, outputs=["b"])
