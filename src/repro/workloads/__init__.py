"""Tensor-workload descriptions and the kernels of the paper's Table II."""

from typing import Mapping as TMapping

from .expression import (
    IndexExpr,
    ReuseInfo,
    TensorRef,
    Workload,
    WorkloadError,
    make_workload,
)
from .library import (
    FROSTT_NNZ,
    FROSTT_SHAPES,
    SUITESPARSE_NNZ,
    SUITESPARSE_SHAPES,
    conv1d,
    conv2d,
    frostt_density,
    fully_connected,
    mmc,
    mttkrp,
    mttkrp_from_frostt,
    sddmm,
    sddmm_from_suitesparse,
    suitesparse_density,
    tcl,
    ttmc,
    ttmc_from_frostt,
)
from .extended import (
    MOBILENET_V1_BLOCKS,
    attention_scores,
    attention_values,
    batched_matmul,
    depthwise_conv2d,
    grouped_conv2d,
    mobilenet_depthwise,
)
from .importer import (
    SUPPORTED_LAYER_TYPES,
    ModelFormatError,
    layer_from_record,
    load_model,
    model_from_dict,
)
from .networks import (
    INCEPTION_EXAMPLE_LAYER,
    INCEPTION_V3_LAYERS,
    RESNET18_LAYERS,
    ConvShape,
    inception_v3_weight_update,
    resnet18,
)

__all__ = [
    "IndexExpr",
    "ReuseInfo",
    "TensorRef",
    "Workload",
    "WorkloadError",
    "make_workload",
    "conv1d",
    "conv2d",
    "fully_connected",
    "mttkrp",
    "sddmm",
    "ttmc",
    "mmc",
    "tcl",
    "FROSTT_NNZ",
    "FROSTT_SHAPES",
    "SUITESPARSE_NNZ",
    "SUITESPARSE_SHAPES",
    "frostt_density",
    "suitesparse_density",
    "mttkrp_from_frostt",
    "ttmc_from_frostt",
    "sddmm_from_suitesparse",
    "ConvShape",
    "RESNET18_LAYERS",
    "INCEPTION_V3_LAYERS",
    "INCEPTION_EXAMPLE_LAYER",
    "resnet18",
    "inception_v3_weight_update",
    "depthwise_conv2d",
    "grouped_conv2d",
    "batched_matmul",
    "attention_scores",
    "attention_values",
    "mobilenet_depthwise",
    "MOBILENET_V1_BLOCKS",
    "BUILDERS",
    "build_workload",
    "load_model",
    "model_from_dict",
    "layer_from_record",
    "ModelFormatError",
    "SUPPORTED_LAYER_TYPES",
]

# The library kernels by name, each with the dimensions its builder
# takes: the CLI's ``--workload`` kinds and a serve job's workload kinds.
BUILDERS = {
    "conv1d": (conv1d, ("K", "C", "P", "R")),
    "conv2d": (conv2d, ("N", "K", "C", "P", "Q", "R", "S")),
    "fc": (fully_connected, ("N", "K", "C")),
    "mttkrp": (mttkrp, ("I", "K", "L", "J")),
    "sddmm": (sddmm, ("I", "J", "K")),
    "ttmc": (ttmc, ("I", "J", "K", "L", "M")),
    "mmc": (mmc, ("I", "J", "K", "L")),
    "tcl": (tcl, ("I", "J", "K", "L", "M", "N")),
    "dwconv2d": (depthwise_conv2d, ("N", "C", "P", "Q", "R", "S")),
    "gconv2d": (grouped_conv2d, ("N", "G", "K", "C", "P", "Q", "R", "S")),
    "bmm": (batched_matmul, ("B", "M", "N", "K")),
    "attn_qk": (attention_scores, ("B", "H", "L", "D")),
    "attn_av": (attention_values, ("B", "H", "L", "D")),
}


def build_workload(kind: str, dims: TMapping[str, int]) -> Workload:
    """The library workload ``kind`` with the given dimension sizes (dim
    names are case-insensitive).  An unknown kind or a missing dimension
    raises LookupError naming it."""
    if kind not in BUILDERS:
        raise LookupError(f"unknown workload {kind!r}; choose from "
                          f"{sorted(BUILDERS)}")
    builder, required = BUILDERS[kind]
    given = {name.upper(): size for name, size in dims.items()}
    missing = [d for d in required if d not in given]
    if missing:
        raise LookupError(f"{kind} needs dimensions {list(required)}; "
                          f"missing {missing}")
    return builder(**{d: given[d] for d in required})
