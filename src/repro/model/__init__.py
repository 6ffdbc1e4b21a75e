"""Timeloop-style analytical cost model (accesses, energy, latency, EDP)."""

from .accesses import AccessCounts, LevelAccesses, TensorTraffic, count_accesses
from .batch import HAVE_NUMPY, evaluate_batch
from .cost import INVALID_COST, CostResult, edp, evaluate
from .reference import ReferenceCounts, simulate_fills
from .terms import ModelInfo, model_info
from .timing import TimingResult, analyze_timing

__all__ = [
    "AccessCounts",
    "LevelAccesses",
    "TensorTraffic",
    "count_accesses",
    "CostResult",
    "evaluate",
    "evaluate_batch",
    "HAVE_NUMPY",
    "edp",
    "INVALID_COST",
    "ModelInfo",
    "model_info",
    "ReferenceCounts",
    "simulate_fills",
    "TimingResult",
    "analyze_timing",
]
