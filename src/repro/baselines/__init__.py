"""Reimplementations of the mappers Sunstone is compared against (§V-B)."""

from .common import SearchResult, prime_factors
from .cosa import CosaConfig, cosa_search
from .dmazerunner import DMAZE_FAST, DMAZE_SLOW, DMazeConfig, dmazerunner_search
from .exhaustive import SearchBudgetExceeded, exhaustive_search
from .gamma import GammaConfig, gamma_search
from .interstellar import InterstellarConfig, interstellar_search
from .random_search import (
    TIMELOOP_FAST,
    TIMELOOP_SLOW,
    MappingConstraints,
    TimeloopConfig,
    sample_random_mapping,
    simba_constraints,
    timeloop_search,
)

__all__ = [
    "SearchResult",
    "prime_factors",
    "TimeloopConfig",
    "TIMELOOP_FAST",
    "TIMELOOP_SLOW",
    "MappingConstraints",
    "sample_random_mapping",
    "simba_constraints",
    "timeloop_search",
    "DMazeConfig",
    "DMAZE_FAST",
    "DMAZE_SLOW",
    "dmazerunner_search",
    "InterstellarConfig",
    "interstellar_search",
    "CosaConfig",
    "cosa_search",
    "SearchBudgetExceeded",
    "exhaustive_search",
    "GammaConfig",
    "gamma_search",
]
