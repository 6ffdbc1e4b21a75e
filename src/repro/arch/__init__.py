"""Accelerator architecture descriptions and the paper's Table IV presets."""

from .presets import (
    PRESETS,
    conventional,
    diannao_like,
    simba_like,
    tiny,
    two_chiplet,
)
from .spec import (
    LINK_KINDS,
    UNIFIED,
    Architecture,
    ArchitectureError,
    ComponentSpec,
    MemoryLevel,
    words,
)

__all__ = [
    "Architecture",
    "ArchitectureError",
    "ComponentSpec",
    "MemoryLevel",
    "LINK_KINDS",
    "UNIFIED",
    "words",
    "PRESETS",
    "conventional",
    "simba_like",
    "diannao_like",
    "tiny",
    "two_chiplet",
]
