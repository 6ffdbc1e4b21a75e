"""Sunstone reproduction: a scalable, versatile scheduler for mapping tensor
algebra onto spatial accelerators, plus the substrates it depends on.

Public API highlights
---------------------
* :mod:`repro.workloads` — tensor-algebra workload descriptions (Table II).
* :mod:`repro.arch` — accelerator architecture specs (Table IV presets).
* :mod:`repro.mapping` — the mapping (dataflow) representation.
* :mod:`repro.model` — Timeloop-style analytical cost model.
* :mod:`repro.core` — the Sunstone scheduler itself.
* :mod:`repro.search` — memoized, vectorised evaluation engine (see
  ``docs/SEARCH.md``).
* :mod:`repro.baselines` — reimplementations of the compared mappers.
* :mod:`repro.sim` — DianNao-like simulator for the overhead study.
* :mod:`repro.analysis` — search-space size accounting (Table I).

Quickstart::

    from repro.workloads import conv2d
    from repro.arch import simba_like
    from repro.core import schedule

    result = schedule(conv2d(N=1, K=64, C=64, P=56, Q=56, R=3, S=3),
                      simba_like())
    print(result.mapping)
    print(result.cost.summary())
"""

__version__ = "1.0.0"

from . import analysis, arch, baselines, core, energy, mapping, model, noc, search, sim, workloads
from .arch import conventional, diannao_like, simba_like
from .core import SchedulerOptions, SunstoneScheduler, schedule
from .mapping import Mapping, build_mapping, render_nest
from .model import evaluate
from .search import EvalCache, SearchEngine, SearchStats
from .workloads import Workload, conv1d, conv2d, mmc, mttkrp, sddmm, tcl, ttmc

__all__ = [
    "analysis",
    "arch",
    "baselines",
    "core",
    "energy",
    "mapping",
    "model",
    "noc",
    "search",
    "sim",
    "workloads",
    "__version__",
    "EvalCache",
    "SearchEngine",
    "SearchStats",
    "schedule",
    "SunstoneScheduler",
    "SchedulerOptions",
    "Mapping",
    "build_mapping",
    "render_nest",
    "evaluate",
    "Workload",
    "conv1d",
    "conv2d",
    "mttkrp",
    "sddmm",
    "ttmc",
    "mmc",
    "tcl",
    "conventional",
    "simba_like",
    "diannao_like",
]
