"""The one switch for the optional numpy dependency.

Every vectorised path — the search engine's routing, cohort staging and
the array rollup (:mod:`repro.model.batch`) and the full-space index
decoder (:mod:`repro.mapspace.batch`) — reads :data:`np` when it is
called, never a copy taken at import.  ``None``
when numpy is not installed; clearing it in place runs exactly the paths
a numpy-less install takes (``tests/harness.py:scalar_paths``).
"""

try:  # numpy is an optional extra; every scalar fallback is bit-identical
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None
