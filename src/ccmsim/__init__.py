"""ccmsim: 2D close-contact-melting simulator.

A moving heat source pressed against a melting solid is simulated by
coupling two scales: the solid temperature field is solved with a
space-time finite element method on a mesh whose central band slides
rigidly with the source (deactivated rows recycle through a virtual
ring), while the thin melt film under the source is collapsed into
analytical lubrication closures that turn the recovered solid-side heat
flux into the source's approach velocity.
"""

import os

# One BLAS thread unless the caller chose otherwise, for this package's own
# solves only.  OpenBLAS reads its thread count once, when it loads, and
# SciPy's bundled OpenBLAS (the BLAS under SuperLU) loads with
# scipy.sparse.linalg during the imports below, even when the caller has
# imported numpy already.  The variables this import set are removed again
# afterwards, so child processes and libraries loaded later keep their own
# defaults.  One effect stays: if numpy was not imported before ccmsim,
# numpy's own OpenBLAS also loads here and keeps one thread for the process.
# A second thread buys no wall time on these small slabs and costs CPU
# time: on a 2-core x86_64 host `python -m ccmsim.cli run --config
# fixtures/probe_temperature.ini` (200 steps) took 5.3-6.0 s wall and
# 8.9-10.3 s CPU with OpenBLAS's default threads, and 2.2-2.6 s wall and CPU
# with one.  The policy holds only if this import is what loads SciPy's
# OpenBLAS: a caller that loaded it first (by importing scipy.sparse.linalg,
# say) keeps OpenBLAS's default thread count unless it set
# OPENBLAS_NUM_THREADS=1 itself.  On the same host the hotwire case on a mesh
# with rows twice as fine took 42-43 ms per step that way, against 19 ms on
# one thread.
_THREAD_VARS = [v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                if v not in os.environ]
os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))
try:
    from . import cbf, driver, mesh, meshgen, motion, stfem, velocity, verify
    from .errors import ConfigError, NumericalError
finally:
    for _var in _THREAD_VARS:
        os.environ.pop(_var, None)
    del _THREAD_VARS

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "NumericalError",
    "cbf",
    "driver",
    "mesh",
    "meshgen",
    "motion",
    "stfem",
    "velocity",
    "verify",
    "__version__",
]
