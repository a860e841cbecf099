"""ccmsim: 2D close-contact-melting simulator.

A moving heat source pressed against a melting solid is simulated by
coupling two scales: the solid temperature field is solved with a
space-time finite element method on a mesh whose central band slides
rigidly with the source (deactivated rows recycle through a virtual
ring), while the thin melt film under the source is collapsed into
analytical lubrication closures that turn the recovered solid-side heat
flux into the source's approach velocity.
"""

from . import cbf, driver, mesh, meshgen, motion, stfem, velocity, verify
from .errors import ConfigError, NumericalError

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
