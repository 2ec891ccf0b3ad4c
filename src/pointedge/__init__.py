"""Point-supervised instance edge detection toolkit.

A numpy reference implementation of the computable core of
point-supervised instance edge detection: annotation geometry, tunnel-target
rasterization, the training losses with analytical gradients, reference
forward kernels for the query-based decoder, and the ODS/OIS evaluation
pipeline.

The package exports ``__version__`` and exactly the names in each module's
``__all__``, which is the one place a public name is declared.
"""

from . import annotations, kernels, losses, metrics, pgm, raster
from .annotations import *
from .kernels import *
from .losses import *
from .metrics import *
from .pgm import *
from .raster import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *annotations.__all__,
    *raster.__all__,
    *pgm.__all__,
    *losses.__all__,
    *kernels.__all__,
    *metrics.__all__,
]
