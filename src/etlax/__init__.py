"""Elliptic theta machinery, Belavin R-matrix, factorized difference
L-operators, and the resulting commuting Macdonald-Ruijsenaars-type
difference family, with a residual-driven verification CLI (`verify`)."""

import os

# One BLAS thread per process.  `verify all` runs one forked process per
# CPU, so a BLAS pool in each would compete for the same CPUs, and a pool
# started at import would make every fork happen in a multi-threaded
# process.  This must run before any etlax module imports numpy; a value
# the user has set wins, and once numpy is loaded it has no effect.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

from .context import ModularContext, default_context
from .theta import ThetaValue, Residual

__all__ = ["ModularContext", "default_context", "ThetaValue", "Residual"]
__version__ = "0.1.0"
