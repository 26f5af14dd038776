"""Test-session setup: one BLAS thread, the setting ``benchmarks/run.py`` uses.

OpenBLAS sizes its thread pool when numpy is first imported, so the variables
are set here, before any test module imports numpy.  With more threads the
small Cholesky factorizations of the Newton steps run several times slower on
a two-core machine, and the runtime criteria would time thread hand-offs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
