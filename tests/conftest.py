"""Test-session settings, applied before any test module imports numpy."""

import os

# one BLAS and OpenMP thread unless the caller sets them, as perfbench gives
# its children: OpenBLAS reads these when numpy loads it, and scipy's L-BFGS-B
# ran several times slower with default BLAS threads beside a concurrent
# Monte Carlo verify
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
