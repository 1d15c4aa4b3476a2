"""Test-session setup: pin the BLAS pools of the numpy oracles to one
thread before numpy is imported.  On a shared host a multithreaded BLAS
can run a dense oracle many times slower than one thread does."""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
