"""Discrete critical points of a Gagliardo-type double-sum energy for
sphere-valued lattice fields, with the spectral fractional operators,
pairing identities, and inequality probes used to cross-check the
computation.

The Python surface is the modules (`fracmap.energy`, `fracmap.fracops`,
...); importing the package itself loads none of them and only pins one
BLAS thread."""

import os

# One BLAS thread per process, set before anything loads numpy. fracmap's
# BLAS calls are matrix-vector sized and every pair pass is serial, yet
# numpy's bundled OpenBLAS starts a worker thread that busy-waits: on a
# 2-vCPU x86 machine a fresh `import fracmap.cli` took 0.24 s of CPU with
# it and 0.17 s without (medians of 21). An outside OPENBLAS_NUM_THREADS
# is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
