"""Test-run set-up shared by tests/ and bench/.

BLAS and OpenMP are pinned to one thread before anything imports NumPy:
the suite's small matrix products gain nothing from a second thread, and
an unpinned run slows down whenever another process holds the other core.
A value already set in the environment is kept.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
