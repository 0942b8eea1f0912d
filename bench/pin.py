"""Process set-up shared by the benchmark's entry points.

Import this module before anything that imports numpy. It pins the BLAS
and OpenMP pools to one thread, because OpenBLAS's default pool on a
small box burns twice the CPU time of the wall time and makes timings
wander, and it puts the checkout's ``src`` first on ``sys.path`` so that
the benchmark measures the code next to it and nothing installed
elsewhere.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "cryscreen", "__init__.py")):
    sys.exit(f"bench: no cryscreen package under {SRC}; run from a full checkout")
sys.path.insert(0, SRC)
