import os
import sys
from pathlib import Path

# One BLAS thread per process: the suite's own matmuls otherwise run two
# threads on a two-core machine and compete with each other for the cores.
# The pin only takes effect when set before NumPy loads its BLAS.
assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py pinned BLAS threads"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).parent))
