"""Test-run settings shared by every test module."""

import os

# the pin ryddephase applies on import, made before any test module loads
# numpy, so multichannel tests run one BLAS thread per process
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
