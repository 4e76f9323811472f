"""iotrisk: severity-class prediction for IoT devices from publicly
observable features.

The library walks the whole pipeline: NVD feed ingestion, corpus
construction and synthesis, frequency encoding and scaling, optional
embedding/clustering stages, from-scratch tree ensembles, and repeated
stratified cross-validation with macro/micro metric reporting, each
imported from its module (``iotrisk.ensemble``, ...).  The ``iotrisk``
command drives the same stages from the shell.
"""

import os

# One BLAS thread for the process, set before any module imports numpy:
# OpenBLAS rounds full-shape products differently at different thread
# counts, which exact t-SNE amplifies into another layout.  A caller that
# imported numpy first keeps its own BLAS threading.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
