"""Table-supervised event extraction toolkit.

Turns structured event tables plus a dependency-parsed corpus into BIO
training data, trains a two-stage BLSTM-CRF tagger, and decodes with an
exact constrained search that enforces key-argument co-occurrence.
"""

import os

# One BLAS thread unless the caller set a count: a threaded gemm sums in another
# order, so the model bytes would depend on the host's cores. This takes effect
# only if numpy is not imported yet; this package imports it after these lines.
# An empty value counts as unset, as OpenBLAS reads it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    if not os.environ.get(_var):
        os.environ[_var] = "1"

__version__ = "0.1.0"
