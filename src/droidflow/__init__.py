"""Static call-trace / flow-graph feature extraction and hybrid classification
for disassembled Android apps."""

import os

# BLAS sums a long product in an order that depends on its thread count, so
# model files would differ between machines. One thread gives the same bytes
# wherever the BLAS runs the same kernels (OpenBLAS picks them by CPU); it
# takes effect only if numpy has not loaded yet.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

__version__ = "0.1.0"
