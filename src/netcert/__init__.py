"""Data-driven storage/barrier certificate toolkit for interconnected
networks of black-box discrete-time subsystems.

Importing any netcert module sets ``OPENBLAS_NUM_THREADS`` to 1, over any
inherited value, before netcert loads numpy.  Each bundled OpenBLAS reads
it as it loads: numpy's at the first import of numpy, scipy's with the
L-BFGS-B extension at the first slope fit.  The evaluators' bits are those
of BLAS on one thread (a gemv split between threads can round some rows
differently), and the dense heatmap's forked worker is sized for it.  A
process that loaded numpy before netcert keeps the thread count numpy
started with; it gets these bits by importing netcert first, or by
starting with ``OPENBLAS_NUM_THREADS=1``.
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
