"""Matrix I/O utilities.

A solver library needs a way in and out: :mod:`repro.io.matrixmarket`
reads and writes the MatrixMarket coordinate format (the lingua franca
of sparse-matrix test collections), so assembled problems and factors
can be exchanged with Trilinos, PETSc, or SuiteSparse tooling.
"""

from repro.io.matrixmarket import (
    read_matrix_market,
    read_operator,
    write_matrix_market,
)

__all__ = ["read_matrix_market", "read_operator", "write_matrix_market"]
