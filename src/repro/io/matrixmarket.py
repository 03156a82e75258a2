"""MatrixMarket coordinate-format reader/writer.

Supports the subset relevant to this package: ``matrix coordinate
real/integer`` with ``general`` or ``symmetric`` symmetry.  Symmetric
files are expanded to full storage on read (our solvers work on
assembled patterns); ``write_matrix_market`` always writes ``general``.
"""

from __future__ import annotations

import pathlib
from typing import Union

import numpy as np

from repro.sparse.csr import CsrMatrix

__all__ = ["read_matrix_market", "read_operator", "write_matrix_market"]

PathLike = Union[str, pathlib.Path]


def read_matrix_market(path: PathLike) -> CsrMatrix:
    """Read a MatrixMarket coordinate file into a CSR matrix.

    Raises
    ------
    ValueError
        For non-coordinate formats, complex fields, or malformed
        headers/sizes.
    """
    path = pathlib.Path(path)
    with path.open("r") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValueError(f"{path}: missing MatrixMarket banner")
        parts = header.strip().split()
        if len(parts) < 5 or parts[1].lower() != "matrix":
            raise ValueError(f"{path}: unsupported object {header!r}")
        fmt, field, symmetry = (
            parts[2].lower(), parts[3].lower(), parts[4].lower()
        )
        if fmt != "coordinate":
            raise ValueError(f"{path}: only coordinate format is supported")
        if field not in ("real", "integer", "pattern"):
            raise ValueError(f"{path}: unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise ValueError(f"{path}: unsupported symmetry {symmetry!r}")

        # skip comments
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        try:
            n_rows, n_cols, nnz = (int(t) for t in line.split())
        except Exception as exc:  # pragma: no cover - malformed input
            raise ValueError(f"{path}: bad size line {line!r}") from exc
        # symmetric storage only makes sense for square matrices;
        # mirroring a rectangular lower triangle would scatter entries
        # out of bounds or silently drop them
        if symmetry == "symmetric" and n_rows != n_cols:
            raise ValueError(
                f"{path}: symmetric matrix must be square, "
                f"got {n_rows} x {n_cols}"
            )

        # pattern entries carry only indices; real/integer need a value
        need = 2 if field == "pattern" else 3
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        for k in range(nnz):
            toks = fh.readline().split()
            if len(toks) < need:
                raise ValueError(f"{path}: truncated at entry {k}")
            rows[k] = int(toks[0]) - 1
            cols[k] = int(toks[1]) - 1
            vals[k] = float(toks[2]) if field != "pattern" else 1.0

    if symmetry == "symmetric":
        # expand the stored lower triangle: mirror off-diagonal entries
        off = rows != cols
        rows_full = np.concatenate([rows, cols[off]])
        cols_full = np.concatenate([cols, rows[off]])
        vals_full = np.concatenate([vals, vals[off]])
        return CsrMatrix.from_coo(rows_full, cols_full, vals_full, (n_rows, n_cols))
    return CsrMatrix.from_coo(rows, cols, vals, (n_rows, n_cols))


def read_operator(path: PathLike, dofs_per_node: int = 1) -> CsrMatrix:
    """Read a ``.mtx`` file as a solver operator: square, block-divisible.

    The ingestion check shared by ``SolverSession.from_matrix_market``
    and ``SolverService.register_matrix_market``; raises ``ValueError``
    for a non-square matrix or an order ``dofs_per_node`` does not divide.
    """
    a = read_matrix_market(path)
    if a.n_rows != a.n_cols:
        raise ValueError(
            f"{path}: a solver operator must be square, "
            f"got {a.n_rows} x {a.n_cols}"
        )
    if dofs_per_node < 1 or a.n_rows % dofs_per_node:
        raise ValueError(
            f"{path}: matrix order {a.n_rows} is not divisible by "
            f"dofs_per_node={dofs_per_node}"
        )
    return a


def write_matrix_market(path: PathLike, a: CsrMatrix, comment: str = "") -> None:
    """Write a CSR matrix as ``matrix coordinate real general``."""
    path = pathlib.Path(path)
    rows = np.repeat(np.arange(a.n_rows, dtype=np.int64), a.row_nnz())
    with path.open("w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"%{line}\n")
        fh.write(f"{a.n_rows} {a.n_cols} {a.nnz}\n")
        for i, j, v in zip(rows.tolist(), a.indices.tolist(), a.data.tolist()):
            # repr of a Python float roundtrips float64 exactly
            fh.write(f"{i + 1} {j + 1} {v!r}\n")
