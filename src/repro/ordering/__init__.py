"""Fill-reducing orderings and symbolic factorization analysis.

The paper orders local subdomain matrices with METIS nested dissection
before factorization ("to reduce the number of fills ... and also to
expose more parallelism", Section VIII-A) and studies natural vs ND
orderings for ILU (Table IV).  This package provides from-scratch
replacements:

* :mod:`repro.ordering.nested_dissection` -- recursive bisection nested
  dissection with BFS level-structure separators (a METIS stand-in);
* :mod:`repro.ordering.etree` -- elimination tree, postordering and
  symbolic Cholesky (row counts and factor pattern), the analysis phase
  shared by the direct solvers.

All orderings return a permutation vector ``perm`` where ``perm[k]`` is
the old index placed at position ``k`` (compatible with
:func:`repro.sparse.permute`).  Solvers take an ordering by *name*;
:func:`ordering_permutation` is the one place a name (or one of its
aliases, :data:`ORDERING_ALIASES`) is turned into a permutation.
"""

import numpy as np

from repro.ordering.nested_dissection import nested_dissection
from repro.ordering.etree import (
    elimination_tree,
    postorder,
    symbolic_cholesky,
    column_counts,
)

__all__ = [
    "ORDERING_ALIASES",
    "canonical_ordering",
    "column_counts",
    "elimination_tree",
    "natural",
    "nested_dissection",
    "ordering_permutation",
    "postorder",
    "symbolic_cholesky",
]

#: every accepted ordering name -> its canonical name ("metis" is the
#: paper's name for nested dissection, "no"/"none" Table IV's "No" rows)
ORDERING_ALIASES = {
    "nd": "nd",
    "nested_dissection": "nd",
    "metis": "nd",
    "natural": "natural",
    "no": "natural",
    "none": "natural",
}


def natural(n: int):
    """The identity ordering ("No reordering" rows of Table IV)."""
    return np.arange(n, dtype=np.int64)


def canonical_ordering(name: str) -> str:
    """The canonical name behind an ordering name or alias.

    Raises ``ValueError`` listing the valid names; every solver and
    :class:`~repro.dd.local_solvers.LocalSolverSpec` validate through
    here, so a name one of them accepts is accepted by all.
    """
    try:
        return ORDERING_ALIASES[name]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown ordering {name!r}; valid orderings: "
            + ", ".join(repr(o) for o in ORDERING_ALIASES)
        ) from None


def ordering_permutation(a, name: str):
    """The permutation of square ``a`` under the ordering called ``name``."""
    kind = canonical_ordering(name)
    if kind == "natural":
        return natural(a.n_rows)
    return nested_dissection(a)
