"""Global-reduction accounting.

In a distributed Krylov solver every inner product is an
``MPI_Allreduce``; at scale those synchronizations dominate, which is
why the paper adopts the single-reduce GMRES.  Since the reproduction
executes numerics on the assembled global problem, the reducer is a
pass-through that *counts* reductions and payload bytes; the runtime
layer prices them with the alpha-beta model.
"""

from __future__ import annotations

from repro.obs.tracer import NULL_TRACER, TracerReduceCounter

__all__ = ["ReduceCounter"]


class ReduceCounter(TracerReduceCounter):
    """Counts global reductions and their payloads, bound to no trace.

    The standalone form of the counter every solver takes from the
    ambient tracer (``tracer.reduce_counter()``): ``allreduce`` passes
    the values through, ``count`` is the number of reductions issued,
    ``doubles`` the float64 values they carried, ``reset`` zeroes both.
    """

    def __init__(self) -> None:
        super().__init__(NULL_TRACER)
