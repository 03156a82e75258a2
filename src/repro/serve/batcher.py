"""Same-pattern request coalescing.

Two requests may share one batched multi-RHS solve only when the whole
solve is identical up to the right-hand side:

* same operator *values* (a multi-RHS block solve applies one operator
  to every column), hence same pattern;
* same partition, same :class:`~repro.api.SchwarzConfig` and
  :class:`~repro.api.KrylovConfig` (their ``describe()`` strings), and
  same nullspace source -- one preconditioner serves the block.

The *shard* key (pattern fingerprint + partition + config strings)
identifies the pooled session; within a shard, batches are sub-keyed by
the values fingerprint.  :meth:`RequestBatcher.take_batches` drains the
pending set into width-capped batches ordered by earliest deadline,
then highest priority, then arrival -- the order the service executes
them in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.serve.request import SolveRequest

__all__ = ["RequestBatcher", "RequestBatch", "autoscale_max_batch", "shard_key"]


def autoscale_max_batch(
    precond, layout, cap: int = 32, improvement: float = 0.05
) -> int:
    """The batch width where modeled per-request latency stops improving.

    Block solves amortize kernel launches and halo latency across
    columns, so per-request cost
    (:func:`~repro.runtime.timings.block_iteration_seconds` divided by
    the width) falls as width grows -- until the width-proportional
    flops/bytes dominate and the curve flattens.  Walking doubling
    widths, the scan stops at the first step whose relative per-request
    improvement falls below ``improvement`` (or at ``cap``) and returns
    the last width that still paid for itself.  The service uses this to
    size ``max_batch`` from the cost model instead of a static default.
    """
    from repro.runtime.timings import block_iteration_seconds

    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    best_width = 1
    best_per_req = block_iteration_seconds(precond, layout, 1)
    width = 2
    while width <= cap:
        per_req = block_iteration_seconds(precond, layout, width) / width
        if per_req >= best_per_req * (1.0 - improvement):
            break
        best_width, best_per_req = width, per_req
        width *= 2
    return best_width


def shard_key(req: SolveRequest, pattern_fp: str) -> Tuple:
    """The session-shard identity of one request.

    ``pattern_fp`` is resolved by the service (a request may carry only
    a registered fingerprint); everything else comes from the request's
    configuration.  Matching shard keys mean the same pooled
    :class:`~repro.api.SolverSession` can serve both requests.
    """
    return (
        pattern_fp,
        req.partition,
        req.config.describe(),
        req.krylov.describe(),
    )


@dataclass
class _Pending:
    """One queued request with its resolved identity and arrival stamp."""

    req: SolveRequest
    shard: Tuple
    values_fp: str
    arrival_clock: float
    seq: int


@dataclass
class RequestBatch:
    """One executable unit: same shard, same operator values.

    ``width == len(requests)``; the service stacks the right-hand sides
    into an ``(n, width)`` block and runs one block solve.
    """

    shard: Tuple
    values_fp: str
    requests: List[SolveRequest] = field(default_factory=list)
    arrival_clocks: List[float] = field(default_factory=list)

    @property
    def width(self) -> int:
        return len(self.requests)

    def only(self, keep: List[int]) -> "RequestBatch":
        """The sub-batch of the requests at positions ``keep``."""
        return RequestBatch(
            shard=self.shard,
            values_fp=self.values_fp,
            requests=[self.requests[i] for i in keep],
            arrival_clocks=[self.arrival_clocks[i] for i in keep],
        )

    def _deadline(self) -> float:
        ds = [
            c + r.deadline
            for r, c in zip(self.requests, self.arrival_clocks)
            if r.deadline is not None
        ]
        return min(ds) if ds else math.inf

    def _priority(self) -> int:
        return max(r.priority for r in self.requests)


def _chunk_batch(chunk: List[_Pending]) -> RequestBatch:
    """Materialize one ordered chunk as an executable batch."""
    return RequestBatch(
        shard=chunk[0].shard,
        values_fp=chunk[0].values_fp,
        requests=[p.req for p in chunk],
        arrival_clocks=[p.arrival_clock for p in chunk],
    )


class RequestBatcher:
    """Accumulates pending requests and drains them as ordered batches.

    Parameters
    ----------
    max_batch:
        Width cap per batch; a group of ``k > max_batch`` coalescible
        requests splits into ``ceil(k / max_batch)`` batches (in
        priority-then-arrival order).
    batching:
        ``False`` disables coalescing entirely -- every request becomes
        its own width-1 batch (the one-at-a-time baseline the serving
        benchmark compares against).  Ordering rules are unchanged.
    """

    def __init__(self, max_batch: int = 8, batching: bool = True) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = int(max_batch)
        self.batching = bool(batching)
        self._pending: List[_Pending] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._pending)

    def add(
        self,
        req: SolveRequest,
        shard: Tuple,
        values_fp: str,
        arrival_clock: float,
    ) -> None:
        """Queue one request under its resolved shard / values identity."""
        self._pending.append(
            _Pending(req, shard, values_fp, arrival_clock, self._seq)
        )
        self._seq += 1

    def pending_in_shard(self, shard: Tuple) -> int:
        """Queued requests currently pending for ``shard``.

        The admission controller's per-shard queue-depth and backlog
        checks read this; it never mutates the queue.
        """
        return sum(1 for p in self._pending if p.shard == shard)

    def _ordered_chunks(self) -> List[Tuple[Tuple, List[_Pending]]]:
        """The pending set as execution-ordered width-capped chunks.

        Within a coalescible group, requests are ordered by priority
        (descending) then arrival ``seq``; across chunks, execution
        order is earliest absolute deadline (all-None-deadline groups
        sort last at ``+inf``), then highest priority, then first
        arrival ``seq`` -- a total order, since every chunk's first
        ``seq`` is distinct.  Pure function of the pending list.
        """
        groups: Dict[Tuple, List[_Pending]] = {}
        for p in self._pending:
            if self.batching:
                gkey = (p.shard, p.values_fp)
            else:
                gkey = (p.shard, p.values_fp, p.seq)
            groups.setdefault(gkey, []).append(p)

        chunks: List[Tuple[Tuple, List[_Pending]]] = []
        for members in groups.values():
            members.sort(key=lambda p: (-p.req.priority, p.seq))
            for i in range(0, len(members), self.max_batch):
                chunk = members[i : i + self.max_batch]
                batch = _chunk_batch(chunk)
                first_seq = min(p.seq for p in chunk)
                chunks.append(
                    ((batch._deadline(), -batch._priority(), first_seq), chunk)
                )
        chunks.sort(key=lambda t: t[0])
        return chunks

    def take_batches(self) -> List[RequestBatch]:
        """Drain the pending set into execution-ordered batches.

        See :meth:`_ordered_chunks` for the ordering contract.
        """
        chunks = self._ordered_chunks()
        self._pending = []
        return [_chunk_batch(chunk) for _, chunk in chunks]

    def take_next_batch(self) -> "RequestBatch | None":
        """Pop only the first batch in execution order; None when empty.

        The streaming drain loop serves one batch at a time so arrivals
        landing during a batch's service can join the *next* round's
        coalescing.  Untaken requests stay pending with their original
        arrival stamps and sequence numbers, so a later
        :meth:`take_batches` / :meth:`take_next_batch` sees exactly the
        queue a single up-front drain would have.
        """
        chunks = self._ordered_chunks()
        if not chunks:
            return None
        _, first = chunks[0]
        taken = {id(p) for p in first}
        self._pending = [p for p in self._pending if id(p) not in taken]
        return _chunk_batch(first)
