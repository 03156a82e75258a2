"""A simulated MPI communicator (sequential, message-faithful).

The solvers in this package execute their numerics on assembled global
objects while the *cost* of communication is modeled analytically
(:mod:`repro.runtime.pricing`).  :class:`SimComm` closes the loop: it is
a sequential simulator with real message semantics -- typed point-to-
point sends/receives with (source, destination, tag) matching, and
collective operations -- so the distributed execution layer in
:mod:`repro.runtime.distributed` can run the whole solver with strictly
rank-local data and verify, in tests, that the distributed results and
the message/reduction counts match what the sequential implementation
and the cost model assume.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import get_tracer

__all__ = ["SimComm"]


@dataclass
class SimComm:
    """Sequential MPI-communicator simulator.

    Messages are queued per ``(source, destination, tag)`` channel;
    receives pop in FIFO order and raise if no message is pending
    (the simulator executes ranks in a deterministic order, so a missing
    message is a protocol bug, the analogue of an MPI deadlock).

    Attributes
    ----------
    size:
        Number of ranks.
    sends, recvs:
        Point-to-point operation counters.
    bytes_sent:
        Total payload volume (numpy arrays: ``nbytes``; other payloads
        are counted as 0 -- the solvers only ship arrays).
    allreduces, reduce_doubles:
        Collective counters, comparable with
        :class:`repro.krylov.reduce.ReduceCounter`.

    Per-destination, per-tag payload volumes are additionally recorded
    (:meth:`channel_doubles`) so the cost-model audit in
    :mod:`repro.verify` can compare the values each rank actually
    imported per communication family against the modeled counts.
    """

    size: int
    sends: int = 0
    recvs: int = 0
    bytes_sent: int = 0
    allreduces: int = 0
    reduce_doubles: int = 0
    barriers: int = 0
    _queues: Dict[Tuple[int, int, int], Deque[Any]] = field(default_factory=dict)
    _channel_doubles: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def _ops_summary(self) -> str:
        """The operation counters, formatted for error diagnostics."""
        return (
            f"ops so far: {self.sends} sends, {self.recvs} recvs, "
            f"{self.allreduces} allreduces, {self.barriers} barriers, "
            f"{self.bytes_sent} bytes sent"
        )

    def _check_rank(
        self, rank: int, op: str = "", src: int = -1, dst: int = -1, tag: int = 0
    ) -> None:
        if not (0 <= rank < self.size):
            where = (
                f" in {op} on channel (src={src}, dst={dst}, tag={tag})"
                if op
                else ""
            )
            raise ValueError(
                f"rank {rank} out of range [0, {self.size}){where}; "
                + self._pending_summary()
                + "; "
                + self._ops_summary()
            )

    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any, tag: int = 0) -> None:
        """Queue a message from ``src`` to ``dst``.

        An out-of-range source or destination raises the same
        channel-naming diagnostic :meth:`recv` produces for an empty
        channel (naming the offending ``(src, dst, tag)`` triple and the
        operation counters) rather than surfacing later as an opaque
        index error when the queue key is consumed.
        """
        self._check_rank(src, op="send", src=src, dst=dst, tag=tag)
        self._check_rank(dst, op="send", src=src, dst=dst, tag=tag)
        self._queues.setdefault((src, dst, tag), deque()).append(payload)
        self.sends += 1
        nbytes = int(payload.nbytes) if isinstance(payload, np.ndarray) else 0
        self.bytes_sent += nbytes
        if isinstance(payload, np.ndarray):
            key = (dst, tag)
            self._channel_doubles[key] = (
                self._channel_doubles.get(key, 0) + int(payload.size)
            )
        tr = get_tracer()
        tr.count("messages", 1.0)
        if nbytes:
            tr.count("bytes_sent", float(nbytes))

    def recv(self, dst: int, src: int, tag: int = 0) -> Any:
        """Pop the next message from ``src`` to ``dst`` (FIFO per channel)."""
        self._check_rank(src, op="recv", src=src, dst=dst, tag=tag)
        self._check_rank(dst, op="recv", src=src, dst=dst, tag=tag)
        q = self._queues.get((src, dst, tag))
        if not q:
            raise RuntimeError(
                f"deadlock: rank {dst} waits for a message from {src} "
                f"(tag {tag}) that was never sent; channel "
                f"(src={src}, dst={dst}, tag={tag}) is empty; "
                + self._pending_summary()
                + "; "
                + self._ops_summary()
            )
        self.recvs += 1
        return q.popleft()

    def _pending_summary(self, limit: int = 8) -> str:
        """Human-readable summary of non-empty channels for diagnostics."""
        busy = sorted(
            (key, len(q)) for key, q in self._queues.items() if q
        )
        if not busy:
            return "no channels have pending messages"
        shown = ", ".join(
            f"(src={s}, dst={d}, tag={t}): {n} msg{'s' if n != 1 else ''}"
            for (s, d, t), n in busy[:limit]
        )
        extra = len(busy) - limit
        tail = f", and {extra} more channels" if extra > 0 else ""
        return f"{len(busy)} pending channel(s): {shown}{tail}"

    def pending(self) -> int:
        """Number of undelivered messages (should be 0 after a phase)."""
        return sum(len(q) for q in self._queues.values())

    def channel_doubles(
        self, dst: Optional[int] = None, tag: Optional[int] = None
    ) -> int:
        """Array values sent to ``dst`` (None: all) under ``tag`` (None: all)."""
        return sum(
            v
            for (d, t), v in self._channel_doubles.items()
            if (dst is None or d == dst) and (tag is None or t == tag)
        )

    # ------------------------------------------------------------------
    def allreduce(self, contributions: List[np.ndarray]) -> np.ndarray:
        """Sum one contribution per rank (MPI_Allreduce, op=SUM).

        Every rank must contribute exactly once per call; the summed
        result is what each rank receives.
        """
        if len(contributions) != self.size:
            raise ValueError(
                f"allreduce needs one contribution per rank "
                f"({self.size}), got {len(contributions)}"
            )
        arrays = [np.atleast_1d(np.asarray(c, dtype=np.float64)) for c in contributions]
        out = np.sum(arrays, axis=0)
        self.allreduces += 1
        self.reduce_doubles += int(out.size)
        tr = get_tracer()
        tr.count("reduces", 1.0)
        tr.count("reduce_doubles", float(out.size))
        return out

    def barrier(self) -> None:
        """A barrier is a no-op in the sequential simulator (but asserts
        that no messages are left in flight, the common bug a real
        barrier would expose as a hang).  Counted (``barriers`` and the
        tracer's ``barriers`` key) so the cost audit sees every
        collective, not just the reductions."""
        if self.pending():
            raise RuntimeError(
                f"barrier with {self.pending()} undelivered messages"
            )
        self.barriers += 1
        get_tracer().count("barriers", 1.0)
