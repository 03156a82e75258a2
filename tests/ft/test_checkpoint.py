"""Buddy-replicated checkpoint store."""

import numpy as np
import pytest

from repro.dd.decomposition import Decomposition
from repro.fem import laplace_3d
from repro.ft import CheckpointStore, FaultTolerantComm, RankFailedError
from repro.resilience.inject import FaultPlan


@pytest.fixture(scope="module")
def dec():
    return Decomposition.from_box_partition(laplace_3d(6), 2, 2, 1)


class TestCheckpointStore:
    def test_buddy_is_smallest_neighbor(self, dec):
        store = CheckpointStore(dec)
        for r in range(dec.n_subdomains):
            neighbors = dec.neighbors_of(r)
            assert store.buddy[r] == min(neighbors)
            assert store.buddy[r] != r

    def test_interval_validated(self, dec):
        with pytest.raises(ValueError, match="interval"):
            CheckpointStore(dec, interval=0)

    def test_snapshot_restore_roundtrip(self, dec):
        store = CheckpointStore(dec, interval=5)
        comm = FaultTolerantComm(dec.n_subdomains)
        n = laplace_3d(6).a.n_rows
        x = np.arange(n, dtype=float)
        store.snapshot(comm, 5, x)
        out, lost, it = store.restore_x(n)
        assert np.array_equal(out, x)
        assert lost == [] and it == 5
        assert store.snapshots == 1 and store.doubles_shipped > 0

    def test_primary_lost_replica_survives(self, dec):
        store = CheckpointStore(dec)
        comm = FaultTolerantComm(dec.n_subdomains)
        n = laplace_3d(6).a.n_rows
        x = np.arange(n, dtype=float)
        store.snapshot(comm, 5, x)
        victim = 2
        store.on_failure([victim])
        out, lost, _ = store.restore_x(n)
        # the buddy still holds rank 2's replica: nothing is lost
        assert lost == []
        assert np.array_equal(out, x)

    def test_rank_and_buddy_both_dead_loses_segment(self, dec):
        store = CheckpointStore(dec)
        comm = FaultTolerantComm(dec.n_subdomains)
        n = laplace_3d(6).a.n_rows
        store.snapshot(comm, 5, np.ones(n))
        victim = 2
        store.on_failure([victim, store.buddy[victim]])
        out, lost, _ = store.restore_x(n)
        assert victim in lost
        assert np.all(out[store.owned[victim]] == 0.0)

    def test_death_mid_checkpoint_leaves_no_torn_state(self, dec):
        # rank 1 dies on the second op the snapshot issues: the
        # snapshot must unwind without committing any partial copies
        plan = FaultPlan.single("rank_loss", 1, phase="apply", occurrence=1)
        comm = FaultTolerantComm(dec.n_subdomains, plan)
        comm.set_phase("apply")
        store = CheckpointStore(dec)
        n = laplace_3d(6).a.n_rows
        with pytest.raises(RankFailedError):
            store.snapshot(comm, 5, np.ones(n))
        assert not store.have_any
        assert store.snapshots == 0

    def test_rebind_starts_fresh_epoch(self, dec):
        store = CheckpointStore(dec)
        comm = FaultTolerantComm(dec.n_subdomains)
        n = laplace_3d(6).a.n_rows
        store.snapshot(comm, 5, np.ones(n))
        assert store.have_any
        store.rebind(dec)
        assert not store.have_any
        assert store.snapshots == 1  # cumulative statistics survive

    def test_fingerprints_recorded(self, dec):
        store = CheckpointStore(dec)
        comm = FaultTolerantComm(dec.n_subdomains)
        n = laplace_3d(6).a.n_rows
        fps = [f"fp{r}" for r in range(dec.n_subdomains)]
        store.snapshot(comm, 5, np.ones(n), fingerprints=fps)
        assert store.fingerprint_of(3) == "fp3"
        store.on_failure([3])
        # replica on the buddy still knows the fingerprint
        assert store.fingerprint_of(3) == "fp3"

    def test_modeled_seconds_prices_per_snapshot(self, dec):
        from repro.runtime.layout import JobLayout

        store = CheckpointStore(dec)
        comm = FaultTolerantComm(dec.n_subdomains)
        n = laplace_3d(6).a.n_rows
        layout = JobLayout.cpu_run(1, ranks_per_node=dec.n_subdomains)
        assert store.modeled_seconds(layout) == 0.0
        store.snapshot(comm, 5, np.ones(n))
        one = store.modeled_seconds(layout)
        store.snapshot(comm, 10, np.ones(n))
        assert one > 0.0
        assert store.modeled_seconds(layout) == pytest.approx(2 * one)

    def test_due_cadence(self, dec):
        store = CheckpointStore(dec, interval=4)
        assert not store.due(0)
        assert store.due(4) and store.due(8)
        assert not store.due(5)
