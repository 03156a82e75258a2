"""Topology repair: neighbor merge, setup reuse, respawn refactor."""

import numpy as np
import pytest

from repro.dd.decomposition import Decomposition
from repro.dd.two_level import GDSWPreconditioner
from repro.fem import constant_nullspace, laplace_3d
from repro.ft import CheckpointStore, FaultTolerantComm
from repro.ft.recovery import (
    interpolated_restart,
    local_fingerprints,
    repair_respawn,
    repair_shrink,
)
from repro.krylov import cg


@pytest.fixture(scope="module")
def problem():
    return laplace_3d(6)


@pytest.fixture(scope="module")
def dec(problem):
    return Decomposition.from_box_partition(problem, 2, 2, 1)


def _gdsw(problem, dec):
    return GDSWPreconditioner(
        dec, constant_nullspace(problem.a.n_rows)
    )


class TestDecompositionMerge:
    def test_neighbors_of_symmetric(self, dec):
        for r in range(dec.n_subdomains):
            for s in dec.neighbors_of(r):
                assert r in dec.neighbors_of(s)
                assert s != r

    def test_merge_into_neighbor(self, problem, dec):
        merged = dec.merge_into_neighbor(1)
        assert merged.n_subdomains == dec.n_subdomains - 1
        # every node still owned exactly once
        all_nodes = np.concatenate(merged.node_parts)
        assert np.array_equal(np.sort(all_nodes),
                              np.arange(dec.node_owner.size))
        # the dead subdomain's nodes went to one adjacent survivor
        dead_nodes = set(dec.node_parts[1].tolist())
        hosts = [
            i for i, p in enumerate(merged.node_parts)
            if dead_nodes & set(p.tolist())
        ]
        assert len(hosts) == 1

    def test_merge_validates_rank(self, dec):
        with pytest.raises(ValueError):
            dec.merge_into_neighbor(99)

    def test_merge_into_must_be_adjacent(self, dec):
        neighbors = dec.neighbors_of(0)
        non_adjacent = [
            r for r in range(dec.n_subdomains)
            if r != 0 and r not in neighbors
        ]
        if non_adjacent:
            with pytest.raises(ValueError):
                dec.merge_into_neighbor(0, into=non_adjacent[0])


class TestPreconditionerRepair:
    def test_remove_subdomain_reuses_untouched_locals(self, problem, dec):
        m = _gdsw(problem, dec)
        repaired = m.remove_subdomain(1)
        assert repaired.dec.n_subdomains == dec.n_subdomains - 1
        # untouched subdomains keep the very same factorization objects
        donor = {d.tobytes(): loc for d, loc in
                 zip(m.one_level.dof_sets, m.one_level.locals)}
        reused = sum(
            1 for d, loc in zip(repaired.one_level.dof_sets,
                                repaired.one_level.locals)
            if donor.get(d.tobytes()) is loc
        )
        assert reused >= dec.n_subdomains - 2

    def test_repaired_operator_still_solves(self, problem, dec):
        m = _gdsw(problem, dec)
        repaired = repair_shrink(m, [1])
        res = cg(problem.a, problem.b, preconditioner=repaired, rtol=1e-7)
        assert res.converged
        relres = np.linalg.norm(
            problem.a.matvec(res.x) - problem.b
        ) / np.linalg.norm(problem.b)
        assert relres <= 1e-6

    def test_shrink_multiple_dead_highest_first(self, problem):
        dec8 = Decomposition.from_box_partition(problem, 2, 2, 2)
        m = _gdsw(problem, dec8)
        repaired = repair_shrink(m, [1, 6])
        assert repaired.dec.n_subdomains == 6

    def test_respawn_verifies_fingerprint(self, problem, dec):
        m = _gdsw(problem, dec)
        store = CheckpointStore(dec)
        comm = FaultTolerantComm(dec.n_subdomains)
        store.snapshot(
            comm, 5, np.ones(problem.a.n_rows),
            fingerprints=local_fingerprints(m),
        )
        details = repair_respawn(m, [2], store)
        assert any("fingerprint verified" in d for d in details)

    def test_respawn_fingerprint_mismatch_raises(self, problem, dec):
        m = _gdsw(problem, dec)
        store = CheckpointStore(dec)
        comm = FaultTolerantComm(dec.n_subdomains)
        fps = local_fingerprints(m)
        fps[2] = "deadbeef" * 8
        store.snapshot(comm, 5, np.ones(problem.a.n_rows),
                       fingerprints=fps)
        with pytest.raises(RuntimeError, match="fingerprint"):
            repair_respawn(m, [2], store)

    def test_interpolated_restart_fills_lost_segments(self, problem, dec):
        m = _gdsw(problem, dec)
        store = CheckpointStore(dec)
        comm = FaultTolerantComm(dec.n_subdomains)
        # converge a solve, checkpoint its iterate, then lose a segment
        res = cg(problem.a, problem.b, preconditioner=m, rtol=1e-10)
        store.snapshot(comm, 5, res.x)
        victim = 2
        store.on_failure([victim, store.buddy[victim]])
        x0, residual_now, lost = interpolated_restart(
            m, problem.a, problem.b, store
        )
        assert lost == [victim]
        # the coarse interpolation must beat the zero fill of the hole
        x_holed, _, _ = store.restore_x(problem.a.n_rows)
        r_holed = np.linalg.norm(
            problem.b - problem.a.matvec(x_holed)
        )
        assert residual_now < r_holed
        assert residual_now == pytest.approx(
            np.linalg.norm(problem.b - problem.a.matvec(x0))
        )
