"""Distributed-memory execution: SimComm, halo plans, rank-local solver."""

import numpy as np
import pytest

from repro.dd import Decomposition, GDSWPreconditioner, LocalSolverSpec, SchwarzConfig
from repro.fem import elasticity_3d, laplace_3d, rigid_body_modes
from repro.runtime import (
    DistributedCsr,
    DistributedVector,
    SimComm,
    distributed_cg,
    make_distributed_gdsw_apply,
)


class TestSimComm:
    def test_send_recv_fifo(self):
        c = SimComm(size=3)
        c.send(0, 1, np.array([1.0]))
        c.send(0, 1, np.array([2.0]))
        assert c.recv(1, 0)[0] == 1.0
        assert c.recv(1, 0)[0] == 2.0
        assert c.pending() == 0

    def test_tags_are_independent_channels(self):
        c = SimComm(size=2)
        c.send(0, 1, np.array([1.0]), tag=7)
        c.send(0, 1, np.array([2.0]), tag=8)
        assert c.recv(1, 0, tag=8)[0] == 2.0
        assert c.recv(1, 0, tag=7)[0] == 1.0

    def test_missing_message_is_deadlock(self):
        c = SimComm(size=2)
        with pytest.raises(RuntimeError, match="deadlock"):
            c.recv(0, 1)

    def test_rank_bounds(self):
        c = SimComm(size=2)
        with pytest.raises(ValueError):
            c.send(0, 5, np.ones(1))

    def test_allreduce_sums(self):
        c = SimComm(size=3)
        out = c.allreduce([np.array([1.0, 2.0])] * 3)
        np.testing.assert_allclose(out, [3.0, 6.0])
        assert c.allreduces == 1
        assert c.reduce_doubles == 2

    def test_allreduce_requires_all_ranks(self):
        c = SimComm(size=3)
        with pytest.raises(ValueError):
            c.allreduce([np.ones(1)] * 2)

    def test_barrier_detects_leftovers(self):
        c = SimComm(size=2)
        c.send(0, 1, np.ones(1))
        with pytest.raises(RuntimeError):
            c.barrier()

    def test_byte_accounting(self):
        c = SimComm(size=2)
        c.send(0, 1, np.zeros(10))
        assert c.bytes_sent == 80

    def test_barrier_counted(self):
        from repro.obs import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            c = SimComm(size=2)
            c.barrier()
            c.barrier()
        assert c.barriers == 2
        assert tracer.total("barriers") == 2.0


class TestMultiDot:
    def test_fused_dots_bit_identical_to_single(self, rng):
        from repro.runtime.distributed import multi_dot

        comm = SimComm(size=3)
        owned = [np.arange(0, 7), np.arange(7, 12), np.arange(12, 20)]
        x = DistributedVector.from_global(rng.standard_normal(20), owned)
        y = DistributedVector.from_global(rng.standard_normal(20), owned)
        singles = (x.dot(y, comm), x.dot(x, comm), y.dot(y, comm))
        before = comm.allreduces
        fused = multi_dot([(x, y), (x, x), (y, y)], comm)
        # three dots, ONE allreduce, every value bit-identical
        assert comm.allreduces == before + 1
        assert fused == singles

    def test_empty_pairs_no_reduction(self):
        from repro.runtime.distributed import multi_dot

        comm = SimComm(size=2)
        assert multi_dot([], comm) == ()
        assert comm.allreduces == 0


@pytest.fixture(scope="module")
def dist_setup():
    p = elasticity_3d(5)
    dec = Decomposition.from_box_partition(p, 2, 2, 1)
    return p, dec, DistributedCsr(p.a, dec)


class TestDistributedCsr:
    def test_rows_partitioned(self, dist_setup):
        p, dec, ad = dist_setup
        total = sum(d.size for d in ad.owned_dofs)
        assert total == p.a.n_rows

    def test_spmv_matches_sequential(self, dist_setup, rng):
        p, dec, ad = dist_setup
        comm = SimComm(size=dec.n_subdomains)
        x = rng.standard_normal(p.a.n_rows)
        xd = DistributedVector.from_global(x, ad.owned_dofs)
        y = ad.spmv(xd, comm).to_global(ad.owned_dofs, p.a.n_rows)
        np.testing.assert_allclose(y, p.a.matvec(x), atol=1e-12)
        assert comm.pending() == 0
        assert comm.sends > 0  # halo traffic really happened

    def test_one_halo_exchange_per_spmv(self, dist_setup, rng):
        p, dec, ad = dist_setup
        comm = SimComm(size=dec.n_subdomains)
        x = DistributedVector.from_global(
            rng.standard_normal(p.a.n_rows), ad.owned_dofs
        )
        ad.spmv(x, comm)
        first = comm.sends
        ad.spmv(x, comm)
        assert comm.sends == 2 * first  # constant messages per spmv

    def test_dropped_halo_message_is_caught(self, dist_setup, rng):
        """A lost halo send deadlocks the matching recv; an undrained
        delivery is caught by pending()/barrier() at the phase end."""
        p, dec, ad = dist_setup
        x = DistributedVector.from_global(
            rng.standard_normal(p.a.n_rows), ad.owned_dofs
        )

        # send-side drop: one rank's halo contribution never arrives
        comm = SimComm(size=dec.n_subdomains)
        real_send = comm.send
        dropped = {"n": 0}

        def lossy_send(src, dst, payload, tag=0):
            if tag == 1 and dropped["n"] == 0:
                dropped["n"] += 1
                return  # message lost in transit
            real_send(src, dst, payload, tag)

        comm.send = lossy_send
        with pytest.raises(RuntimeError, match="deadlock"):
            ad.spmv(x, comm)
        assert dropped["n"] == 1

        # recv-side drop: a payload nobody drains survives the phase
        comm2 = SimComm(size=dec.n_subdomains)
        ad.spmv(x, comm2)
        comm2.send(0, 1, np.ones(3), tag=1)  # stray halo payload
        assert comm2.pending() == 1
        with pytest.raises(RuntimeError, match="undelivered"):
            comm2.barrier()

    def test_vector_roundtrip_and_dot(self, dist_setup, rng):
        p, dec, ad = dist_setup
        comm = SimComm(size=dec.n_subdomains)
        x = rng.standard_normal(p.a.n_rows)
        y = rng.standard_normal(p.a.n_rows)
        xd = DistributedVector.from_global(x, ad.owned_dofs)
        yd = DistributedVector.from_global(y, ad.owned_dofs)
        np.testing.assert_allclose(
            xd.to_global(ad.owned_dofs, x.size), x
        )
        assert xd.dot(yd, comm) == pytest.approx(x @ y)
        assert comm.allreduces == 1


class TestDistributedGdsw:
    @pytest.fixture(scope="class")
    def built(self, dist_setup):
        p, dec, ad = dist_setup
        m = GDSWPreconditioner(
            dec, rigid_body_modes(p.coordinates),
            SchwarzConfig(local=LocalSolverSpec(kind="tacho")),
        )
        return p, dec, ad, m

    def test_apply_matches_sequential(self, built, rng):
        p, dec, ad, m = built
        comm = SimComm(size=dec.n_subdomains)
        apply_d = make_distributed_gdsw_apply(m, ad)
        v = rng.standard_normal(p.a.n_rows)
        vd = DistributedVector.from_global(v, ad.owned_dofs)
        w = apply_d(vd, comm).to_global(ad.owned_dofs, p.a.n_rows)
        np.testing.assert_allclose(w, m.apply(v), atol=1e-10)
        assert comm.pending() == 0
        # the coarse level entered through exactly one allreduce
        assert comm.allreduces == 1

    def test_distributed_cg_solves(self, built):
        p, dec, ad, m = built
        comm = SimComm(size=dec.n_subdomains)
        bd = DistributedVector.from_global(p.b, ad.owned_dofs)
        xd, iters, conv = distributed_cg(
            ad, bd, comm, rtol=1e-8,
            preconditioner=make_distributed_gdsw_apply(m, ad),
        )
        assert conv
        x = xd.to_global(ad.owned_dofs, p.a.n_rows)
        rel = np.linalg.norm(p.a.matvec(x) - p.b) / np.linalg.norm(p.b)
        assert rel < 1e-7

    def test_distributed_matches_sequential_cg(self, built):
        from repro.krylov import cg

        p, dec, ad, m = built
        comm = SimComm(size=dec.n_subdomains)
        bd = DistributedVector.from_global(p.b, ad.owned_dofs)
        xd, iters_d, _ = distributed_cg(
            ad, bd, comm, rtol=1e-8,
            preconditioner=make_distributed_gdsw_apply(m, ad),
        )
        res = cg(p.a, p.b, preconditioner=m, rtol=1e-8)
        assert abs(iters_d - res.iterations) <= 1
        np.testing.assert_allclose(
            xd.to_global(ad.owned_dofs, p.a.n_rows), res.x, atol=1e-6
        )

    def test_scalar_problem_distributed(self):
        from repro.fem import constant_nullspace

        p = laplace_3d(5)
        dec = Decomposition.from_box_partition(p, 2, 1, 2)
        ad = DistributedCsr(p.a, dec)
        m = GDSWPreconditioner(dec, constant_nullspace(p.a.n_rows))
        comm = SimComm(size=dec.n_subdomains)
        bd = DistributedVector.from_global(p.b, ad.owned_dofs)
        xd, _, conv = distributed_cg(
            ad, bd, comm, rtol=1e-8,
            preconditioner=make_distributed_gdsw_apply(m, ad),
        )
        assert conv
