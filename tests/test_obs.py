"""Tests for the repro.obs tracing/metrics subsystem."""

import json

import numpy as np
import pytest

from repro.fem import elasticity_3d, rigid_body_modes
from repro.krylov import ReduceCounter, gmres
from repro.machine.kernels import KernelProfile
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    TracerReduceCounter,
    get_tracer,
    set_tracer,
    use_tracer,
)
from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    from_jsonl,
    modeled_total,
    phase_table,
    to_jsonl,
    wall_total,
)


@pytest.fixture(scope="module")
def problem():
    return elasticity_3d(4)


def make_preconditioner(problem):
    from repro.dd import Decomposition, GDSWPreconditioner

    dec = Decomposition.from_box_partition(problem, 2, 1, 1)
    return GDSWPreconditioner(dec, rigid_body_modes(problem.coordinates))


# ----------------------------------------------------------------------
# span tree mechanics
# ----------------------------------------------------------------------
class TestSpanNesting:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer()
        with tracer.span("setup"):
            with tracer.span("setup/local_factor", rank=0):
                pass
            with tracer.span("setup/local_factor", rank=1):
                pass
        with tracer.span("krylov"):
            with tracer.span("krylov/spmv"):
                pass
        tracer.finish()

        root = tracer.root
        assert [c.name for c in root.children] == ["setup", "krylov"]
        setup = root.children[0]
        assert [c.name for c in setup.children] == [
            "setup/local_factor",
            "setup/local_factor",
        ]
        assert [c.rank for c in setup.children] == [0, 1]
        assert root.children[1].children[0].name == "krylov/spmv"

    def test_wall_times_are_stamped_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.finish()
        outer = tracer.root.children[0]
        inner = outer.children[0]
        assert outer.wall_seconds is not None and outer.wall_seconds >= 0
        assert inner.wall_seconds is not None
        assert outer.t0 <= inner.t0 <= inner.t1 <= outer.t1
        assert tracer.root.wall_seconds >= outer.wall_seconds

    def test_deterministic_clock_injection(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        tracer.finish()
        a = tracer.root.children[0]
        assert a.t0 == 1.0 and a.t1 == 4.0
        assert a.children[0].t0 == 2.0 and a.children[0].t1 == 3.0

    def test_counters_attach_to_the_active_span(self):
        tracer = Tracer()
        with tracer.span("a"):
            tracer.count("reduces", 1.0)
            with tracer.span("b"):
                tracer.count("reduces", 2.0)
        a = tracer.root.children[0]
        assert a.counters["reduces"] == 1.0
        assert a.children[0].counters["reduces"] == 2.0
        assert a.total("reduces") == 3.0
        assert tracer.total("reduces") == 3.0

    def test_total_with_prefix_filter(self):
        tracer = Tracer()
        with tracer.span("setup/overlap"):
            tracer.count("flops", 5.0)
        with tracer.span("apply/local_solve"):
            tracer.count("flops", 7.0)
        assert tracer.total("flops", prefix="setup/") == 5.0
        assert tracer.total("flops", prefix="apply/") == 7.0
        assert tracer.total("flops") == 12.0

    def test_add_profile_accumulates_counters(self):
        tracer = Tracer()
        prof = KernelProfile()
        prof.add("k1", flops=10.0, bytes=20.0, parallelism=4.0)
        prof.add("k2", flops=1.0, bytes=2.0, parallelism=1.0, launches=3)
        with tracer.span("setup/local_factor") as sp:
            sp.add_profile(prof)
        sp = tracer.root.children[0]
        assert sp.counters["flops"] == 11.0
        assert sp.counters["bytes"] == 22.0
        assert sp.counters["launches"] == 4.0
        assert len(sp.profile) == 2

    def test_find_by_prefix(self):
        tracer = Tracer()
        with tracer.span("setup"):
            with tracer.span("setup/local_factor", rank=0):
                pass
            with tracer.span("setup/spgemm"):
                pass
        found = tracer.root.find("setup/")
        assert {s.name for s in found} == {"setup/local_factor", "setup/spgemm"}


# ----------------------------------------------------------------------
# ambient tracer management and the no-op hot path
# ----------------------------------------------------------------------
class TestAmbientTracer:
    def test_default_is_the_shared_null_tracer(self):
        assert get_tracer() is NULL_TRACER
        assert isinstance(get_tracer(), NullTracer)

    def test_null_tracer_span_is_allocation_free(self):
        # one shared no-op object for every call: the untraced hot path
        # must not allocate per span
        s1 = NULL_TRACER.span("setup/local_factor")
        s2 = NULL_TRACER.span("krylov/spmv", rank=3)
        assert s1 is s2
        with s1 as sp:
            sp.count("reduces")
            sp.add_profile(None)
            sp.annotate(anything="goes")

    def test_use_tracer_scopes_and_restores(self):
        tracer = Tracer()
        assert get_tracer() is NULL_TRACER
        with use_tracer(tracer):
            assert get_tracer() is tracer
            with use_tracer(None):
                assert get_tracer() is NULL_TRACER
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_restores_null(self):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with use_tracer(tracer):
                raise RuntimeError("boom")
        assert get_tracer() is NULL_TRACER


# ----------------------------------------------------------------------
# reduction counting vs the legacy ReduceCounter
# ----------------------------------------------------------------------
class TestReduceCounting:
    def test_tracer_reduce_counter_mirrors_legacy_interface(self):
        tracer = Tracer()
        legacy = ReduceCounter()
        red = tracer.reduce_counter()
        assert isinstance(red, TracerReduceCounter)
        for values in (np.zeros(3), np.float64(1.0), np.zeros(5)):
            a = legacy.allreduce(values)
            b = red.allreduce(values)
            np.testing.assert_array_equal(np.atleast_1d(a), np.atleast_1d(b))
        assert red.count == legacy.count == 3
        assert red.doubles == legacy.doubles == 9
        assert tracer.reduces == 3
        assert tracer.reduce_doubles == 9
        red.reset()
        assert red.count == 0 and red.doubles == 0
        # the trace keeps its tallies across resets
        assert tracer.reduces == 3

    def test_gmres_counters_match_legacy_reduce_counter(self, problem):
        """A traced GMRES run tallies exactly what ReduceCounter counted."""
        m = make_preconditioner(problem)

        # untraced reference: the result's own count is the legacy tally
        ref = gmres(
            problem.a, problem.b, preconditioner=m, rtol=1e-7, restart=30
        )

        tracer = Tracer()
        with use_tracer(tracer):
            res = gmres(
                problem.a, problem.b, preconditioner=m, rtol=1e-7, restart=30
            )
        tracer.finish()

        assert res.iterations == ref.iterations
        np.testing.assert_array_equal(res.x, ref.x)
        assert tracer.reduces == ref.reduces == res.reduces
        assert tracer.reduce_doubles >= tracer.reduces

    def test_gmres_spans_present_under_tracer(self, problem):
        m = make_preconditioner(problem)
        tracer = Tracer()
        with use_tracer(tracer):
            res = gmres(problem.a, problem.b, preconditioner=m, rtol=1e-7)
        tracer.finish()
        assert res.converged
        spmv = tracer.root.find("krylov/spmv")
        orth = tracer.root.find("krylov/orth")
        local = tracer.root.find("apply/local_solve")
        coarse = tracer.root.find("apply/coarse_solve")
        assert len(spmv) >= res.iterations
        assert len(orth) >= res.iterations
        assert len(local) >= res.iterations
        assert len(coarse) >= res.iterations

    def test_setup_spans_emitted_by_preconditioner(self, problem):
        tracer = Tracer()
        with use_tracer(tracer):
            make_preconditioner(problem)
        tracer.finish()
        names = {s.name for s in tracer.root.walk()}
        for phase in (
            "setup/overlap",
            "setup/local_factor",
            "setup/coarse_basis",
            "setup/spgemm",
            "setup/coarse_factor",
            "factor/symbolic",
            "factor/numeric",
        ):
            assert phase in names, f"missing span {phase}"
        # per-rank attribution on the local factorizations
        ranks = {s.rank for s in tracer.root.find("setup/local_factor")}
        assert ranks == {0, 1}


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def build_sample_trace() -> Span:
    ticks = iter(np.arange(0.0, 10.0, 0.25))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    prof = KernelProfile()
    prof.add("setup.factor", flops=100.0, bytes=200.0, parallelism=8.0, launches=2)
    with tracer.span("setup"):
        with tracer.span("setup/local_factor", rank=0) as sp:
            sp.add_profile(prof)
            sp.annotate(solver="superlu (nd, cpu solve)", n=42)
        with tracer.span("setup/local_factor", rank=1) as sp:
            sp.count("local_solves", 2.0)
    with tracer.span("krylov"):
        tracer.count("reduces", 5.0)
        tracer.count("reduce_doubles", 31.0)
    return tracer.finish()


class TestJsonlExport:
    def test_round_trip_preserves_structure(self):
        root = build_sample_trace()
        text = to_jsonl(root)
        back = from_jsonl(text)
        orig = list(root.walk())
        copy = list(back.walk())
        assert len(orig) == len(copy)
        for a, b in zip(orig, copy):
            assert a.name == b.name
            assert a.rank == b.rank
            assert a.t0 == b.t0 and a.t1 == b.t1
            assert a.counters == b.counters
            assert a.modeled_seconds == b.modeled_seconds

    def test_round_trip_preserves_kernel_leaf_events(self):
        root = build_sample_trace()
        back = from_jsonl(to_jsonl(root))
        sp = back.find("setup/local_factor")[0]
        assert sp.profile is not None and len(sp.profile) == 1
        k = list(sp.profile)[0]
        assert k.name == "setup.factor"
        assert k.flops == 100.0 and k.bytes == 200.0 and k.launches == 2

    def test_every_line_is_json(self):
        text = to_jsonl(build_sample_trace())
        for line in text.strip().splitlines():
            json.loads(line)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            from_jsonl("")


class TestChromeExport:
    def test_one_complete_event_per_span(self):
        root = build_sample_trace()
        doc = chrome_trace(root)
        assert len(doc["traceEvents"]) == len(list(root.walk()))
        assert all(e["ph"] == "X" for e in doc["traceEvents"])

    def test_timestamps_relative_to_root_in_microseconds(self):
        root = build_sample_trace()
        events = chrome_trace(root)["traceEvents"]
        by_name = {e["name"]: e for e in events}
        # root opened at tick 0.0, "setup" at tick 0.25 -> 0.25 s = 250000 us
        assert by_name["trace"]["ts"] == 0.0
        assert by_name["setup"]["ts"] == pytest.approx(250000.0)
        assert by_name["setup"]["dur"] > 0

    def test_rank_maps_to_tid(self):
        events = chrome_trace(build_sample_trace())["traceEvents"]
        tids = {e["tid"] for e in events if e["name"] == "setup/local_factor"}
        assert tids == {0, 1}

    def test_counters_and_annotations_in_args(self):
        events = chrome_trace(build_sample_trace())["traceEvents"]
        by_name = {e["name"]: e for e in events}
        assert by_name["krylov"]["args"]["reduces"] == 5.0
        factor = [e for e in events if e["name"] == "setup/local_factor"][0]
        assert factor["args"]["solver"] == "superlu (nd, cpu solve)"

    def test_json_serializable(self):
        doc = json.loads(chrome_trace_json(build_sample_trace()))
        assert doc["displayTimeUnit"] == "ms"

    def test_modeled_spans_laid_out_sequentially(self):
        root = Span("solver")
        setup = root.child("setup")
        setup.modeled_seconds = 2.0
        solve = root.child("solve")
        solve.modeled_seconds = 3.0
        events = chrome_trace(root)["traceEvents"]
        by_name = {e["name"]: e for e in events}
        assert by_name["setup"]["ts"] == 0.0
        assert by_name["setup"]["dur"] == pytest.approx(2e6)
        assert by_name["solve"]["ts"] == pytest.approx(2e6)
        assert by_name["solve"]["dur"] == pytest.approx(3e6)


class TestTotalsAndTable:
    def test_modeled_total_parent_covers_children(self):
        root = Span("x")
        root.modeled_seconds = 5.0  # slowest-rank max, not a sum
        c = root.child("c")
        c.modeled_seconds = 3.0
        assert modeled_total(root) == 5.0
        root.modeled_seconds = None
        assert modeled_total(root) == 3.0

    def test_wall_total_sums_leaves(self):
        root = Span("x")
        c1 = root.child("a")
        c1.t0, c1.t1 = 0.0, 1.5
        c2 = root.child("b")
        c2.t0, c2.t1 = 2.0, 2.5
        assert wall_total(root) == pytest.approx(2.0)

    def test_phase_table_rows(self):
        table = phase_table(build_sample_trace(), title="test table")
        assert table.splitlines()[0] == "test table"
        assert "setup" in table
        assert "krylov" in table
        assert "  setup/local_factor" in table
        # 5 reduces recorded in the krylov phase
        krylov_row = [ln for ln in table.splitlines() if ln.startswith("krylov")][0]
        assert krylov_row.rstrip().endswith("5")


# ----------------------------------------------------------------------
# simmpi integration: message counters flow into the trace
# ----------------------------------------------------------------------
def test_simmpi_counts_messages_into_trace():
    from repro.runtime import SimComm

    comm = SimComm(size=2)
    tracer = Tracer()
    with use_tracer(tracer):
        with tracer.span("comm/message"):
            comm.send(0, 1, np.zeros(4))
            comm.recv(1, 0)
            comm.allreduce([np.ones(2), np.ones(2)])
    assert tracer.total("messages") == 1.0
    assert tracer.total("bytes_sent") == 32.0
    assert tracer.reduces == 1
    assert tracer.reduce_doubles == 2
