"""Tests for the SolverSession facade and validated configs."""

import json

import numpy as np
import pytest

from repro import (
    KrylovConfig,
    SchwarzConfig,
    SessionResult,
    SolverSession,
)
from repro.api import COARSE_VARIANTS, PRECISIONS
from repro.dd import (
    Decomposition,
    GDSWPreconditioner,
    HalfPrecisionOperator,
    LocalSolverSpec,
)
from repro.fem import elasticity_3d, laplace_3d, rigid_body_modes
from repro.krylov import gmres
from repro.obs import Tracer, use_tracer
from repro.obs.export import modeled_total
from repro.runtime import JobLayout, time_solver


@pytest.fixture(scope="module")
def problem():
    return elasticity_3d(6)


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
class TestSchwarzConfigValidation:
    def test_defaults_are_the_paper_configuration(self):
        cfg = SchwarzConfig()
        assert cfg.variant == "rgdsw"
        assert cfg.overlap == 1
        assert cfg.precision == "double"

    @pytest.mark.parametrize("variant", COARSE_VARIANTS)
    def test_valid_variants_accepted(self, variant):
        assert SchwarzConfig(variant=variant).variant == variant

    def test_bad_variant_lists_valid_values(self):
        with pytest.raises(ValueError) as err:
            SchwarzConfig(variant="msfem")
        msg = str(err.value)
        assert "msfem" in msg
        for v in COARSE_VARIANTS:
            assert v in msg

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_valid_precisions_accepted(self, precision):
        assert SchwarzConfig(precision=precision).precision == precision

    def test_bad_precision_rejected(self):
        with pytest.raises(ValueError, match="half"):
            SchwarzConfig(precision="half")

    def test_bad_coarse_solver_rejected(self):
        # the coarse level is always a direct factorization
        with pytest.raises(TypeError, match="coarse_solver"):
            SchwarzConfig(coarse_solver="amg")

    @pytest.mark.parametrize("dim", [0, 1, 4])
    def test_dim_must_be_2_or_3(self, dim):
        with pytest.raises(ValueError, match="dim"):
            SchwarzConfig(dim=dim)

    def test_adaptive_tol_is_a_module_constant(self):
        with pytest.raises(TypeError, match="adaptive_tol"):
            SchwarzConfig(variant="agdsw", adaptive_tol=0.5)

    def test_describe_shows_every_operator_field(self):
        """The describe string keys the serving pool: a coarse solver or
        a 2-D classification must show, defaults stay byte-identical."""
        base = SchwarzConfig().describe()
        assert base == "rgdsw overlap=1 local=[tacho (nd, cpu solve)] double"
        coarse = SchwarzConfig(coarse=LocalSolverSpec(kind="superlu"))
        assert coarse.describe() == base + " coarse=[superlu (nd, cpu solve)]"
        assert SchwarzConfig(dim=2).describe() == base + " dim=2"

    def test_negative_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            SchwarzConfig(overlap=-1)

    def test_local_spec_validation_propagates(self):
        # LocalSolverSpec validates itself at construction
        with pytest.raises(ValueError) as err:
            SchwarzConfig(local=LocalSolverSpec(kind="pardiso"))
        assert "superlu" in str(err.value)

    def test_describe_mentions_the_key_choices(self):
        cfg = SchwarzConfig(local=LocalSolverSpec(kind="tacho"), overlap=2)
        text = cfg.describe()
        assert "rgdsw" in text
        assert "overlap=2" in text
        assert "tacho" in text


class TestKrylovConfigValidation:
    def test_bad_gmres_variant_rejected(self):
        with pytest.raises(ValueError, match="single_reduce"):
            KrylovConfig(variant="householder")

    @pytest.mark.parametrize(
        "kwargs", [{"rtol": 0.0}, {"rtol": -1e-7}, {"restart": 0}, {"maxiter": 0}]
    )
    def test_bad_numeric_controls_rejected(self, kwargs):
        with pytest.raises(ValueError):
            KrylovConfig(**kwargs)


class TestSessionValidation:
    def test_rejects_non_problem(self):
        with pytest.raises(TypeError, match="'a'"):
            SolverSession(object())

    def test_rejects_bad_partition(self, problem):
        with pytest.raises(ValueError, match="partition"):
            SolverSession(problem, partition=(2, 2))
        with pytest.raises(ValueError, match="partition"):
            SolverSession(problem, partition=(2, 0, 1))


# ----------------------------------------------------------------------
# the facade reproduces the layered quickstart bit-for-bit
# ----------------------------------------------------------------------
class TestQuickstartEquivalence:
    @pytest.fixture(scope="class")
    def seed_run(self, problem):
        """The pre-facade call sequence (the old quickstart)."""
        dec = Decomposition.from_box_partition(problem, 2, 2, 2)
        m = GDSWPreconditioner(
            dec,
            rigid_body_modes(problem.coordinates),
            SchwarzConfig(
                local=LocalSolverSpec(kind="tacho", ordering="nd"),
                overlap=1,
                variant="rgdsw",
            ),
        )
        counted = Tracer()
        with use_tracer(counted):
            res = gmres(
                problem.a,
                problem.b,
                preconditioner=m,
                rtol=1e-7,
                restart=30,
                maxiter=1000,
                variant="single_reduce",
            )
        return m, res, counted

    @pytest.fixture(scope="class")
    def session_run(self, problem):
        return SolverSession(
            problem,
            partition=(2, 2, 2),
            config=SchwarzConfig(
                local=LocalSolverSpec(kind="tacho", ordering="nd"),
                overlap=1,
                variant="rgdsw",
            ),
            krylov=KrylovConfig(
                rtol=1e-7, restart=30, maxiter=1000, variant="single_reduce"
            ),
        ).solve()

    def test_solution_is_bit_identical(self, seed_run, session_run):
        _, ref, _ = seed_run
        assert np.array_equal(session_run.x, ref.x)

    def test_iterations_and_convergence_match(self, seed_run, session_run):
        _, ref, _ = seed_run
        assert session_run.iterations == ref.iterations
        assert session_run.converged == ref.converged
        assert session_run.residual_norms == ref.residual_norms

    def test_reduction_count_matches_legacy_reduce_counter(
        self, seed_run, session_run
    ):
        _, _, counted = seed_run
        assert session_run.reduces == counted.reduces
        assert session_run.reduce_doubles == counted.reduce_doubles

    def test_metadata_fields(self, seed_run, session_run, problem):
        m, _, _ = seed_run
        assert session_run.n_ranks == 8
        assert session_run.n_coarse == m.n_coarse
        assert session_run.final_relres < 1e-6
        assert isinstance(session_run, SessionResult)


# ----------------------------------------------------------------------
# acceptance: traced session run -> exports + timings parity
# ----------------------------------------------------------------------
class TestAcceptance:
    """One traced SolverSession.solve() yields a Chrome trace and a phase
    table whose setup/apply totals match time_solver's output to machine
    precision, with the reduction count equal to the legacy counter."""

    @pytest.fixture(scope="class")
    def layout(self):
        from repro.bench.harness import model_machine

        return JobLayout.cpu_run(1, machine=model_machine())  # 8 ranks

    @pytest.fixture(scope="class")
    def runs(self, problem):
        # seed path: explicit decomposition + a counting tracer scope
        dec = Decomposition.from_box_partition(problem, 2, 2, 2)
        m = GDSWPreconditioner(dec, rigid_body_modes(problem.coordinates))
        counted = Tracer()
        with use_tracer(counted):
            ref = gmres(
                problem.a, problem.b, preconditioner=m, rtol=1e-7,
                restart=30,
            )
        # facade path, traced
        result = SolverSession(problem, partition=(2, 2, 2)).solve()
        return m, ref, counted, result

    def test_reduces_equal_seed_reduce_counter(self, runs):
        _, _, counted, result = runs
        assert result.reduces == counted.reduces
        assert result.reduce_doubles == counted.reduce_doubles

    def test_chrome_trace_export(self, runs):
        _, _, _, result = runs
        doc = json.loads(result.chrome_trace_json())
        events = doc["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        names = {e["name"] for e in events}
        for phase in ("setup", "krylov", "setup/local_factor", "krylov/spmv"):
            assert phase in names

    def test_phase_table_renders(self, runs):
        _, _, _, result = runs
        table = result.phase_table()
        assert "setup" in table and "krylov" in table

    def test_timings_match_seed_time_solver_exactly(self, runs, layout):
        m, ref, counted, result = runs
        seed = time_solver(
            m, layout, ref.iterations, counted.reduces, counted.reduce_doubles
        )
        got = result.timings(layout)
        # same floats, not approximately: the refactor must be bit-identical
        assert got.setup_seconds == seed.setup_seconds
        assert got.solve_seconds == seed.solve_seconds
        assert got.first_setup_seconds == seed.first_setup_seconds
        assert got.per_iteration_seconds == seed.per_iteration_seconds
        assert got.setup_breakdown == seed.setup_breakdown
        assert got == seed  # trace field excluded from comparison

    def test_priced_trace_totals_match_timings(self, runs, layout):
        _, _, _, result = runs
        timings = result.timings(layout)
        trace = timings.trace
        assert trace is not None
        by_name = {c.name: c for c in trace.children}
        assert modeled_total(by_name["setup"]) == timings.setup_seconds
        assert modeled_total(by_name["solve"]) == timings.solve_seconds
        red = by_name["solve"].find("krylov/allreduce")[0]
        assert int(red.counters["reduces"]) == result.reduces

    def test_priced_trace_exports_to_chrome(self, runs, layout):
        _, _, _, result = runs
        from repro.obs.export import chrome_trace_json

        doc = json.loads(chrome_trace_json(result.timings(layout).trace))
        assert any(e["name"] == "apply/iteration" for e in doc["traceEvents"])


# ----------------------------------------------------------------------
# facade variants
# ----------------------------------------------------------------------
class TestFacadeVariants:
    def test_scalar_problem_picks_constant_nullspace(self):
        scalar = laplace_3d(5)
        result = SolverSession(scalar, partition=(2, 1, 1)).solve()
        assert result.converged
        assert result.n_coarse >= 1

    def test_single_precision_wraps_half_precision_operator(self, problem):
        result = SolverSession(
            problem,
            partition=(2, 1, 1),
            config=SchwarzConfig(precision="single"),
        ).solve()
        assert isinstance(result.precond, HalfPrecisionOperator)
        assert result.converged

    def test_explicit_nullspace_override(self, problem):
        z = rigid_body_modes(problem.coordinates)[:, :3]  # translations only
        result = SolverSession(
            problem, partition=(2, 1, 1), nullspace=z
        ).solve()
        assert result.converged

    def test_jsonl_round_trip_of_session_trace(self, problem):
        from repro.obs.export import from_jsonl

        result = SolverSession(problem, partition=(2, 1, 1)).solve()
        back = from_jsonl(result.jsonl())
        assert {c.name for c in back.children} == {"setup", "krylov"}
        assert int(back.total("reduces")) == result.reduces


class TestPolicyParameter:
    """policy= is the one protection slot of the session."""

    def test_policy_dispatches_on_type(self, small_laplace):
        from repro.ft import FaultToleranceConfig, RankLossProtection
        from repro.resilience import ResilienceConfig, ResilienceEngine

        s = SolverSession(small_laplace, policy=ResilienceConfig())
        assert isinstance(s.policy.protection(s), ResilienceEngine)
        s = SolverSession(small_laplace, policy=FaultToleranceConfig())
        assert isinstance(s.policy.protection(s), RankLossProtection)

    def test_policy_rejects_unknown_types(self, small_laplace):
        with pytest.raises(TypeError, match="policy must be"):
            SolverSession(small_laplace, policy="resilient")
        with pytest.raises(TypeError, match="policy must be"):
            SolverSession(small_laplace, policy=True)

    def test_default_is_unprotected(self, small_laplace):
        s = SolverSession(small_laplace)
        assert s.policy is None
        assert s.solve().health is None

    def test_policy_cannot_combine_with_deprecated_keywords(
        self, small_laplace
    ):
        """The deprecated two-flag spelling is gone: policy= stands
        alone, and the old keywords are rejected like any unknown one."""
        from repro.resilience import ResilienceConfig

        for old in ("resilience", "fault_tolerance"):
            with pytest.raises(TypeError, match=old):
                SolverSession(
                    small_laplace, policy=ResilienceConfig(), **{old: True}
                )


class TestKrylovDescribe:
    def test_mirrors_schwarz_describe(self):
        assert (
            KrylovConfig().describe()
            == "gmres[single_reduce] rtol=1e-07 restart=30 maxiter=1000"
        )

    def test_distinct_configs_distinct_strings(self):
        a = KrylovConfig().describe()
        assert KrylovConfig(rtol=1e-9).describe() != a
        assert KrylovConfig(variant="mgs").describe() != a
        assert KrylovConfig(restart=50).describe() != a


class TestMatrixMarketSession:
    """End-to-end: .mtx file on disk -> SolverSession -> solution."""

    def test_mtx_roundtrip_solve_spd(self, tmp_path):
        """A small SPD matrix written to disk, read back through
        from_matrix_market and solved with the spectral coarse space,
        reproduces the direct solution."""
        from repro.io import write_matrix_market

        p = laplace_3d(5, 5, 5)
        path = tmp_path / "spd.mtx"
        write_matrix_market(path, p.a)
        res = SolverSession.from_matrix_market(
            path,
            b=p.b,
            partition=(2, 2, 1),
            config=SchwarzConfig(coarse_space="spectral", tau=0.1),
            krylov=KrylovConfig(rtol=1e-9),
        ).solve()
        assert res.converged
        x_ref = np.linalg.solve(p.a.todense(), p.b)
        np.testing.assert_allclose(res.x, x_ref, atol=1e-6)

    def test_mtx_default_rhs_and_gdsw_fallback(self, tmp_path):
        """Without an RHS the session solves against ones; the GDSW
        family still works on an algebraic ingest via the constant
        null-space fallback."""
        from repro.io import write_matrix_market

        p = laplace_3d(5, 5, 5)
        path = tmp_path / "spd.mtx"
        write_matrix_market(path, p.a)
        res = SolverSession.from_matrix_market(
            path, partition=(2, 2, 1), config=SchwarzConfig(variant="gdsw"),
        ).solve()
        assert res.converged

    def test_mtx_rejects_nonsquare(self, tmp_path):
        from repro.io import write_matrix_market
        from repro.sparse import CsrMatrix

        path = tmp_path / "rect.mtx"
        write_matrix_market(path, CsrMatrix.from_dense(np.ones((3, 2))))
        with pytest.raises(ValueError, match="square"):
            SolverSession.from_matrix_market(path)

    def test_mtx_rejects_indivisible_block_size(self, tmp_path):
        from repro.io import write_matrix_market

        p = laplace_3d(4)
        path = tmp_path / "spd.mtx"
        write_matrix_market(path, p.a)
        with pytest.raises(ValueError, match="divisible"):
            SolverSession.from_matrix_market(path, dofs_per_node=7)

    def test_mtx_rhs_length_checked(self, tmp_path):
        from repro.io import write_matrix_market

        p = laplace_3d(4)
        path = tmp_path / "spd.mtx"
        write_matrix_market(path, p.a)
        with pytest.raises(ValueError, match="rhs shape"):
            SolverSession.from_matrix_market(path, b=np.ones(3))
