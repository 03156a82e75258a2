"""MatrixMarket I/O roundtrips and format handling."""

import numpy as np
import pytest

from repro.io import read_matrix_market, write_matrix_market
from repro.sparse import CsrMatrix
from tests.conftest import random_csr


class TestRoundtrip:
    def test_general_roundtrip(self, tmp_path, rng):
        a = random_csr(9, 7, seed=3)
        path = tmp_path / "a.mtx"
        write_matrix_market(path, a, comment="test matrix")
        b = read_matrix_market(path)
        assert b.shape == a.shape
        np.testing.assert_allclose(b.todense(), a.todense(), atol=1e-15)

    def test_values_exact(self, tmp_path):
        """repr-based writing preserves float64 values bit-exactly."""
        a = CsrMatrix.from_dense(np.array([[np.pi, 0.0], [0.0, 1.0 / 3.0]]))
        path = tmp_path / "exact.mtx"
        write_matrix_market(path, a)
        b = read_matrix_market(path)
        np.testing.assert_array_equal(b.data, a.data)

    def test_fem_matrix_roundtrip(self, tmp_path, small_laplace):
        path = tmp_path / "lap.mtx"
        write_matrix_market(path, small_laplace.a)
        b = read_matrix_market(path)
        assert b.nnz == small_laplace.a.nnz
        np.testing.assert_allclose(b.todense(), small_laplace.a.todense())


class TestFormats:
    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n"
            "1 1 2.0\n"
            "2 1 -1.0\n"
            "2 2 2.0\n"
            "3 3 1.5\n"
        )
        a = read_matrix_market(path)
        d = a.todense()
        np.testing.assert_allclose(d, d.T)
        assert d[0, 1] == -1.0 and d[1, 0] == -1.0

    def test_pattern_field(self, tmp_path):
        path = tmp_path / "pat.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 2\n"
            "1 1\n"
            "2 2\n"
        )
        a = read_matrix_market(path)
        np.testing.assert_allclose(a.todense(), np.eye(2))

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "% another\n"
            "1 1 1\n"
            "1 1 5.0\n"
        )
        assert read_matrix_market(path).todense()[0, 0] == 5.0

    def test_missing_banner_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("1 1 1\n1 1 5.0\n")
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_unsupported_format_rejected(self, tmp_path):
        path = tmp_path / "arr.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_complex_rejected(self, tmp_path):
        path = tmp_path / "cplx.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 2.0\n"
        )
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "tr.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n"
        )
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_two_token_real_entry_is_valueerror(self, tmp_path):
        """Regression: a real entry with only indices (no value) must be
        the documented ValueError naming the entry, not a bare
        IndexError from ``toks[2]`` (the guard used to accept any two
        tokens regardless of field)."""
        path = tmp_path / "short.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 1.0\n"
            "2 2\n"
        )
        with pytest.raises(ValueError, match="entry 1"):
            read_matrix_market(path)

    def test_two_token_integer_entry_is_valueerror(self, tmp_path):
        path = tmp_path / "short_int.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 2 1\n"
            "1 1\n"
        )
        with pytest.raises(ValueError, match="entry 0"):
            read_matrix_market(path)

    def test_pattern_two_tokens_still_accepted(self, tmp_path):
        """The tightened guard must not over-reject: pattern entries
        legitimately carry only the two index tokens."""
        path = tmp_path / "pat2.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 2\n"
            "1 1\n"
            "2 1\n"
        )
        a = read_matrix_market(path)
        assert a.nnz == 2

    def test_nonsquare_symmetric_rejected(self, tmp_path):
        """Regression: a symmetric header on a non-square size used to
        mirror entries into an invalid shape; it must raise ValueError."""
        path = tmp_path / "nonsq.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 2 2\n"
            "1 1 1.0\n"
            "2 1 2.0\n"
        )
        with pytest.raises(ValueError, match="square"):
            read_matrix_market(path)


class TestDuplicates:
    def test_duplicate_entries_are_summed(self, tmp_path):
        """Duplicate coordinates follow the MM convention: summed, not
        last-write-wins (CsrMatrix.from_coo coalesces by addition)."""
        path = tmp_path / "dup.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 4\n"
            "1 1 1.5\n"
            "1 1 2.5\n"
            "2 1 -1.0\n"
            "2 1 -2.0\n"
        )
        a = read_matrix_market(path)
        assert a.nnz == 2
        d = a.todense()
        assert d[0, 0] == 4.0
        assert d[1, 0] == -3.0

    def test_from_coo_sums_duplicates(self):
        a = CsrMatrix.from_coo(
            np.array([0, 0, 1]), np.array([0, 0, 1]),
            np.array([1.0, 3.0, 2.0]), (2, 2),
        )
        np.testing.assert_allclose(
            a.todense(), np.array([[4.0, 0.0], [0.0, 2.0]])
        )

    def test_pattern_symmetric_with_explicit_diagonal(self, tmp_path):
        """Pattern symmetric expansion must not double the diagonal:
        only off-diagonal entries are mirrored."""
        path = tmp_path / "patsym.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 4\n"
            "1 1\n"
            "2 1\n"
            "2 2\n"
            "3 2\n"
        )
        a = read_matrix_market(path)
        d = a.todense()
        np.testing.assert_allclose(d, d.T)
        np.testing.assert_allclose(np.diag(d), [1.0, 1.0, 0.0])
        assert d[0, 1] == 1.0 and d[1, 0] == 1.0


class TestRoundtripProperty:
    def test_general_roundtrip_bit_identical(self, tmp_path):
        """Property: write -> read is bit-identical for random general
        matrices (repr-formatted float64 round-trips exactly)."""
        for seed in range(5):
            a = random_csr(11, 8, seed=seed)
            path = tmp_path / f"g{seed}.mtx"
            write_matrix_market(path, a)
            b = read_matrix_market(path)
            assert b.shape == a.shape
            np.testing.assert_array_equal(b.indptr, a.indptr)
            np.testing.assert_array_equal(b.indices, a.indices)
            np.testing.assert_array_equal(b.data, a.data)

    def test_symmetric_expansion_roundtrip_bit_identical(self, tmp_path):
        """Property: a symmetric file expands to a full matrix whose
        general-format rewrite reads back bit-identically."""
        rng = np.random.default_rng(12)
        for trial in range(3):
            dense = rng.standard_normal((7, 7))
            dense = dense + dense.T
            dense[np.abs(dense) < 0.8] = 0.0
            np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
            # write the lower triangle in symmetric format by hand
            rows, cols = np.nonzero(np.tril(dense))
            path = tmp_path / f"s{trial}.mtx"
            lines = [
                "%%MatrixMarket matrix coordinate real symmetric",
                f"7 7 {len(rows)}",
            ]
            for r, c in zip(rows, cols):
                lines.append(f"{r + 1} {c + 1} {float(dense[r, c])!r}")
            path.write_text("\n".join(lines) + "\n")
            a = read_matrix_market(path)
            np.testing.assert_array_equal(a.todense(), dense)
            # full-storage rewrite -> reread is bit-identical
            path2 = tmp_path / f"s{trial}_full.mtx"
            write_matrix_market(path2, a)
            b = read_matrix_market(path2)
            np.testing.assert_array_equal(b.indptr, a.indptr)
            np.testing.assert_array_equal(b.indices, a.indices)
            np.testing.assert_array_equal(b.data, a.data)


class TestReadOperator:
    """The one .mtx ingestion check sessions and the service share."""

    def test_square_divisible_matrix_is_returned(self, tmp_path):
        from repro.io import read_operator

        a = random_csr(6, 6, seed=4)
        path = tmp_path / "op.mtx"
        write_matrix_market(path, a)
        for d in (1, 2, 3):
            b = read_operator(path, dofs_per_node=d)
            np.testing.assert_allclose(b.todense(), a.todense(), atol=1e-15)

    def test_nonsquare_rejected(self, tmp_path):
        from repro.io import read_operator

        path = tmp_path / "rect.mtx"
        write_matrix_market(path, random_csr(5, 4, seed=5))
        with pytest.raises(ValueError, match="square.*5 x 4"):
            read_operator(path)

    @pytest.mark.parametrize("d", (0, -1, 4))
    def test_indivisible_block_size_rejected(self, tmp_path, d):
        from repro.io import read_operator

        path = tmp_path / "six.mtx"
        write_matrix_market(path, random_csr(6, 6, seed=6))
        with pytest.raises(ValueError, match="divisible"):
            read_operator(path, dofs_per_node=d)

    def test_both_entry_points_reject_with_the_same_message(self, tmp_path):
        from repro import SolverSession
        from repro.serve import SolverService

        path = tmp_path / "rect.mtx"
        write_matrix_market(path, random_csr(5, 4, seed=5))
        messages = []
        for ingest in (
            SolverSession.from_matrix_market,
            SolverService().register_matrix_market,
        ):
            with pytest.raises(ValueError) as err:
                ingest(path)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
