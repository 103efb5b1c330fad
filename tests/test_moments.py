import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmselect import (
    CorrelationFamily,
    CsvFormatError,
    DegenerateColumn,
    MomentSample,
    NotPositiveDefinite,
    load_csv,
    make_toeplitz,
    summarize,
)
from cmselect.critical import selection_step
from cmselect.moments import _read_plain, _read_records
from cmselect.selection import KappaKind, KappaSchedule


def studentized_scaled_mean(summary, kappa):
    """GMS's xi = sqrt(n) mean / sd / kappa, read through the identity phi4."""
    return selection_step("GMS", summary, KappaSchedule(KappaKind.FIXED, kappa), phi=4).selection.shifts


def test_two_point_summary_uses_divisor_n():
    sample = MomentSample(np.array([[0.0], [2.0]]))
    summary = summarize(sample)
    assert summary.mean[0] == pytest.approx(1.0)
    assert summary.covariance[0, 0] == pytest.approx(1.0)  # divisor n = 2, not n - 1


def test_constant_column_is_degenerate():
    sample = MomentSample(np.array([[1.0, 3.0], [1.0, 4.0], [1.0, 5.0]]))
    with pytest.raises(DegenerateColumn) as exc:
        summarize(sample)
    assert exc.value.column == 0


@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("value", [0.1, -0.1])
def test_constant_column_with_an_inexact_mean_is_degenerate(n, value):
    # The mean of n copies of 0.1 rounds to 0.1 +- 1 ulp, so every deviation
    # is the same nonzero rounding error; that is not spread.
    values = np.column_stack([np.arange(n, dtype=float), np.full(n, value)])
    with pytest.raises(DegenerateColumn) as exc:
        summarize(MomentSample(values))
    assert exc.value.column == 1


def test_correlation_matches_pairwise_pearson_oracle():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((50, 4)) @ rng.standard_normal((4, 4))
    summary = summarize(MomentSample(x))
    for a in range(4):
        for b in range(4):
            xa, xb = x[:, a], x[:, b]
            num = np.mean((xa - xa.mean()) * (xb - xb.mean()))
            den = np.sqrt(np.mean((xa - xa.mean()) ** 2) * np.mean((xb - xb.mean()) ** 2))
            assert summary.correlation[a, b] == pytest.approx(num / den, abs=1e-12)


def test_covariance_reconstructs_from_correlation_and_diag():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 3)) * np.array([0.5, 2.0, 7.0])
    summary = summarize(MomentSample(x))
    sd = np.sqrt(summary.var)
    rebuilt = summary.correlation * np.outer(sd, sd)
    assert np.allclose(rebuilt, summary.covariance, rtol=1e-10)


def test_summarize_invariant_to_row_permutation():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((20, 3))
    perm = rng.permutation(20)
    a = summarize(MomentSample(x))
    b = summarize(MomentSample(x[perm]))
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.covariance, b.covariance)


class TestStudentizedScaledMean:
    def test_hand_value(self):
        # column with mean 0.3 and variance 1 at n = 100
        col = np.concatenate([np.full(50, 1.3), np.full(50, -0.7)])
        summary = summarize(MomentSample(col[:, None]))
        xi = studentized_scaled_mean(summary, kappa=np.sqrt(np.log(100)))
        assert xi[0] == pytest.approx(10 * 0.3 / np.sqrt(np.log(100)), abs=1e-10)
        assert xi[0] == pytest.approx(1.39797, abs=1e-4)

    def test_zero_mean_gives_zero_vector(self):
        x = np.array([[1.0, -2.0], [-1.0, 2.0]])
        summary = summarize(MomentSample(x))
        assert np.array_equal(studentized_scaled_mean(summary, 3.7), np.zeros(2))

    def test_column_rescaling_cancels(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 4)) + 0.2
        scales = np.array([0.1, 3.0, 42.0, 1e-3])
        xi_a = studentized_scaled_mean(summarize(MomentSample(x)), 2.0)
        xi_b = studentized_scaled_mean(summarize(MomentSample(x * scales)), 2.0)
        assert np.allclose(xi_a, xi_b, atol=1e-10)

    def test_doubling_data_leaves_xi_unchanged(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((25, 2)) + 0.5
        xi_a = studentized_scaled_mean(summarize(MomentSample(x)), 1.5)
        xi_b = studentized_scaled_mean(summarize(MomentSample(2 * x)), 1.5)
        assert np.allclose(xi_a, xi_b, atol=1e-10)

    def test_extreme_column_scales_are_not_degenerate(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 2))
        for scale in (1e-9, 1e9):
            xi = studentized_scaled_mean(summarize(MomentSample(x * scale)), 2.0)
            base = studentized_scaled_mean(summarize(MomentSample(x)), 2.0)
            assert np.allclose(xi, base, atol=1e-9)


class TestToeplitzFamilies:
    def test_pos_two(self):
        m = make_toeplitz(CorrelationFamily("Pos", 2))
        assert np.array_equal(m, np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_zero_is_identity(self):
        assert np.array_equal(make_toeplitz(CorrelationFamily("Zero", 10)), np.eye(10))

    def test_neg_four_first_row(self):
        m = make_toeplitz(CorrelationFamily("Neg", 4))
        assert np.array_equal(m[0], np.array([1.0, -0.9, 0.7, -0.5]))
        assert np.array_equal(m, m.T)

    def test_builtin_families_positive_definite(self):
        for kind in ("Neg", "Pos"):
            for j in (2, 4, 10):
                m = make_toeplitz(CorrelationFamily(kind, j))
                assert np.linalg.det(m) > 0

    def test_not_positive_definite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            make_toeplitz(CorrelationFamily("Custom", 2, (1.2,)))

    def test_custom_needs_right_length(self):
        with pytest.raises(ValueError):
            CorrelationFamily("Custom", 3, (0.5,))


class TestSampleValidation:
    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            MomentSample(np.array([[1.0, 2.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MomentSample(np.array([[1.0], [np.nan]]))
        with pytest.raises(ValueError):
            MomentSample(np.array([[1.0], [np.inf]]))


class TestCsv:
    def test_round_trip_with_header(self, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text("g1,g2\n1.5,2.0\n-0.5,3.25\n0.0,-1.0\n")
        sample = load_csv(path)
        assert sample.values.shape == (3, 2)
        assert sample.values[1, 0] == -0.5

    def test_parse_error_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path)
        assert exc.value.row == 2
        assert exc.value.column == 2

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("1.0\ninf\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    @pytest.mark.parametrize(
        "first_line, column, text",
        [
            pytest.param("1.5,2.5,", 3, "", id="trailing-comma"),
            pytest.param("1.5,abc", 2, "abc", id="unparsable-cell"),
        ],
    )
    def test_line_one_with_a_number_is_data(self, tmp_path, first_line, column, text):
        # Line 1 is a header only when none of its non-blank cells parses, so
        # a broken first data row is reported like any other row.
        path = tmp_path / "first.csv"
        path.write_text(first_line + "\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path)
        assert (exc.value.row, exc.value.column) == (1, column)
        assert str(exc.value) == f"could not parse {text!r} at row 1, column {column}"

    @pytest.mark.parametrize("header", ["g1,g2", "g1,", " g1 , g2 "])
    def test_header_without_numbers_is_skipped(self, tmp_path, header):
        path = tmp_path / "header.csv"
        path.write_text(header + "\n1.5,2.0\n-0.5,3.25\n")
        assert load_csv(path).values.tolist() == [[1.5, 2.0], [-0.5, 3.25]]

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeff1.5,2.0\n-0.5,3.25\n0.0,-1.0\n".encode("utf-8"))
        assert load_csv(path).values.tolist() == [[1.5, 2.0], [-0.5, 3.25], [0.0, -1.0]]

    @pytest.mark.parametrize("head", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_undecodable_byte_names_its_file_offset(self, tmp_path, head):
        # A Latin-1 "é" (0xe9) in row 2; the offset counts a byte-order mark.
        path = tmp_path / "latin.csv"
        path.write_bytes(head + b"1.5,2.0\n-0.5,3.2\xe9\n")
        with pytest.raises(CsvFormatError, match=f"^not UTF-8: byte 0xe9 at offset {len(head) + 16}$"):
            load_csv(path)

    def test_whitespace_padded_cells(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text(" 1.5 ,\t2.0\n-0.5 , 3.25\t\n")
        assert load_csv(path).values.tolist() == [[1.5, 2.0], [-0.5, 3.25]]

    def test_blank_lines_between_rows_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("g1,g2\n\n1.5,2.0\n , \n\n-0.5,3.25\n,\n")
        assert load_csv(path).values.tolist() == [[1.5, 2.0], [-0.5, 3.25]]

    def test_underscored_digits_read_as_python_floats(self, tmp_path):
        path = tmp_path / "underscore.csv"
        path.write_text("1_000,2.0\n3.0,4.0\n")
        assert load_csv(path).values.tolist() == [[1000.0, 2.0], [3.0, 4.0]]

    def test_first_bad_row_is_reported(self, tmp_path):
        # A non-finite cell on row 3 is reported before an unparsable one on
        # row 4; within a row, the first bad cell.
        path = tmp_path / "bad_rows.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n5.0,nan\noops,6.0\n")
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path)
        assert (exc.value.row, exc.value.column) == (3, 2)
        assert str(exc.value) == "non-finite value at row 3, column 2"

    @pytest.mark.parametrize(
        "text, message",
        [
            # The quoted cell on lines 1-2 is one record; the bad cell is on line 4.
            pytest.param('"1.0\n",2\n3,4\n5,x\n', "could not parse 'x' at row 4, column 2", id="unparsable"),
            # The ragged record starts on line 5, after a cell spanning lines 2-4.
            pytest.param('1,2\n"3\n\n",4\n5,"6\n",7\n', "row 5 has 3 columns, expected 2", id="ragged"),
        ],
    )
    def test_rows_are_file_lines_after_a_multiline_cell(self, tmp_path, text, message):
        path = tmp_path / "multiline.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path)
        assert str(exc.value) == message

    def test_ragged_row_message(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("g1,g2\n1.0,2.0\n3.0\n")
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path)
        assert exc.value.row == 3
        assert str(exc.value) == "row 3 has 1 columns, expected 2"

    def test_overflowing_cell_is_non_finite(self, tmp_path):
        path = tmp_path / "overflow.csv"
        path.write_text("1.0,2.0\n1e400,4.0\n5.0,6.0\n")
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path)
        assert str(exc.value) == "non-finite value at row 2, column 1"

    def test_underscored_digits_take_the_record_reader(self):
        text = "1_000,2.0\n3.0,4.0\n"
        assert _read_plain(text) is None
        assert _read_records(text).tolist() == [[1000.0, 2.0], [3.0, 4.0]]

    def test_empty_file_needs_two_rows_without_a_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError) as exc:
                load_csv(path)
        assert str(exc.value) == "need at least 2 data rows"


_CELL_FORMATS = (repr, lambda x: "%.17g" % x, lambda x: "%.6g" % x)


@st.composite
def plain_csv(draw):
    """A CSV of finite floats, as the one-call path must accept it: cells
    written with repr, %.17g or %.6g, some padded with blanks or tabs, and
    LF or CRLF line endings."""
    n_rows = draw(st.integers(2, 6))
    n_cols = draw(st.integers(1, 4))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    lines = []
    for _ in range(n_rows):
        cells = []
        for _ in range(n_cols):
            text = draw(st.sampled_from(_CELL_FORMATS))(draw(floats))
            pad = draw(st.sampled_from(["", " ", "\t", "  "]))
            cells.append(draw(st.sampled_from([text, pad + text, text + pad, pad + text + pad])))
        lines.append(",".join(cells))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


class TestCsvPaths:
    @settings(max_examples=300, deadline=None)
    @given(plain_csv())
    def test_one_call_path_equals_the_record_reader(self, text):
        fast = _read_plain(text)
        assert fast is not None
        slow = _read_records(text)
        assert fast.shape == slow.shape and fast.tobytes() == slow.tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("g1,g2\n1,2\n3,4\n", id="header"),
            pytest.param("1,2\n , \n3,4\n", id="blank-record"),
            pytest.param('"1",2\n3,4\n', id="quoted"),
            pytest.param("1,2\n3\n", id="ragged"),
            pytest.param("1,nan\n3,4\n", id="non-finite"),
            pytest.param("1,2\n", id="one-row"),
        ],
    )
    def test_other_files_take_the_record_reader(self, text):
        assert _read_plain(text) is None
