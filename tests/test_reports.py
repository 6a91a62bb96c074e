"""The entrywise comparison behind eq8, method-b and the oracle check."""

from hobchar.reports import compare_matrices


def test_reports_first_mismatch_in_row_major_order():
    # row 1 differs in columns 2 and 0, and row 2 in column 0: the first
    # mismatch in row-major order is (1, 0), not (1, 2) or (2, 0)
    lhs = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
    rhs = ((1, 2, 3), (0, 5, 0), (0, 8, 9))
    report = compare_matrices("eq8", 3, "abc", "xyz", lhs, rhs, note="3x3")
    assert not report.passed
    assert report.first_mismatch == {"row_label": "b", "col_label": "x", "lhs": 4, "rhs": 0}
    assert report.line() == "FAIL eq8 n=3 (3x3) first mismatch at (b, x): 4 != 0"


def test_equal_rows_pass_whatever_their_sequence_type():
    lhs = ((1, 2), (3, 4))
    rhs = [[1, 2], [3, 4]]
    report = compare_matrices("method-b", 2, "ab", "xy", lhs, rhs)
    assert report.passed and report.first_mismatch is None
    assert not compare_matrices("method-b", 2, "ab", "xy", lhs, [[1, 2], [3, 5]]).passed
