from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hobchar.tables import (
    CharacterTable,
    ExactnessError,
    TransitionMatrix,
    exact_solve,
    first_column_orthogonality_failure,
    first_orthogonality_failure,
    mat_mul,
    transpose,
    weighted_gram_schmidt,
)

from _oracles import fraction_det, fraction_solve


def table_of(entries, orders, group_order):
    n = len(entries)
    return CharacterTable(
        row_labels=tuple(range(n)),
        col_labels=tuple(range(len(entries[0]))),
        col_class_orders=orders,
        entries=entries,
        group_order=group_order,
    )


class TestContainers:
    def test_character_table_validation(self):
        with pytest.raises(ValueError):
            table_of(((1, 1), (1, -1)), (1, 2), 2)  # orders do not sum

    def test_class_orders_must_be_positive(self):
        # both order vectors sum to the group order; only their signs are wrong
        with pytest.raises(ValueError, match="positive"):
            table_of(((1, 1), (1, -1)), (0, 2), 2)
        with pytest.raises(ValueError, match="positive"):
            table_of(((1, 1), (1, -1)), (3, -1), 2)

    def test_inner_is_exact(self):
        t = table_of(((1, 1), (1, -1)), (1, 1), 2)
        assert t.class_sum(t.row(0), t.row(0)) == 2
        assert t.inner(t.row(0), t.row(0)) == 1
        assert t.inner(t.row(0), t.row(1)) == 0

    def test_inner_raises_on_non_integral_sum(self):
        t = table_of(((1, 1), (1, -1)), (1, 1), 2)
        with pytest.raises(ExactnessError, match="multiplicity is not an exact integer: 1/2"):
            t.inner((1, 0), (1, 0), "multiplicity")

    def test_transition_shape(self):
        with pytest.raises(ValueError):
            TransitionMatrix((0, 1), ((1, 1), (0, 1)))
        with pytest.raises(ValueError):
            TransitionMatrix((0, 1), ((2, 0), (0, 1)))
        t = TransitionMatrix((0, 1), ((1, 0), (3, 1)))
        assert t.size == 2


class TestGramSchmidt:
    def test_orthonormal_input_is_fixed(self):
        t = table_of(((1, 1), (1, -1)), (1, 1), 2)
        ortho, trans = weighted_gram_schmidt(t)
        assert ortho.entries == t.entries
        assert trans.entries == ((1, 0), (0, 1))

    def test_rank_deficiency_raises(self):
        t = table_of(((1, 1), (1, 1)), (1, 1), 2)
        with pytest.raises(ExactnessError):
            weighted_gram_schmidt(t)

    def test_non_unit_residue_raises(self):
        t = table_of(((2, 0), (0, 2)), (1, 1), 2)
        with pytest.raises(ExactnessError):
            weighted_gram_schmidt(t)

    def test_identity_reconstruction(self):
        t = table_of(((1, 1, 1), (3, 1, 0), (6, 2, 1)), (1, 3, 2), 6)
        # not a real character table; only the factorization contract matters
        try:
            ortho, trans = weighted_gram_schmidt(t)
        except ExactnessError:
            return  # acceptable for arbitrary input
        assert mat_mul(trans.entries, ortho.entries) == t.entries


class TestOrthogonalityChecks:
    def test_detects_row_failure(self):
        t = table_of(((1, 1), (1, 1)), (1, 1), 2)
        assert first_orthogonality_failure(t) is not None

    def test_detects_column_failure(self):
        t = table_of(((1, 1), (1, -1)), (1, 1), 2)
        assert first_orthogonality_failure(t) is None
        assert first_column_orthogonality_failure(t) is None
        bad = table_of(((1, 1), (2, -2)), (1, 1), 2)
        assert first_orthogonality_failure(bad) is not None

    def test_row_failure_reports_exact_value(self):
        t = table_of(((1, 0), (0, 1)), (1, 1), 2)
        assert first_orthogonality_failure(t) == (0, 0, Fraction(1, 2))

    def test_column_failure_reports_exact_value(self):
        t = table_of(((1, 0), (0, 1)), (1, 1), 2)
        assert first_column_orthogonality_failure(t) == (0, 0, 1)


class TestLinearAlgebra:
    def test_exact_solve_round_trip(self):
        a = ((2, 1), (1, 1))
        b = ((5, 3), (3, 2))
        x = exact_solve(a, b)
        assert x == ((2, 1), (1, 1))
        assert all(type(v) is int for row in x for v in row)
        assert mat_mul(a, x) == b

    def test_exact_solve_singular(self):
        with pytest.raises(ExactnessError, match="singular"):
            exact_solve(((1, 1), (2, 2)), ((1, 0), (0, 1)))

    def test_exact_solve_non_integral(self):
        with pytest.raises(ExactnessError, match="not an exact integer: 1/2"):
            exact_solve(((2,),), ((1,),))

    def test_exact_solve_zero_first_pivot(self):
        a = ((0, 2, 1), (1, 0, 3), (2, 1, 0))
        x = ((1, -2), (0, 3), (4, 1))
        assert exact_solve(a, mat_mul(a, x)) == x

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exact_solve_matches_fraction_solve(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        m = data.draw(st.integers(1, 3), label="m")
        entries = st.integers(-6, 6)
        a = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
        if data.draw(st.booleans(), label="zero first pivot"):
            a[0][0] = 0
        assume(fraction_det(a) != 0)
        x = data.draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))
        b = mat_mul(a, x)
        got = exact_solve(a, b)
        assert got == tuple(map(tuple, x))
        assert [list(row) for row in got] == fraction_solve(a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exact_solve_raises_exactly_when_not_integral(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        entries = st.integers(-4, 4)
        a = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
        assume(fraction_det(a) != 0)
        b = data.draw(st.lists(st.lists(entries, min_size=2, max_size=2), min_size=n, max_size=n))
        expected = fraction_solve(a, b)
        if all(v.denominator == 1 for row in expected for v in row):
            assert [list(row) for row in exact_solve(a, b)] == expected
        else:
            with pytest.raises(ExactnessError):
                exact_solve(a, b)

    def test_transpose_mat_mul(self):
        a = ((1, 2), (3, 4))
        assert transpose(a) == ((1, 3), (2, 4))
        assert mat_mul(a, ((1, 0), (0, 1))) == a
