from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hobchar import tables
from hobchar.combinatorics import Partition
from hobchar.embedding import modified_tables
from hobchar.hyperoct import hob_induced_table, hob_irreducible_table
from hobchar.reduction import reduce_induced, restriction_matrix
from hobchar.symmetric import sym_induced_table, sym_irreducible_table
from hobchar.tables import (
    BranchingMatrix,
    CharacterTable,
    ExactnessError,
    TransitionMatrix,
    first_column_orthogonality_failure,
    first_orthogonality_failure,
    mat_mul,
    triangular_solve,
    weighted_gram_schmidt,
)

from _oracles import (
    fraction_solve,
    naive_mat_mul,
    reference_gram_schmidt,
    reference_triangular_solve,
    transpose,
)


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
        row = t.entries[0]
        assert sum(map(mul, row, t.weigh(row))) == 2
        # the weighted inner products of every pair of rows
        assert restriction_matrix(t, t).entries == ((1, 0), (0, 1))

    def test_weigh_multiplies_by_class_orders(self):
        # the S_3 table: classes of orders 1, 3, 2
        t = table_of(((1, 1, 1), (1, -1, 1), (2, 0, -1)), (1, 3, 2), 6)
        assert t.weigh((2, 0, -1)) == (2, 0, -2)
        assert sum(map(mul, (2, 0, -1), t.weigh((2, 0, -1)))) == 6
        assert restriction_matrix(t, t).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_inner_raises_on_non_integral_sum(self):
        t = table_of(((1, 1), (1, -1)), (1, 1), 2)
        with pytest.raises(ExactnessError, match="multiplicity is not an exact integer: 1/2"):
            restriction_matrix(table_of(((1, 0),), (1, 1), 2), t)

    def test_transition_shape(self):
        labels = (0, 1)
        with pytest.raises(ValueError):
            TransitionMatrix(labels, labels, ((1, 1), (0, 1)))
        with pytest.raises(ValueError):
            TransitionMatrix(labels, labels, ((2, 0), (0, 1)))
        t = TransitionMatrix(labels, labels, ((1, 0), (3, 1)))
        assert t.nrows == 2
        assert t.labels == labels


def character_table(row_labels, col_labels, entries):
    """A character table whose classes all have order 1."""
    return CharacterTable(
        row_labels=row_labels,
        col_labels=col_labels,
        entries=entries,
        col_class_orders=(1,) * len(col_labels),
        group_order=len(col_labels),
    )


# the three kinds of labelled matrix, each built from (rows, cols, entries)
KINDS = [BranchingMatrix, character_table, TransitionMatrix]


class TestOneContainer:
    @pytest.mark.parametrize("kind", KINDS)
    def test_square_identity_is_valid(self, kind):
        m = kind(("a", "b"), ("a", "b"), [[1, 0], [0, 1]])
        assert (m.nrows, m.ncols) == (2, 2)
        assert m.entries == ((1, 0), (0, 1))
        assert isinstance(m, BranchingMatrix)

    @pytest.mark.parametrize("kind", KINDS)
    def test_row_count_must_match_labels(self, kind):
        with pytest.raises(ValueError, match="row count"):
            kind(("a", "b"), ("a", "b"), ((1, 0),))

    @pytest.mark.parametrize("kind", KINDS)
    def test_column_count_must_match_labels(self, kind):
        with pytest.raises(ValueError, match="column count"):
            kind(("a", "b"), ("a", "b"), ((1, 0), (0,)))

    @pytest.mark.parametrize(
        "col_labels, entries, message",
        [
            (("b", "a"), ((1, 0), (0, 1)), "one label set"),
            (("a", "b"), ((1, 0), (0, -1)), "diagonal entry 1 is -1"),
            (("a", "b"), ((1, 2), (0, 1)), "row 0 has entries above the diagonal"),
        ],
    )
    def test_transition_invariants(self, col_labels, entries, message):
        with pytest.raises(ValueError, match=message):
            TransitionMatrix(("a", "b"), col_labels, entries)

    def test_pipeline_matrices_are_branching_matrices(self):
        y, t = hob_irreducible_table(2)
        assert isinstance(y, CharacterTable) and isinstance(y, BranchingMatrix)
        assert type(t) is TransitionMatrix and isinstance(t, BranchingMatrix)
        assert t.labels == t.row_labels == t.col_labels == y.row_labels
        assert type(reduce_induced(2)) is BranchingMatrix


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

    def test_non_integral_coefficient_raises(self):
        # row 0 has norm 1, but row 1 projects onto it with coefficient 1/2
        t = table_of(((1, 1), (1, 0)), (1, 1), 2)
        with pytest.raises(
            ExactnessError, match=r"projection coefficient \(1,0\) is not an exact integer: 1/2"
        ):
            weighted_gram_schmidt(t)

    def test_weighed_entry_wider_than_the_projection_sums(self):
        # class order 39999 puts a 3-byte value in the weighed row 0, while
        # every projection sum of row 1 fits in 2 bytes; the one slot width,
        # fixed from the norms of all rows, must still hold it, so the run
        # gets to the norm check of row 2
        t = table_of(((1, 1, 1), (-200, 1, 0), (-199, -199, 1)), (1, 200, 39999), 40200)
        with pytest.raises(ExactnessError, match="row 2 residue has squared norm 199, expected 1"):
            weighted_gram_schmidt(t)

    def test_residue_wider_than_its_row(self):
        # chi = X[5,3,1] minus twice X[7,2] stays below 128 everywhere, as
        # does X[7,2], but X[5,3,1] reaches 162: the residue of chi is wider
        # than chi and every row before it, so a slot sized from the
        # entries of the rows would be too narrow, and one sized from their
        # norms (Bessel) is not
        x, _ = sym_irreducible_table(9)
        a, b = (x.row_labels.index(Partition(p)) for p in ((7, 2), (5, 3, 1)))
        rest = [r for i, r in enumerate(x.entries) if i not in (a, b)]
        rows = [x.entries[a], x.entries[b], *rest]
        chi = tuple(v - 2 * u for u, v in zip(*rows[:2]))
        assert max(map(abs, rows[0] + chi)) < 128 <= max(map(abs, rows[1]))
        ortho, trans = weighted_gram_schmidt(
            table_of((rows[0], chi, *rest), x.col_class_orders, x.group_order)
        )
        assert ortho.entries == tuple(rows)
        assert trans.entries == tuple(
            tuple(-2 if (i, j) == (1, 0) else int(i == j) for j in range(x.nrows))
            for i in range(x.nrows)
        )

    def test_identity_reconstruction(self):
        t = table_of(((1, 1, 1), (3, 1, 0), (6, 2, 1)), (1, 3, 2), 6)
        # not a real character table; only the factorization contract matters
        try:
            ortho, trans = weighted_gram_schmidt(t)
        except ExactnessError:
            return  # acceptable for arbitrary input
        assert mat_mul(trans.entries, ortho.entries) == t.entries


def assert_matches_reference(table):
    ortho, trans = weighted_gram_schmidt(table)
    assert (ortho.entries, trans.entries) == reference_gram_schmidt(table)


class TestGramSchmidtAgainstReference:
    # the induced tables run the packed projections and residues over
    # every row, with slots several bytes wide
    @pytest.mark.parametrize("n", range(1, 13))
    def test_symmetric(self, n):
        assert_matches_reference(sym_induced_table(n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_hyperoctahedral(self, n):
        assert_matches_reference(hob_induced_table(n))

    @pytest.mark.slow
    def test_degree_16_and_rank_8(self):
        assert_matches_reference(sym_induced_table(16))
        assert_matches_reference(hob_induced_table(8))


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


def permuted_triangular(data, n, entries):
    """A square matrix and its pivots: taken in the drawn pivot order, its
    columns form an upper-triangular matrix with a non-zero diagonal."""
    pivots = data.draw(st.permutations(range(n)), label="pivots")
    a = [[0] * n for _ in range(n)]
    for k, c in enumerate(pivots):
        for j in range(k):
            a[j][c] = data.draw(entries)
        a[k][c] = data.draw(entries.filter(bool))
    return a, pivots


def solve_by_fractions(a, b):
    """X with X A = B, through the Gauss-Jordan oracle on A^T X^T = B^T."""
    return [list(col) for col in zip(*fraction_solve(transpose(a), transpose(b)))]


class TestLinearAlgebra:
    # pivots (1, 0): row 0 pivots on column 1, row 1 on column 0, and row 1
    # is zero below row 0's pivot
    A = ((1, 2), (3, 0))
    PIVOTS = (1, 0)

    def test_triangular_solve_round_trip(self):
        x = ((2, -1), (0, 5), (7, 3))
        b = mat_mul(x, self.A)
        got = triangular_solve(self.A, self.PIVOTS, b)
        assert got == x
        assert all(type(v) is int for row in got for v in row)
        assert [list(row) for row in got] == solve_by_fractions(self.A, b)

    def test_triangular_solve_empty_shapes(self):
        assert triangular_solve((), (), ((), ())) == ((), ())
        assert triangular_solve(self.A, self.PIVOTS, ()) == ()

    def test_triangular_solve_zero_pivot(self):
        with pytest.raises(ExactnessError, match="zero pivot in row 1, column 0"):
            triangular_solve(((1, 2), (0, 0)), self.PIVOTS, ((1, 2),))

    def test_triangular_solve_non_integral(self):
        with pytest.raises(ExactnessError, match="not an exact integer: 1/2"):
            triangular_solve(((2,),), (0,), ((1,),))

    def test_triangular_solve_reports_first_column_with_a_fraction(self):
        # X = ((1, 1/3), (1/2, 1)): the columns are solved in pivot order,
        # so entry (1,0) is reported, where a row-by-row loop stops at (0,1)
        a, b = ((2, 0), (0, 3)), ((2, 1), (1, 3))
        with pytest.raises(ArithmeticError, match=r"solution entry \(0,1\)"):
            reference_triangular_solve(a, (0, 1), b)
        with pytest.raises(
            ExactnessError, match=r"solution entry \(1,0\) is not an exact integer: 1/2"
        ):
            triangular_solve(a, (0, 1), b)

    def test_triangular_solve_nonzero_below_pivot(self):
        # invertible, so a general solver would succeed; the substitution
        # must refuse the broken structure instead
        a = ((1, 2), (3, 1))
        with pytest.raises(ExactnessError, match="below the pivot of row 0 in column 1"):
            triangular_solve(a, self.PIVOTS, mat_mul(((1, 1),), a))

    def test_triangular_solve_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            triangular_solve(self.A, (1, 1), ((1, 2),))
        with pytest.raises(ValueError):
            triangular_solve(self.A, self.PIVOTS, ((1, 2, 3),))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_triangular_solve_matches_fraction_solve(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        m = data.draw(st.integers(1, 3), label="m")
        entries = st.integers(-6, 6)
        a, pivots = permuted_triangular(data, n, entries)
        x = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
        b = mat_mul(x, a)
        got = triangular_solve(a, pivots, b)
        assert got == tuple(map(tuple, x))
        assert [list(row) for row in got] == solve_by_fractions(a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_triangular_solve_refuses_entry_below_pivot(self, data):
        n = data.draw(st.integers(2, 5), label="n")
        a, pivots = permuted_triangular(data, n, st.integers(-6, 6))
        k = data.draw(st.integers(0, n - 2), label="pivot row")
        j = data.draw(st.integers(k + 1, n - 1), label="row below")
        a[j][pivots[k]] = data.draw(st.integers(-6, 6).filter(bool))
        with pytest.raises(ExactnessError, match=f"below the pivot of row {k}"):
            triangular_solve(a, pivots, [[0] * n])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_triangular_solve_raises_exactly_when_not_integral(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        entries = st.integers(-4, 4)
        a, pivots = permuted_triangular(data, n, entries)
        b = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=2, max_size=2))
        expected = solve_by_fractions(a, b)
        if all(v.denominator == 1 for row in expected for v in row):
            assert [list(row) for row in triangular_solve(a, pivots, b)] == expected
        else:
            with pytest.raises(ExactnessError):
                triangular_solve(a, pivots, b)

    def test_transpose_mat_mul(self):
        a = ((1, 2), (3, 4))
        assert transpose(a) == ((1, 3), (2, 4))
        assert mat_mul(a, ((1, 0), (0, 1))) == a


def shapes(data):
    """(m, k, p) for m x k times k x p: m = 1 gives 1 x k left factors,
    p = 1 gives k x 1 right factors and k = 0 a right factor with no rows,
    whose product has no columns."""
    return (data.draw(st.integers(lo, 6), label=name) for name, lo in zip("mkp", (1, 0, 1)))


def sparse_matrix(rows, cols):
    """Integer matrices, mostly zeros, with small entries of both signs,
    entries past 2**200 and whole zero rows."""
    entry = st.one_of(
        st.just(0),
        st.just(0),
        st.integers(-9, 9),
        st.integers(2**200, 2**210),
        st.integers(-(2**210), -(2**200)),
    )
    row = st.one_of(st.just([0] * cols), st.lists(entry, min_size=cols, max_size=cols))
    return st.lists(row, min_size=rows, max_size=rows)


class TestMatMul:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_row_by_column_product(self, data):
        m, k, p = shapes(data)
        a = data.draw(sparse_matrix(m, k), label="a")
        b = data.draw(sparse_matrix(k, p), label="b")
        got = mat_mul(a, b)
        assert got == naive_mat_mul(a, b, p if k else 0)
        assert all(type(v) is int for row in got for v in row)

    def test_zero_rows_and_thin_shapes(self):
        assert mat_mul(((0, 0, 0),), ((1,), (-2,), (3,))) == ((0,),)
        assert mat_mul(((1, 0, -2),), ((1,), (-2,), (3,))) == ((-5,),)
        assert mat_mul(((2,), (0,), (-1,)), ((3, 0, -4),)) == ((6, 0, -8), (0, 0, 0), (-3, 0, 4))
        assert mat_mul(((), ()), ()) == ((), ())
        assert mat_mul((), ()) == ()

    def test_one_shot_left_factor(self):
        assert mat_mul(iter(((1,),)), ((2,),)) == ((2,),)

    @pytest.mark.parametrize(
        "a, b",
        [
            (((1, 2),), ((3,),)),  # a row of a longer than b has rows
            (((1,),), ((3,), (4,))),  # a row of a shorter than b has rows
            (((1, 2),), ((3, 4), (5,))),  # a short row of b
            (((1, 2),), ((3,), (5, 6))),  # a long row of b
        ],
    )
    def test_mismatched_shapes_raise(self, a, b):
        with pytest.raises(ValueError):
            mat_mul(a, b)


def narrower_slots(monkeypatch):
    """Make every packed slot one byte narrower than its bound asks for,
    but at least one byte wide."""
    slot_bytes = tables._slot_bytes
    monkeypatch.setattr(tables, "_slot_bytes", lambda bound: max(slot_bytes(bound) - 1, 1))


class TestPackedProduct:
    @pytest.mark.parametrize("nbytes", [1, 2, 3, 8, 26])
    def test_one_byte_narrower_than_the_bound_aliases(self, nbytes, monkeypatch):
        # x = 2**(8 * nbytes - 1) is max|a| * max|b| * len(b) here and
        # needs nbytes + 1 bytes; in nbytes bytes it carries into the next
        # slot, and x = -x + 1 * 256**nbytes decodes as (-x, 1) with
        # nothing left above the top slot
        x = 1 << (8 * nbytes - 1)
        a, b = ((x,),), ((1, 0),)
        assert mat_mul(a, b) == ((x, 0),)
        narrower_slots(monkeypatch)
        assert mat_mul(a, b) == ((-x, 1),)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_overflow_above_the_top_slot_raises(self, sign, monkeypatch):
        # |x| = 2**23 + 1 needs 4 bytes; in 3 it leaves a carry above the
        # top slot, or a borrow below zero
        x = sign * ((1 << 23) + 1)
        narrower_slots(monkeypatch)
        with pytest.raises(ExactnessError, match="packed product overflows 1 slots of 3 bytes"):
            mat_mul(((x,),), ((1,),))

    def test_value_too_wide_for_its_slot_raises(self):
        with pytest.raises(ExactnessError, match="a value overflows its slot of 1 bytes"):
            tables._pack((1, 128), 1)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_narrower_single_column_raises_or_is_right(self, data):
        # with one column the only slot is the top slot, so an overflow
        # can only raise: the product is never a wrong matrix
        m, k, _ = shapes(data)
        a = data.draw(sparse_matrix(m, k), label="a")
        b = data.draw(sparse_matrix(k, 1), label="b")
        with pytest.MonkeyPatch.context() as monkeypatch:
            narrower_slots(monkeypatch)
            try:
                got = mat_mul(a, b)
            except ExactnessError:
                return
        assert got == naive_mat_mul(a, b, 1 if k else 0)


def induced_system(n):
    """R2's system at rank n: the induced table, its pivots and the
    re-columned ambient induced table, as ``reduce_induced`` builds them."""
    table = hob_induced_table(n)
    col_of = {alpha: c for c, alpha in enumerate(table.col_labels)}
    pivots = [col_of[label.alpha_system()] for label in table.row_labels]
    return table.entries, pivots, modified_tables(n)[0].entries


class TestPackedSolve:
    @pytest.mark.parametrize("nbytes", [1, 2, 3, 8])
    def test_one_byte_narrower_than_the_bound_aliases(self, nbytes, monkeypatch):
        # x[0][1] = 2 * half - 1 needs nbytes + 1 bytes, the bound S_1 of
        # its column; in nbytes bytes the partial result carries into row
        # 1's slot and decodes as (-1, 1), a wrong X that nothing catches
        half = 1 << (8 * nbytes - 1)
        a, pivots, b = ((1, 1), (0, 1)), (0, 1), ((-half, half - 1), (0, 0))
        assert triangular_solve(a, pivots, b) == ((-half, 2 * half - 1), (0, 0))
        narrower_slots(monkeypatch)
        assert triangular_solve(a, pivots, b) == ((-half, -1), (0, 1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_reference_substitution(self, n):
        rows, pivots, rhs = induced_system(n)
        want = reference_triangular_solve(rows, pivots, rhs)
        assert triangular_solve(rows, pivots, rhs) == want == reduce_induced(n).entries

    @pytest.mark.slow
    @pytest.mark.parametrize("n", range(7, 10))
    def test_matches_reference_substitution_to_rank_9(self, n):
        rows, pivots, rhs = induced_system(n)
        assert triangular_solve(rows, pivots, rhs) == reference_triangular_solve(rows, pivots, rhs)


def lower_unitriangular(data, n):
    """An n x n lower unitriangular integer matrix with entries up to
    2**64 in absolute value below the diagonal."""
    entry = st.integers(-(2**64), 2**64)
    return [
        [data.draw(entry) if j < i else int(i == j) for j in range(n)] for i in range(n)
    ]


# S_1 ... S_6 and ranks 1 ... 3
IRREDUCIBLE_TABLES = [
    *((sym_irreducible_table, n) for n in range(1, 7)),
    *((hob_irreducible_table, n) for n in range(1, 4)),
]


class TestGramSchmidtSlotWidth:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_recovers_the_factors_of_a_wide_product(self, data):
        # L X has rows far wider than any induced table's; its one
        # unitriangular orthonormal factorization is (X, L)
        irreducible, n = data.draw(st.sampled_from(IRREDUCIBLE_TABLES), label="table")
        x, _ = irreducible(n)
        lower = lower_unitriangular(data, x.nrows)
        wide = table_of(naive_mat_mul(lower, x.entries, x.ncols), x.col_class_orders, x.group_order)
        ortho, trans = weighted_gram_schmidt(wide)
        assert ortho.entries == x.entries
        assert trans.entries == tuple(map(tuple, lower))

    def test_packs_each_row_and_each_residue_once(self, monkeypatch):
        table = sym_induced_table(12)
        calls, pack = [], tables._pack

        def counted(values, nbytes):
            calls.append(nbytes)
            return pack(values, nbytes)

        monkeypatch.setattr(tables, "_pack", counted)
        weighted_gram_schmidt(table)
        # each residue comes out packed, as the difference that gives it
        assert len(calls) == table.nrows == 77
        assert len(set(calls)) == 1

    def test_one_byte_narrower_raises(self, monkeypatch):
        # the bound is tight enough that S_12 needs every byte of it
        table = sym_induced_table(12)
        narrower_slots(monkeypatch)
        with pytest.raises(ExactnessError):
            weighted_gram_schmidt(table)
