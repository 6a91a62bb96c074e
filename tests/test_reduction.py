import dataclasses
from fractions import Fraction
from math import factorial

import pytest

import hobchar
from hobchar import reduction
from hobchar.chains import method_b_verify
from hobchar.embedding import modified_tables, permutation_character_F
from hobchar.hyperoct import hob_induced_table, hob_irreducible_table
from hobchar.reduction import (
    BranchingMatrix,
    reduce_induced,
    reduce_irreducible,
    verify_consistency,
)
from hobchar.symmetric import sym_classes, sym_irreducible_table
from hobchar.tables import ExactnessError, first_orthogonality_failure

from _oracles import fraction_solve, naive_mat_mul, transpose

# Frozen rank-2 branching matrices.
B2_R1 = (
    (1, 0, 0, 0, 0),
    (0, 0, 1, 1, 0),
    (1, 1, 0, 0, 0),
    (0, 0, 0, 1, 1),
    (0, 1, 0, 0, 0),
)
B2_R2 = (
    (1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 1, 0, 1, 0),
    (0, 0, 0, 1, 1),
    (0, 0, 0, 0, 3),
)

# Frozen rank-3 irreducible branching matrix (11 x 10).
B3_R1 = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0, 0, 0, 0, 0),
    (1, 0, 1, 0, 1, 0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0, 0, 1, 1, 1, 0),
    (0, 1, 0, 1, 0, 0, 1, 0, 0, 0),
    (0, 0, 1, 1, 1, 1, 0, 1, 1, 0),
    (0, 0, 0, 0, 1, 0, 0, 1, 1, 1),
    (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (0, 1, 0, 1, 0, 1, 0, 0, 1, 0),
    (0, 0, 0, 0, 1, 1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
)


class TestIrreducibleBranching:
    def test_rank2_golden(self):
        assert reduce_irreducible(2).entries == B2_R1

    def test_rank3_golden(self):
        assert reduce_irreducible(3).entries == B3_R1

    def test_trivial_character(self):
        for n in range(1, 6):
            row = reduce_irreducible(n).entries[0]
            assert row[0] == 1 and set(row[1:]) == {0}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_defining_identity(self, n):
        r1 = reduce_irreducible(n)
        _, x_mod = modified_tables(n)
        y, _ = hob_irreducible_table(n)
        assert naive_mat_mul(r1.entries, y.entries, y.ncols) == x_mod.entries

    @pytest.mark.parametrize("n", range(1, 6))
    def test_non_negative_and_degree_bookkeeping(self, n):
        r1 = reduce_irreducible(n)
        y, _ = hob_irreducible_table(n)
        x, _ = sym_irreducible_table(2 * n)
        y_deg = [row[0] for row in y.entries]
        for x_row, r_row in zip(x.entries, r1.entries):
            assert all(v >= 0 for v in r_row)
            assert sum(m * d for m, d in zip(r_row, y_deg)) == x_row[0]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_trivial_column_matches_coset_character(self, n):
        # multiplicity of the trivial subgroup character in a restricted
        # irreducible equals the multiplicity of that irreducible in the
        # coset permutation character (reciprocity), i.e. 1 exactly for
        # all-even partitions
        r1 = reduce_irreducible(n)
        f = permutation_character_F(n)
        x, _ = sym_irreducible_table(2 * n)
        orders = [o for _, o in sym_classes(2 * n)]
        for lam, row in zip(r1.row_labels, r1.entries):
            i = list(x.row_labels).index(lam)
            dot = sum(o * a * b for o, a, b in zip(orders, f, x.entries[i]))
            mult = Fraction(dot, factorial(2 * n))
            assert row[0] == mult
            assert row[0] == (1 if all(p % 2 == 0 for p in lam) else 0)


class TestInducedBranching:
    def test_rank2_golden(self):
        assert reduce_induced(2).entries == B2_R2

    def test_trivial_row(self):
        for n in range(1, 6):
            row = reduce_induced(n).entries[0]
            assert row[0] == 1 and set(row[1:]) == {0}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_defining_identity(self, n):
        r2 = reduce_induced(n)
        phi_mod, _ = modified_tables(n)
        table = hob_induced_table(n)
        assert naive_mat_mul(r2.entries, table.entries, table.ncols) == phi_mod.entries

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_fraction_solve(self, n):
        # the Gauss-Jordan oracle on the transposed system I^T R^T = phi'^T
        phi_mod, _ = modified_tables(n)
        table = hob_induced_table(n)
        expected = fraction_solve(transpose(table.entries), transpose(phi_mod.entries))
        assert reduce_induced(n).entries == transpose(expected)

    def test_rank3_has_negative_coefficients(self):
        # The unique exact solution genuinely leaves the non-negative cone
        # from rank 3 on: restricted induced characters are permutation
        # characters whose stabilizers need not be canonical subgroups.
        r2 = reduce_induced(3)
        row = dict(zip((str(l) for l in r2.row_labels), r2.entries))
        col = [str(l) for l in r2.col_labels].index("1-,1-,1-")
        assert row["4,2"][col] == -1
        assert all(isinstance(v, int) for r in r2.entries for v in r)


def broken_induced_table(n, row, pivot_row, value):
    """The rank-n induced table with the entry of ``row`` in the pivot
    column of ``pivot_row`` replaced by ``value``."""
    table = hob_induced_table(n)
    col = table.col_labels.index(table.row_labels[pivot_row].alpha_system())
    entries = [list(r) for r in table.entries]
    entries[row][col] = value
    return dataclasses.replace(table, entries=entries)


class TestInducedStructure:
    """The substitution relies on Ind_H^G 1 vanishing on the classes that
    miss H; a table that breaks this must raise, not give a wrong R2."""

    @pytest.fixture
    def patched(self, monkeypatch):
        def patch(table):
            monkeypatch.setattr(reduction, "hob_induced_table", lambda n: table)
            reduce_induced.cache_clear()

        yield patch
        reduce_induced.cache_clear()

    def test_entry_below_pivot_raises(self, patched):
        # the trivial subgroup's row is non-zero only at the identity
        last = len(hob_induced_table(3).row_labels) - 1
        patched(broken_induced_table(3, last, 0, 1))
        with pytest.raises(ExactnessError, match="below the pivot of row 0"):
            reduce_induced(3)

    def test_zero_pivot_raises(self, patched):
        patched(broken_induced_table(3, 2, 2, 0))
        with pytest.raises(ExactnessError, match="zero pivot in row 2"):
            reduce_induced(3)


def test_negative_restriction_multiplicity_raises(monkeypatch):
    # a negated ambient table restricts to negative multiplicities
    def negated(n):
        phi_mod, x_mod = modified_tables(n)
        flipped = tuple(tuple(-v for v in row) for row in x_mod.entries)
        return phi_mod, dataclasses.replace(x_mod, entries=flipped)

    monkeypatch.setattr(reduction, "modified_tables", negated)
    reduce_irreducible.cache_clear()
    try:
        with pytest.raises(ExactnessError, match="restriction multiplicity is negative"):
            reduce_irreducible(2)
    finally:
        reduce_irreducible.cache_clear()


class TestConsistency:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_eq8(self, n):
        report = verify_consistency(n)
        assert report.passed, report.line()

    def test_rank2_explicit_product(self):
        r1 = reduce_irreducible(2)
        r2 = reduce_induced(2)
        _, t_b = hob_irreducible_table(2)
        _, delta = sym_irreducible_table(4)
        lhs = naive_mat_mul(r2.entries, t_b.entries, t_b.size)
        rhs = naive_mat_mul(delta.entries, r1.entries, r1.shape[1])
        assert lhs == rhs

    def test_report_shape(self):
        report = verify_consistency(2)
        assert report.to_dict() == {"check": "eq8", "n": 2, "pass": True}

    @pytest.mark.parametrize(
        "n", [6, *(pytest.param(n, marks=pytest.mark.slow) for n in (7, 8, 9))]
    )
    def test_package_checks_from_cold_caches(self, n):
        # every table of the rank built anew, then each check the package runs
        hobchar.clear_caches()
        for report in (verify_consistency(n), method_b_verify(n)):
            assert report.passed, report.line()
        for table in (sym_irreducible_table(2 * n)[0], hob_irreducible_table(n)[0]):
            assert first_orthogonality_failure(table) is None


class TestBranchingMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            BranchingMatrix(("a",), ("b",), ((Fraction(1, 2),),))
        with pytest.raises(ValueError):
            BranchingMatrix(("a",), ("b", "c"), ((1,),))
