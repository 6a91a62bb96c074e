import math

import pytest

from hobchar import hyperoct, symmetric
from hobchar.combinatorics import Partition
from hobchar.hyperoct import (
    AlphaSystem,
    SignedSubgroupLabel,
    group_order,
    hob_classes,
    hob_induced_table,
    hob_irreducible_table,
    hob_subgroups,
)
from hobchar.tables import (
    ExactnessError,
    exact_div,
    first_column_orthogonality_failure,
    first_orthogonality_failure,
)

from _oracles import fraction_det, hob_induced_char, naive_mat_mul

# Frozen reference data for rank 2.
B2_I = ((1, 1, 1, 1, 1), (2, 0, 2, 2, 0), (2, 2, 2, 0, 0), (4, 2, 0, 0, 0), (8, 0, 0, 0, 0))
B2_T = ((1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 1, 1, 0), (1, 1, 1, 2, 1))
B2_Y = ((1, 1, 1, 1, 1), (1, -1, 1, 1, -1), (1, 1, 1, -1, -1), (2, 0, -2, 0, 0), (1, -1, 1, -1, 1))


def sub(parts, flags):
    return SignedSubgroupLabel(Partition(tuple(parts)), tuple(flags))


class TestClasses:
    def test_rank2_orders(self):
        assert [o for _, o in hob_classes(2)] == [1, 2, 1, 2, 2]
        assert [a.label for a, _ in hob_classes(2)] == [
            "1+:2",
            "1+:1;1-:1",
            "1-:2",
            "2+:1",
            "2-:1",
        ]

    def test_identity_first(self):
        for n in range(1, 7):
            alpha, order = hob_classes(n)[0]
            assert alpha == AlphaSystem(Partition((1,) * n), Partition(())) and order == 1

    def test_central_flip_class(self):
        # all signs flipped: a single central element
        alpha = AlphaSystem(Partition(()), Partition((1, 1, 1)))
        assert alpha.class_order() == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_orders_sum_to_group_order(self, n):
        assert sum(o for _, o in hob_classes(n)) == group_order(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_class_count_equals_label_count(self, n):
        assert len(hob_classes(n)) == len(hob_subgroups(n))

    def test_alpha_label_grammar(self):
        assert AlphaSystem(Partition((1,)), Partition((1,))).label == "1+:1;1-:1"
        assert AlphaSystem(Partition((1, 1)), Partition(())).label == "1+:2"


class TestSubgroups:
    def test_rank2_indices(self):
        indices = [exact_div(group_order(2), h.subgroup_order()) for h in hob_subgroups(2)]
        assert indices == [1, 2, 2, 4, 8]

    def test_whole_group_and_trivial(self):
        whole = sub((4,), (0,))
        assert whole.subgroup_order() == group_order(4)
        trivial = sub((1, 1, 1, 1), (1, 1, 1, 1))
        assert trivial.subgroup_order() == 1
        assert exact_div(group_order(4), trivial.subgroup_order()) == group_order(4)

    def test_label_grammar(self):
        assert sub((2, 1), (1, 0)).label == "2+,1-"

    def test_flag_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            sub((1, 1), (1, 0))


class TestInducedTable:
    def test_flagged_part_rejects_single_flip(self):
        value = hob_induced_char(sub((2,), (1,)), AlphaSystem(Partition((1,)), Partition((1,))))
        assert value == 0

    def test_positive_two_cycle_misses_split_parts(self):
        value = hob_induced_char(sub((1, 1), (0, 1)), AlphaSystem(Partition((2,)), Partition(())))
        assert value == 0

    def test_identity_gives_index(self):
        for n in range(1, 6):
            table = hob_induced_table(n)
            for label, row in zip(table.row_labels, table.entries):
                assert row[0] == exact_div(group_order(n), label.subgroup_order())

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            hob_induced_char(sub((2,), (0,)), AlphaSystem(Partition((1,)), Partition(())))

    def test_rank2_table(self):
        assert hob_induced_table(2).entries == B2_I

    def test_rank3_is_ten_by_ten(self):
        table = hob_induced_table(3)
        assert table.nrows == table.ncols == 10

    def test_whole_group_row_is_ones(self):
        for n in range(1, 6):
            assert set(hob_induced_table(n).entries[0]) == {1}


class TestIrreducibleTable:
    def test_rank2_golden(self):
        y, t = hob_irreducible_table(2)
        assert y.entries == B2_Y
        assert t.entries == B2_T

    def test_trivial_row(self):
        for n in range(1, 6):
            y, _ = hob_irreducible_table(n)
            assert set(y.entries[0]) == {1}

    def test_rank3_degrees(self):
        y, _ = hob_irreducible_table(3)
        degrees = sorted(row[0] for row in y.entries)
        assert degrees == [1, 1, 1, 1, 2, 2, 3, 3, 3, 3]
        assert sum(d * d for d in degrees) == 48

    @pytest.mark.parametrize("n", range(1, 7))
    def test_factorization_and_unitriangularity(self, n):
        table = hob_induced_table(n)
        y, t = hob_irreducible_table(n)
        assert naive_mat_mul(t.entries, y.entries, y.ncols) == table.entries
        assert fraction_det(t.entries) == 1
        assert all(v >= 0 for row in t.entries for v in row)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_orthogonality(self, n):
        y, _ = hob_irreducible_table(n)
        assert first_orthogonality_failure(y) is None
        assert first_column_orthogonality_failure(y) is None

    @pytest.mark.parametrize("n", range(1, 6))
    def test_degree_sum_of_squares(self, n):
        y, _ = hob_irreducible_table(n)
        assert sum(row[0] ** 2 for row in y.entries) == group_order(n)


def test_inexact_orders_raise_exactness_error(monkeypatch):
    # A wrong factorial leaves a remainder in every exact division below;
    # the check must raise even under ``python -O``.
    def off_by_one(k):
        return math.factorial(k) + 1

    monkeypatch.setattr(symmetric, "factorial", off_by_one)
    monkeypatch.setattr(hyperoct, "factorial", off_by_one)
    with pytest.raises(ExactnessError):
        symmetric.class_order(Partition((2,)))
    with pytest.raises(ExactnessError):
        AlphaSystem(Partition((2,)), Partition(())).class_order()
    with pytest.raises(ExactnessError):
        exact_div(group_order(2), sub((1, 1), (0, 0)).subgroup_order())
