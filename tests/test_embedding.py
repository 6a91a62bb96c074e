from fractions import Fraction
from math import factorial

import pytest

from hobchar import embedding
from hobchar.combinatorics import Partition, partitions
from hobchar.embedding import (
    fuse_class,
    fusion_map,
    intersection_orders,
    modified_tables,
    permutation_character_F,
)
from hobchar.hyperoct import AlphaSystem, group_order, hob_classes
from hobchar.oracle import _ambient_lengths, _signed_lengths, enumerate_group
from hobchar.symmetric import sym_classes, sym_induced_table, sym_irreducible_table
from hobchar.tables import ExactnessError

from _oracles import even_partition_count, naive_mat_mul

# Frozen reference data for the rank-2 embedding in the degree-4 group.
B2_XMOD = (
    (1, 1, 1, 1, 1),
    (3, 1, -1, -1, -1),
    (2, 0, 2, 2, 0),
    (3, -1, -1, -1, 1),
    (1, -1, 1, 1, -1),
)
B2_PHIMOD = (
    (1, 1, 1, 1, 1),
    (4, 2, 0, 0, 0),
    (6, 2, 2, 2, 0),
    (12, 2, 0, 0, 0),
    (24, 0, 0, 0, 0),
)


def double_factorial(m):
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


class TestFusion:
    def test_identity(self):
        assert fuse_class(AlphaSystem(Partition((1, 1)), Partition(())), 2).label == "1,1,1,1"

    def test_single_flip(self):
        assert fuse_class(AlphaSystem(Partition((1,)), Partition((1,))), 2).label == "2,1,1"

    def test_negative_two_cycle(self):
        assert fuse_class(AlphaSystem(Partition(()), Partition((2,))), 2).label == "4"

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_matches_explicit_action(self, n):
        # ambient cycle types read off every element agree with the rule
        expected = {}
        for g in enumerate_group(n):
            ambient = _ambient_lengths(g, n)
            assert expected.setdefault(_signed_lengths(g), ambient) == ambient
        for alpha, _ in hob_classes(n):
            assert fuse_class(alpha, n) == expected[alpha.pos, alpha.neg]


class TestIntersectionOrders:
    def test_rank2(self):
        assert intersection_orders(2) == (1, 2, 3, 0, 2)

    def test_identity_class(self):
        for n in range(1, 5):
            assert intersection_orders(n)[0] == 1

    def test_rank3_triple_transposition_brute_force(self):
        # count the 48 signed permutations whose ambient type is (2,2,2)
        count = sum(
            1
            for g in enumerate_group(3)
            if _ambient_lengths(g, 3) == (2, 2, 2)
        )
        assert count == 7
        idx = [c.label for c, _ in sym_classes(6)].index("2,2,2")
        assert intersection_orders(3)[idx] == 7

    @pytest.mark.parametrize("n", range(1, 6))
    def test_total_is_group_order(self, n):
        assert sum(intersection_orders(n)) == group_order(n)

    def test_missing_class_raises_exactness_error(self, monkeypatch):
        real = embedding.hob_classes
        monkeypatch.setattr(embedding, "hob_classes", lambda n: real(n)[1:])
        with pytest.raises(ExactnessError, match="not the group order 8"):
            fusion_map(2)

    def test_fusion_map_directions(self):
        images, inter = fusion_map(2)
        assert [ct.label for ct in images] == ["1,1,1,1", "2,1,1", "2,2", "2,2", "4"]
        assert inter == (1, 2, 3, 0, 2)

    def test_fusion_matches_explicit_action_rank4(self):
        expected = {}
        for g in enumerate_group(4):
            ambient = _ambient_lengths(g, 4)
            assert expected.setdefault(_signed_lengths(g), ambient) == ambient
        for alpha, _ in hob_classes(4):
            assert fuse_class(alpha, 4) == expected[alpha.pos, alpha.neg]


class TestPermutationCharacter:
    def test_non_integral_value_raises_exactness_error(self, monkeypatch):
        # one element in every class of S_4: index 3 is not a multiple of
        # the class order 6 of the transpositions
        monkeypatch.setattr(embedding, "intersection_orders", lambda n: (1,) * 5)
        with pytest.raises(ExactnessError, match="coset character value"):
            permutation_character_F(2)

    def test_rank2(self):
        assert permutation_character_F(2) == (3, 1, 3, 0, 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_identity_is_double_factorial(self, n):
        assert permutation_character_F(n)[0] == double_factorial(2 * n - 1)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_multiplicities_even_partitions(self, n):
        # multiplicity of each irreducible: 1 exactly for all-even partitions
        f = permutation_character_F(n)
        x, _ = sym_irreducible_table(2 * n)
        orders = [o for _, o in sym_classes(2 * n)]
        total = factorial(2 * n)
        constituents = 0
        for lam, row in zip(x.row_labels, x.entries):
            dot = sum(o * a * b for o, a, b in zip(orders, f, row))
            mult = Fraction(dot, total)
            expected = 1 if all(p % 2 == 0 for p in lam) else 0
            assert mult == expected
            constituents += expected
        assert constituents == even_partition_count(2 * n)
        assert constituents == len(partitions(n))

    def test_rank3_sum_of_even_constituents(self):
        # F equals the sum of the three all-even-row irreducible characters
        f = permutation_character_F(3)
        x, _ = sym_irreducible_table(6)
        rows = {
            lam.label: row for lam, row in zip(x.row_labels, x.entries)
        }
        summed = tuple(
            a + b + c for a, b, c in zip(rows["6"], rows["4,2"], rows["2,2,2"])
        )
        assert f == summed


class TestModifiedTables:
    def test_rank2_goldens(self):
        phi_mod, x_mod = modified_tables(2)
        assert x_mod.entries == B2_XMOD
        assert phi_mod.entries == B2_PHIMOD

    def test_rank1_is_relabeling(self):
        # every ambient class of the degree-2 group meets the subgroup once
        phi_mod, x_mod = modified_tables(1)
        assert phi_mod.entries == sym_induced_table(2).entries
        assert x_mod.entries == sym_irreducible_table(2)[0].entries

    def test_builds_one_fusion(self, monkeypatch):
        calls = []
        real = embedding.fusion_map
        monkeypatch.setattr(embedding, "fusion_map", lambda n: calls.append(n) or real(n))
        modified_tables(3)
        assert calls == [3]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_shared_transition_matrix(self, n):
        # the re-columned tables factor through the ambient transition matrix
        phi_mod, x_mod = modified_tables(n)
        _, delta = sym_irreducible_table(2 * n)
        assert naive_mat_mul(delta.entries, x_mod.entries, x_mod.ncols) == phi_mod.entries

    def test_column_orders_are_subgroup_class_orders(self):
        phi_mod, _ = modified_tables(2)
        assert phi_mod.col_class_orders == (1, 2, 1, 2, 2)
        assert phi_mod.group_order == group_order(2)
