import itertools
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hobchar.combinatorics import Partition, partitions
from hobchar.symmetric import (
    class_order,
    sym_classes,
    sym_induced_table,
    sym_irreducible_table,
)
from hobchar.tables import (
    first_column_orthogonality_failure,
    first_orthogonality_failure,
)

from _oracles import (
    cycle_type_of,
    fraction_det,
    hook_length_degree,
    naive_mat_mul,
    sym_induced_char,
)

# Frozen reference data for S4 (degree-4 symmetric group).
S4_PHI = ((1, 1, 1, 1, 1), (4, 2, 0, 1, 0), (6, 2, 2, 0, 0), (12, 2, 0, 0, 0), (24, 0, 0, 0, 0))
S4_DELTA = ((1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 1, 1, 0, 0), (1, 2, 1, 1, 0), (1, 3, 2, 3, 1))
S4_X = ((1, 1, 1, 1, 1), (3, 1, -1, 0, -1), (2, 0, 2, -1, 0), (3, -1, -1, 0, 1), (1, -1, 1, 1, -1))


def ct(*lengths):
    return Partition(tuple(sorted(lengths, reverse=True)))


class TestClasses:
    def test_s4_orders(self):
        classes = sym_classes(4)
        assert [c.label for c, _ in classes] == ["1,1,1,1", "2,1,1", "2,2", "3,1", "4"]
        assert [o for _, o in classes] == [1, 6, 3, 8, 6]

    def test_identity_first(self):
        for n in range(1, 8):
            first, order = sym_classes(n)[0]
            assert first == Partition((1,) * n) and order == 1

    def test_s6_double_transpositions_brute_force(self):
        # independent count over all 720 permutations
        count = sum(
            1
            for perm in itertools.permutations(range(1, 7))
            if cycle_type_of(perm) == (2, 2, 2)
        )
        assert count == 15
        orders = {c.label: o for c, o in sym_classes(6)}
        assert orders["2,2,2"] == 15

    @pytest.mark.parametrize("n", range(1, 9))
    def test_orders_sum_and_divide(self, n):
        orders = [o for _, o in sym_classes(n)]
        assert sum(orders) == factorial(n)
        assert all(factorial(n) % o == 0 for o in orders)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_class_orders_count_permutations(self, n):
        # independent count of every cycle type over all n! permutations
        counts = Counter(cycle_type_of(p) for p in itertools.permutations(range(1, n + 1)))
        assert {c: class_order(c) for c in partitions(n)} == counts


class TestInducedCharacters:
    def test_known_values(self):
        assert sym_induced_char(Partition((3, 1)), ct(2, 1, 1)) == 2
        assert sym_induced_char(Partition((2, 1, 1)), ct(2, 1, 1)) == 2

    def test_whole_group_row_is_ones(self):
        for n in range(1, 7):
            for c, _ in sym_classes(n):
                assert sym_induced_char(Partition((n,)), c) == 1

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            sym_induced_char(Partition((2, 1)), ct(2, 2))

    def test_s4_table(self):
        assert sym_induced_table(4).entries == S4_PHI

    def test_identity_column_is_multinomial(self):
        table = sym_induced_table(6)
        assert table.entries[partitions(6).index(Partition((3, 3)))][0] == 20
        for lam, row in zip(table.row_labels, table.entries):
            denom = 1
            for p in lam:
                denom *= factorial(p)
            assert row[0] == factorial(6) // denom

    @given(st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_value_bounded_by_degree(self, n, data):
        lam = data.draw(st.sampled_from(partitions(n)))
        c = data.draw(st.sampled_from([c for c, _ in sym_classes(n)]))
        value = sym_induced_char(lam, c)
        degree = sym_induced_char(lam, ct(*([1] * n)))
        assert 0 <= value <= degree

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_coset_fixed_point_counts(self, n):
        # independent route: count cosets of the block subgroup fixed by a
        # class representative, over explicitly enumerated permutations
        everyone = list(itertools.permutations(range(1, n + 1)))
        table = sym_induced_table(n)
        for lam, row in zip(table.row_labels, table.entries):
            block_of = []
            start = 0
            for b, part in enumerate(lam):
                block_of.extend([b] * part)
                start += part
            members = {
                g
                for g in everyone
                if all(block_of[g[i] - 1] == block_of[i] for i in range(n))
            }
            for (c, _), expected in zip(sym_classes(n), row):
                rep = []
                p = 1
                for length in c:
                    rep.extend(list(range(p + 1, p + length)) + [p])
                    p += length
                g = tuple(rep)
                inv = [0] * n
                for i, v in enumerate(g):
                    inv[v - 1] = i + 1
                hits = 0
                for x in everyone:
                    xinv = [0] * n
                    for i, v in enumerate(x):
                        xinv[v - 1] = i + 1
                    conj = tuple(x[g[xinv[i] - 1] - 1] for i in range(n))
                    if conj in members:
                        hits += 1
                assert hits == expected * len(members)


class TestIrreducibleTable:
    def test_s4_golden(self):
        x, delta = sym_irreducible_table(4)
        assert x.entries == S4_X
        assert delta.entries == S4_DELTA

    def test_sign_character(self):
        # last row is the sign character: parity of (n - number of cycles)
        for n in range(2, 8):
            x, _ = sym_irreducible_table(n)
            sign_row = x.entries[-1]
            for value, (c, _) in zip(sign_row, sym_classes(n)):
                assert value == (-1) ** (n - len(c))

    def test_trivial_character_row(self):
        for n in range(1, 7):
            x, _ = sym_irreducible_table(n)
            assert set(x.entries[0]) == {1}

    @pytest.mark.parametrize("n", range(1, 11))
    def test_factorization_and_unitriangularity(self, n):
        phi = sym_induced_table(n)
        x, delta = sym_irreducible_table(n)
        assert naive_mat_mul(delta.entries, x.entries, x.ncols) == phi.entries
        assert fraction_det(delta.entries) == 1
        assert all(v >= 0 for row in delta.entries for v in row)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_orthogonality(self, n):
        x, _ = sym_irreducible_table(n)
        assert first_orthogonality_failure(x) is None
        assert first_column_orthogonality_failure(x) is None

    @pytest.mark.parametrize("n", range(1, 9))
    def test_degrees(self, n):
        x, _ = sym_irreducible_table(n)
        dims = [row[0] for row in x.entries]
        assert all(d > 0 for d in dims)
        assert sum(d * d for d in dims) == factorial(n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_degrees_match_hook_lengths(self, n):
        # independent route: identity column vs the hook-length product
        x, _ = sym_irreducible_table(n)
        for lam, row in zip(x.row_labels, x.entries):
            assert row[0] == hook_length_degree(lam)

    @pytest.mark.slow
    def test_factorization_up_to_twelve(self):
        for n in (11, 12):
            phi = sym_induced_table(n)
            x, delta = sym_irreducible_table(n)
            assert naive_mat_mul(delta.entries, x.entries, x.ncols) == phi.entries
            assert first_orthogonality_failure(x) is None

    def test_weights_sum_to_one(self):
        t = sym_induced_table(5)
        assert sum(t.col_class_orders) == t.group_order
