import dataclasses

import pytest

from hobchar import chains
from hobchar.chains import (
    chain_compose,
    hob_chain,
    hob_restriction_matrix,
    method_b_verify,
    sym_chain,
    weyl_matrix,
)
from hobchar.combinatorics import Partition, partitions
from hobchar.hyperoct import hob_irreducible_table
from hobchar.symmetric import sym_irreducible_table
from hobchar.tables import ExactnessError

from _oracles import naive_mat_mul, partition_tuples

# Frozen one-box matrices and chain products.
WEYL_4 = ((1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1))
WEYL_3 = ((1, 0), (1, 1), (0, 1))
B2_TO_B1 = ((1, 0), (0, 1), (1, 0), (1, 1), (0, 1))
B3_TO_B2 = (
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (1, 0, 1, 0, 0),
    (1, 0, 0, 1, 0),
    (0, 1, 0, 1, 0),
    (0, 1, 0, 0, 1),
    (0, 0, 1, 0, 0),
    (0, 0, 1, 1, 0),
    (0, 0, 0, 1, 1),
    (0, 0, 0, 0, 1),
)
B3_TO_B1 = (
    (1, 0),
    (0, 1),
    (2, 0),
    (2, 1),
    (1, 2),
    (0, 2),
    (1, 0),
    (2, 1),
    (1, 2),
    (0, 1),
)
S4_TO_S2 = ((1, 0), (2, 1), (1, 1), (1, 2), (0, 1))
S6_TO_S2 = (
    (1, 0),
    (4, 1),
    (6, 3),
    (6, 4),
    (3, 2),
    (8, 8),
    (4, 6),
    (2, 3),
    (3, 6),
    (1, 4),
    (0, 1),
)


class TestWeylMatrix:
    def test_degree_four(self):
        assert weyl_matrix(4).entries == WEYL_4

    def test_degree_three(self):
        assert weyl_matrix(3).entries == WEYL_3

    def test_degree_two(self):
        assert weyl_matrix(2).entries == ((1,), (1,))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_row_sums_are_removable_corners(self, n):
        m = weyl_matrix(n)
        for lam, row in zip(m.row_labels, m.entries):
            corners = len(set(lam))
            assert sum(row) == corners
            assert set(row) <= {0, 1}

    @pytest.mark.parametrize(
        "n", [*range(2, 13), *(pytest.param(n, marks=pytest.mark.slow) for n in range(13, 19))]
    )
    def test_entry_is_one_exactly_when_mu_fits_in_lam(self, n):
        # mu, one box smaller, arises from lam by a one-box removal exactly
        # when mu_i <= lam_i for every i (mu padded with zeros)
        m = weyl_matrix(n)
        rows, cols = partition_tuples(n), partition_tuples(n - 1)
        assert list(m.row_labels) == rows
        assert list(m.col_labels) == cols
        for lam, row in zip(rows, m.entries):
            fits = [len(mu) <= len(lam) and all(v <= w for v, w in zip(mu, lam)) for mu in cols]
            assert row == tuple(map(int, fits)), lam

    def test_builds_no_partition(self, monkeypatch):
        partitions(9), partitions(10)  # the cached labels, built before the count
        built, new = [], Partition.__new__

        def counted(cls, parts):
            built.append(parts)
            return new(cls, parts)

        monkeypatch.setattr(Partition, "__new__", staticmethod(counted))
        weyl_matrix(10)
        assert built == []
        Partition((2, 1))  # the hook counts a build
        assert built == [(2, 1)]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_column_hit(self, n):
        m = weyl_matrix(n)
        for col in zip(*m.entries):
            assert any(col)


class TestRestrictionMatrix:
    def test_rank2(self):
        assert hob_restriction_matrix(2).entries == B2_TO_B1

    def test_rank3(self):
        assert hob_restriction_matrix(3).entries == B3_TO_B2

    def test_trivial_row(self):
        for n in range(2, 6):
            row = hob_restriction_matrix(n).entries[0]
            assert row[0] == 1 and set(row[1:]) == {0}

    @pytest.mark.parametrize("n", range(2, 6))
    def test_degree_preservation(self, n):
        m = hob_restriction_matrix(n)
        y_big, _ = hob_irreducible_table(n)
        y_small, _ = hob_irreducible_table(n - 1)
        small_deg = [row[0] for row in y_small.entries]
        for big_row, row in zip(y_big.entries, m.entries):
            assert sum(v * d for v, d in zip(row, small_deg)) == big_row[0]
            assert all(v >= 0 for v in row)


    def test_negative_multiplicity_raises(self, monkeypatch):
        # a negated rank-3 table restricts to negative multiplicities
        def negated(n):
            y, t = hob_irreducible_table(n)
            if n == 3:
                flipped = tuple(tuple(-v for v in row) for row in y.entries)
                y = dataclasses.replace(y, entries=flipped)
            return y, t

        monkeypatch.setattr(chains, "hob_irreducible_table", negated)
        hob_restriction_matrix.cache_clear()
        try:
            with pytest.raises(ExactnessError, match="restriction multiplicity is negative"):
                hob_restriction_matrix(3)
        finally:
            hob_restriction_matrix.cache_clear()


class TestChainCompose:
    def test_single_matrix(self):
        m = weyl_matrix(4)
        assert chain_compose([m]).entries == m.entries

    def test_label_mismatch(self):
        with pytest.raises(ValueError):
            chain_compose([weyl_matrix(4), weyl_matrix(4)])

    def test_label_mismatch_at_last_adjacency(self):
        # every pair is checked before the fold from the right starts
        with pytest.raises(ValueError, match="label mismatch"):
            chain_compose([weyl_matrix(6), weyl_matrix(5), weyl_matrix(4), weyl_matrix(4)])

    @pytest.mark.parametrize("n", range(3, 11))
    def test_sym_chain_is_left_fold(self, n):
        acc = weyl_matrix(n).entries
        for m in range(n - 1, 2, -1):
            acc = naive_mat_mul(acc, weyl_matrix(m).entries, len(partitions(m - 1)))
        assert sym_chain(n).entries == acc

    def test_s4_chain(self):
        assert sym_chain(4).entries == S4_TO_S2

    def test_s6_chain(self):
        assert sym_chain(6).entries == S6_TO_S2

    def test_b3_chain(self):
        assert hob_chain(3).entries == B3_TO_B1

    @pytest.mark.parametrize(
        "chain, n, message",
        [(sym_chain, 1, "n must be >= 2"), (sym_chain, 0, "n must be >= 2"),
         (hob_chain, 0, "n must be >= 1"), (hob_chain, -1, "n must be >= 1")],
    )
    def test_chain_below_its_bound(self, chain, n, message):
        with pytest.raises(ValueError, match=message):
            chain(n)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_chain_degree_preservation(self, n):
        # walking all the way down to the trivial group counts dimensions
        full = chain_compose(weyl_matrix(m) for m in range(n, 1, -1))
        x, _ = sym_irreducible_table(n)
        for row, x_row in zip(full.entries, x.entries):
            assert sum(row) == x_row[0]


class TestMethodB:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_identity_holds(self, n):
        report = method_b_verify(n)
        assert report.passed, report.line()

    @pytest.mark.slow
    def test_identity_holds_rank4(self):
        report = method_b_verify(4)
        assert report.passed, report.line()

    def test_report_serialization(self):
        d = method_b_verify(1).to_dict()
        assert d == {"check": "method-b", "n": 1, "pass": True}
