import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hobchar.combinatorics import (
    Partition,
    partitions,
    sign_flag_vectors,
)

from _oracles import even_partition_count, partition_count


def P(*parts):
    return Partition(tuple(parts))


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))
        assert P(3, 1).weight == 4
        assert P(4, 2, 1).label == "4,2,1"
        assert Partition(()).label == ""

    def test_equals_and_hashes_as_its_tuple(self):
        lam = P(3, 1)
        assert lam == (3, 1) and (3, 1) == lam
        assert hash(lam) == hash((3, 1))
        assert {lam: "found"}[(3, 1)] == "found"
        assert {(3, 1): "found"}[lam] == "found"
        assert isinstance(lam, tuple)
        assert len(lam) == 2 and lam[0] == 3 and list(lam) == [3, 1]

    @pytest.mark.parametrize(
        "parts, message",
        [
            ((2, 0), "parts must be positive integers: (2, 0)"),
            ((2, 1.0), "parts must be positive integers: (2, 1.0)"),
            ((1, 2), "parts must be weakly decreasing: (1, 2)"),
        ],
    )
    def test_validation_messages(self, parts, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Partition(parts)

    def test_no_attributes(self):
        lam = P(2, 1)
        assert not hasattr(lam, "__dict__")
        assert not hasattr(lam, "parts")
        with pytest.raises(AttributeError):
            lam.parts = (2, 1)
        with pytest.raises(AttributeError):
            lam.weight = 3

    def test_text_forms(self):
        assert str(P(4, 2, 1)) == "4,2,1" == P(4, 2, 1).label
        assert str(P(1)) == "1" and str(Partition(())) == ""
        assert f"{P(2, 2)}" == "2,2"

    def test_order_of_four(self):
        assert list(partitions(4)) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_zero(self):
        assert partitions(0) == (Partition(()),)

    def test_six(self):
        ps = partitions(6)
        assert len(ps) == 11
        assert ps[0] == P(6)
        assert ps[-1] == P(1, 1, 1, 1, 1, 1)

    @pytest.mark.parametrize("n", range(15))
    def test_count_and_strict_lex_decrease(self, n):
        ps = partitions(n)
        assert len(ps) == partition_count(n)
        for a, b in zip(ps, ps[1:]):
            assert a > b

    @given(st.integers(min_value=0, max_value=12))
    def test_weights(self, n):
        assert all(p.weight == n for p in partitions(n))


class TestSignFlags:
    def test_equal_parts(self):
        assert sign_flag_vectors(P(1, 1)) == ((0, 0), (0, 1), (1, 1))

    def test_distinct_parts(self):
        assert sign_flag_vectors(P(2, 1)) == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_single_part(self):
        assert sign_flag_vectors(P(2)) == ((0,), (1,))

    @given(st.integers(min_value=1, max_value=7))
    @settings(max_examples=30)
    def test_count_and_monotonicity(self, n):
        for lam in partitions(n):
            flags = sign_flag_vectors(lam)
            assert list(flags) == sorted(flags)
            expected = 1
            mult = {}
            for part in lam:
                mult[part] = mult.get(part, 0) + 1
            for m in mult.values():
                expected *= m + 1
            assert len(flags) == expected
            for f in flags:
                for i in range(len(f) - 1):
                    if lam[i] == lam[i + 1]:
                        assert f[i] <= f[i + 1]

    @pytest.mark.parametrize("n", range(15))
    def test_matches_filtered_candidates(self, n):
        # the definition: every 0/1 vector in lexicographic order, kept when
        # it does not decrease along a run of equal parts
        for lam in partitions(n):
            expected = tuple(
                cand
                for cand in itertools.product((0, 1), repeat=len(lam))
                if all(cand[i] <= cand[i + 1] for i in range(len(lam) - 1) if lam[i] == lam[i + 1])
            )
            assert sign_flag_vectors(lam) == expected

    def test_long_run_is_not_filtered_from_all_vectors(self):
        # 2**60 candidates could not be enumerated; the run has 61 vectors
        flags = sign_flag_vectors(P(*(1,) * 60))
        assert len(flags) == 61
        assert flags[0] == (0,) * 60 and flags[-1] == (1,) * 60


class TestEvenPartitionCount:
    def test_known_values(self):
        assert even_partition_count(8) == 5
        assert even_partition_count(2) == 1
        assert even_partition_count(12) == 11

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            even_partition_count(7)
        with pytest.raises(ValueError):
            even_partition_count(0)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_halving(self, k):
        assert even_partition_count(2 * k) == len(partitions(k))
