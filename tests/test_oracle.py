import dataclasses
import itertools
import random
import re
from collections import Counter
from types import SimpleNamespace

import pytest

from hobchar.combinatorics import Partition
from hobchar.hyperoct import (
    AlphaSystem,
    SignedSubgroupLabel,
    group_order,
    hob_classes,
    hob_induced_table,
    hob_subgroups,
)
from hobchar.embedding import fuse_class
from hobchar.oracle import (
    conjugate,
    enumerate_group,
    oracle_agreement,
    oracle_class_data,
    oracle_induced_char,
    oracle_restriction,
    subgroup_elements,
    to_ambient_permutation,
)
from hobchar import oracle
from hobchar.reduction import reduce_irreducible
from hobchar.tables import ExactnessError

from _oracles import class_data_by_closure, identity, induced_char_by_conjugation, inverse, mul


def sub(parts, flags):
    return SignedSubgroupLabel(Partition(tuple(parts)), tuple(flags))


class TestSignedPermutation:
    def test_group_sizes(self):
        assert len(enumerate_group(1)) == 2
        assert len(enumerate_group(2)) == 8
        assert len(enumerate_group(3)) == 48

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            enumerate_group(7)
        with pytest.raises(ValueError):
            enumerate_group(0)

    def test_identity_and_inverse(self):
        e = identity(3)
        for g in enumerate_group(3)[::7]:
            assert mul(g, inverse(g)) == e
            assert mul(inverse(g), g) == e

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_conjugate_is_the_triple_product(self, n):
        # the general conjugation, against which the class closure's
        # per-generator maps are checked, is x * g * x^-1
        elements = enumerate_group(n)
        for g in elements:
            for x in elements:
                assert conjugate(g, x) == mul(mul(x, g), inverse(x))

    @pytest.mark.parametrize("n", (4, 5))
    def test_conjugate_is_the_triple_product_sampled(self, n):
        rng = random.Random(20261018)
        elements = enumerate_group(n)
        for _ in range(500):
            g, x = rng.choice(elements), rng.choice(elements)
            assert conjugate(g, x) == mul(mul(x, g), inverse(x))

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_generator_conjugations_are_conjugate(self, n):
        # the class closure conjugates by each generator through its own map
        generators = oracle.coxeter_generators(n)
        maps = oracle.generator_conjugations(n)
        assert len(maps) == len(generators) == n
        for s, by_s in zip(generators, maps):
            for g in enumerate_group(n):
                assert by_s(g) == conjugate(g, s)

    def test_conjugate_rejects_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            conjugate(identity(2), identity(3))

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_ambient_map_is_homomorphism(self, n):
        elements = enumerate_group(n)
        for a in elements:
            for b in elements:
                left = to_ambient_permutation(mul(a, b), n)
                composed = tuple(
                    to_ambient_permutation(a, n)[v] for v in to_ambient_permutation(b, n)
                )
                assert left == composed

    @pytest.mark.parametrize("n", (4, pytest.param(5, marks=pytest.mark.slow)))
    def test_ambient_map_is_homomorphism_sampled(self, n):
        rng = random.Random(20260811)
        elements = enumerate_group(n)
        for _ in range(500):
            a, b = rng.choice(elements), rng.choice(elements)
            left = to_ambient_permutation(mul(a, b), n)
            composed = tuple(
                to_ambient_permutation(a, n)[v] for v in to_ambient_permutation(b, n)
            )
            assert left == composed

    def test_identity_maps_to_identity(self):
        assert to_ambient_permutation(identity(3), 3) == tuple(range(6))

    def test_single_flip_is_transposition(self):
        g = ((1, 2), (-1, 1))
        assert oracle._ambient_lengths(g, 2) == (2, 1, 1)

    def test_negative_two_cycle_is_four_cycle(self):
        g = ((2, 1), (1, -1))
        assert oracle._signed_lengths(g) == ((), (2,))
        assert oracle._ambient_lengths(g, 2) == (4,)


class TestClassData:
    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
    def test_generators_generate_the_group(self, n):
        # closing {identity} under right multiplication by the generators
        # reaches every enumerated element and nothing else, so an orbit
        # under conjugation by them is a whole conjugacy class
        generators = oracle.coxeter_generators(n)
        assert len(generators) == n
        seen = {identity(n)}
        queue = [identity(n)]
        for h in queue:
            for s in generators:
                c = mul(h, s)
                if c not in seen:
                    seen.add(c)
                    queue.append(c)
        assert seen == set(enumerate_group(n))

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_matches_formula_classes(self, n):
        data = oracle_class_data(n)
        formula = dict((a.label, o) for a, o in hob_classes(n))
        assert {c.alpha.label for c in data} == set(formula)
        for c in data:
            assert c.size == formula[c.alpha.label]
            assert fuse_class(c.alpha, n).label == c.ambient.label

    def test_rank2_sizes(self):
        assert sorted(c.size for c in oracle_class_data(2)) == [1, 1, 2, 2, 2]

    def test_rank1(self):
        data = oracle_class_data(1)
        assert len(data) == 2
        assert all(c.size == 1 for c in data)

    def test_representatives_deterministic_and_minimal(self):
        first = [c.representative for c in oracle_class_data(3)]
        oracle_class_data.cache_clear()
        assert [c.representative for c in oracle_class_data(3)] == first
        for cls in oracle_class_data(3):
            g = cls.representative
            members = {mul(mul(x, g), inverse(x)) for x in enumerate_group(3)}
            assert g == min(members)

    def test_matches_formula_classes_rank4(self):
        data = oracle_class_data(4)
        formula = dict((a.label, o) for a, o in hob_classes(4))
        assert {c.alpha.label for c in data} == set(formula)
        for c in data:
            assert c.size == formula[c.alpha.label]
            assert fuse_class(c.alpha, 4).label == c.ambient.label

    @pytest.mark.parametrize("n", (1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)))
    def test_matches_conjugation_closure(self, n):
        got = [
            (c.size, c.representative, (c.alpha.pos, c.alpha.neg), c.ambient)
            for c in oracle_class_data(n)
        ]
        assert got == class_data_by_closure(n)

    def test_varying_ambient_type_raises_exactness_error(self, monkeypatch):
        # the two single flips (-1, 1) and (1, -1) form one rank-2 class;
        # give only the first an ambient 4-cycle
        real = oracle._ambient_lengths

        def uneven(g, n):
            return (4,) if g[1][0] == -1 else real(g, n)

        monkeypatch.setattr(oracle, "_ambient_lengths", uneven)
        oracle_class_data.cache_clear()
        try:
            with pytest.raises(ExactnessError, match="not constant on the class") as excinfo:
                oracle_class_data(2)
        finally:
            oracle_class_data.cache_clear()
        # the report names every invariant by its label, as text
        assert str(excinfo.value) == (
            "class of ((1, 2), (-1, 1)): signed cycles ['1+:1;1-:1'] and "
            "ambient cycle type ['2,1,1', '4'] not constant on the class"
        )

    def test_varying_signed_type_raises_exactness_error(self, monkeypatch):
        # in the same class of single flips, give only the flip at point 1
        # one positive 2-cycle
        real = oracle._signed_lengths

        def uneven(g):
            return ((2,), ()) if g == ((1, 2), (-1, 1)) else real(g)

        monkeypatch.setattr(oracle, "_signed_lengths", uneven)
        oracle_class_data.cache_clear()
        try:
            with pytest.raises(ExactnessError, match="not constant on the class") as excinfo:
                oracle_class_data(2)
        finally:
            oracle_class_data.cache_clear()
        assert str(excinfo.value) == (
            "class of ((1, 2), (-1, 1)): signed cycles ['1+:1;1-:1', '2+:1'] and "
            "ambient cycle type ['2,1,1'] not constant on the class"
        )

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
    def test_class_labels_are_built_from_the_length_tuples(self, n):
        # one label per class, equal to the length tuples of the
        # representative; below rank 4 to those of every member
        for cls in oracle_class_data(n):
            assert type(cls.alpha) is AlphaSystem
            assert type(cls.alpha.pos) is Partition and type(cls.alpha.neg) is Partition
            assert type(cls.ambient) is Partition
            for g in cls.members if n <= 3 else (cls.representative,):
                assert (cls.alpha.pos, cls.alpha.neg) == oracle._signed_lengths(g)
                assert cls.ambient == oracle._ambient_lengths(g, n)

    def test_conjugate_outside_the_enumeration_raises_exactness_error(self, monkeypatch):
        # drop the single flip at point 1: conjugating the flip at point 2
        # by the swap (1, 2) reaches it, and it was never enumerated
        flip = ((1, 2), (-1, 1))
        kept = tuple(g for g in enumerate_group(2) if g != flip)
        monkeypatch.setattr(oracle, "enumerate_group", lambda n: kept)
        oracle_class_data.cache_clear()
        try:
            with pytest.raises(ExactnessError, match="not in the enumerated group"):
                oracle_class_data(2)
        finally:
            oracle_class_data.cache_clear()

    def test_missing_central_element_raises_exactness_error(self, monkeypatch):
        # the identity is a class of its own, so no conjugate reaches it;
        # the element count still falls short of 2**2 * 2!
        kept = enumerate_group(2)[1:]
        assert identity(2) not in kept
        monkeypatch.setattr(oracle, "enumerate_group", lambda n: kept)
        oracle_class_data.cache_clear()
        try:
            with pytest.raises(ExactnessError, match=re.escape("7 elements, not 2**2 * 2!")):
                oracle_class_data(2)
        finally:
            oracle_class_data.cache_clear()

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_any_missing_element_raises_exactness_error(self, monkeypatch, n):
        full = enumerate_group(n)
        oracle_class_data.cache_clear()
        try:
            for drop in range(len(full)):
                kept = full[:drop] + full[drop + 1 :]
                monkeypatch.setattr(oracle, "enumerate_group", lambda n: kept)
                with pytest.raises(ExactnessError):
                    oracle_class_data(n)
        finally:
            oracle_class_data.cache_clear()

    def test_class_size_mismatch_raises_exactness_error(self, monkeypatch):
        # a repeated element is absorbed by its class, so the class sizes
        # fall one short of the enumeration
        full = enumerate_group(2)
        monkeypatch.setattr(oracle, "enumerate_group", lambda n: full + full[:1])
        oracle_class_data.cache_clear()
        try:
            with pytest.raises(ExactnessError, match="class sizes sum to 8, not 9"):
                oracle_class_data(2)
        finally:
            oracle_class_data.cache_clear()


class TestInducedCharacters:
    def test_subgroup_orders(self):
        for n in (2, 3):
            for label in hob_subgroups(n):
                assert len(subgroup_elements(n, label)) == label.subgroup_order()

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_canonical_subgroups_are_subgroups(self, n):
        # the fixed-coset counts divide by |H|, which is only a coset count
        # when H is a subgroup of the enumerated group
        group = set(enumerate_group(n))
        for label in hob_subgroups(n):
            elements = subgroup_elements(n, label)
            members = set(elements)
            assert identity(n) in members
            assert len(members) == len(elements)
            assert members <= group
            assert all(mul(a, b) in members for a in members for b in members)

    def test_subgroup_order_mismatch_raises_exactness_error(self, monkeypatch):
        # a block that loses its first permutation loses 4 of the 8 elements
        lossy = SimpleNamespace(
            permutations=lambda points: list(itertools.permutations(points))[1:],
            product=itertools.product,
        )
        monkeypatch.setattr(oracle, "itertools", lossy)
        with pytest.raises(ExactnessError, match="4 elements, expected 8"):
            subgroup_elements(2, sub((2,), (0,)))

    def test_whole_group_row(self):
        values = oracle_induced_char(2, sub((2,), (0,)))
        assert values == (1, 1, 1, 1, 1)

    def test_identity_gives_index(self):
        for n in (2, 3):
            data = oracle_class_data(n)
            identity_pos = next(
                i for i, c in enumerate(data) if c.size == 1 and c.alpha.pos == Partition((1,) * n)
            )
            for label in hob_subgroups(n):
                values = oracle_induced_char(n, label)
                assert values[identity_pos] == group_order(n) // label.subgroup_order()

    @pytest.mark.parametrize("n", (2, 3))
    def test_matches_formula_table(self, n):
        table = hob_induced_table(n)
        col_of = {a.label: c for c, (a, _) in enumerate(hob_classes(n))}
        for i, label in enumerate(table.row_labels):
            values = oracle_induced_char(n, label)
            for cls, value in zip(oracle_class_data(n), values):
                assert value == table.entries[i][col_of[cls.alpha.label]]

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_matches_per_label_conjugation(self, n):
        for label in hob_subgroups(n):
            assert oracle_induced_char(n, label) == induced_char_by_conjugation(n, label)

    @pytest.mark.parametrize("n", (1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)))
    def test_conjugate_counts_cover_the_group_once_per_class(self, n):
        # the member sets partition the group, one set of cls.size elements per
        # class, and conjugating a representative by every element gives
        # each member |G| / |class| times: the count oracle_induced_char
        # multiplies by
        elements = enumerate_group(n)
        data = oracle_class_data(n)
        assert sorted(g for cls in data for g in cls.members) == sorted(elements)
        for cls in data:
            assert len(cls.members) == cls.size
            counts = Counter(conjugate(cls.representative, x) for x in elements)
            assert set(counts) == cls.members
            assert set(counts.values()) == {len(elements) // cls.size}

    def test_non_subgroup_raises_exactness_error(self, monkeypatch):
        # five of the eight rank-2 elements, identity included: the identity
        # class then has 8 hits, which 5 does not divide
        five = enumerate_group(2)[:5]
        monkeypatch.setattr(oracle, "subgroup_elements", lambda n, label: five)
        with pytest.raises(ExactnessError, match=r"fixed-coset count .* is not an exact integer"):
            oracle_induced_char(2, sub((2,), (0,)))


class TestRestriction:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_matches_formula(self, n):
        assert oracle_restriction(n).entries == reduce_irreducible(n).entries

    def test_matches_formula_rank4(self):
        assert oracle_restriction(4).entries == reduce_irreducible(4).entries

    def test_missing_element_raises_exactness_error(self, monkeypatch):
        full = enumerate_group(2)
        monkeypatch.setattr(oracle, "enumerate_group", lambda n: full[1:])
        with pytest.raises(ExactnessError, match=r"restriction multiplicity .* is not an exact integer"):
            oracle_restriction(2)


class TestAgreement:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_agreement_reports_pass(self, n):
        report = oracle_agreement(n)
        assert report.passed, report.line()

    def test_agreement_rank4(self):
        report = oracle_agreement(4)
        assert report.passed, report.line()

    def test_agreement_rank5_class_level(self):
        # coset brute force stops at rank 4; classes, sizes and fusion
        # still check out over all 3840 elements
        report = oracle_agreement(5)
        assert report.passed, report.line()
        assert report.note == "classes, sizes and fusion only at this rank"

    def test_missing_class_report(self, monkeypatch):
        real = oracle.oracle_class_data
        monkeypatch.setattr(oracle, "oracle_class_data", lambda n: real(n)[:-1])
        report = oracle_agreement(2)
        assert not report.passed
        assert report.first_mismatch == {
            "row_label": "class-count",
            "col_label": "-",
            "lhs": 5,
            "rhs": 4,
        }

    def test_restriction_mismatch_report(self, monkeypatch):
        real = oracle_restriction(2)
        entries = [list(row) for row in real.entries]
        entries[1][2] += 1
        bumped = dataclasses.replace(real, entries=entries)
        monkeypatch.setattr(oracle, "oracle_restriction", lambda n: bumped)
        report = oracle_agreement(2)
        assert not report.passed
        assert report.first_mismatch == {
            "row_label": "3,1",
            "col_label": "1-,1-",
            "lhs": 1,
            "rhs": 2,
        }

    @pytest.mark.slow
    def test_agreement_rank6_class_level(self):
        # 65 classes over all 46080 elements
        report = oracle_agreement(6)
        assert report.passed, report.line()
        assert report.note == "classes, sizes and fusion only at this rank"
