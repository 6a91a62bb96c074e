"""Classes, canonical subgroups, and character tables of the
signed-permutation (hyperoctahedral) group of rank N, order 2**N N!.

A class is labelled by two partitions, the lengths of its positive and of
its negative cycles; canonical subgroups by a partition with a 0/1 flag
per part.  The subgroup for part size p with flag 0 is the full
signed-permutation block on p letters; with flag 1 it is the index-2
block whose sign product is +1.  A flag-1 part pairs with a positive cycle
of the same length, which fixes the class column order as the mirror of
the subgroup row order and makes the transition factor unitriangular.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from hobchar.combinatorics import Partition, induced_columns, partitions, sign_flag_vectors
from hobchar.tables import CharacterTable, exact_div, weighted_gram_schmidt


def group_order(n: int) -> int:
    return 2**n * factorial(n)


@dataclass(frozen=True)
class AlphaSystem:
    """A class by its cycle lengths: ``pos`` lists the positive and ``neg``
    the negative cycles (a cycle is negative when its sign product is -1)."""

    pos: Partition
    neg: Partition

    @property
    def weight(self) -> int:
        return self.pos.weight + self.neg.weight

    @property
    def label(self) -> str:
        """Semicolon-joined ``i+:count`` / ``i-:count`` terms by ascending
        length, zero counts omitted, e.g. ``"1+:1;1-:1"``."""
        pos, neg = Counter(self.pos), Counter(self.neg)
        return ";".join(
            f"{i}{sign}:{count[i]}"
            for i in sorted(pos.keys() | neg.keys())
            for sign, count in (("+", pos), ("-", neg))
            if count[i]
        )

    def __str__(self):
        return self.label

    def class_order(self) -> int:
        """2**N N! / prod_i ((2i)**a_i a_i+! a_i-!), a_i+ and a_i- the
        numbers of positive and negative i-cycles, a_i their sum."""
        p, q = Counter(self.pos), Counter(self.neg)
        denom = 1
        for i in p.keys() | q.keys():
            denom *= (2 * i) ** (p[i] + q[i]) * factorial(p[i]) * factorial(q[i])
        return exact_div(group_order(self.weight), denom, "class order of {.label!r}", self)


@dataclass(frozen=True)
class SignedSubgroupLabel:
    """A partition with one 0/1 flag per part; names a canonical subgroup
    and, reading flag 1 as a positive cycle, a conjugacy class."""

    partition: Partition
    flags: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "flags", tuple(self.flags))
        if len(self.flags) != len(self.partition):
            raise ValueError("one flag per part required")
        if any(f not in (0, 1) for f in self.flags):
            raise ValueError("flags must be 0 or 1")
        for i in range(len(self.flags) - 1):
            if self.partition[i] == self.partition[i + 1] and self.flags[i] > self.flags[i + 1]:
                raise ValueError("flags must be non-decreasing on equal parts")

    @property
    def weight(self) -> int:
        return self.partition.weight

    @property
    def label(self) -> str:
        """Each part with a sign suffix, "+" for flag 1, e.g. ``"2+,1-"``."""
        return ",".join(
            f"{p}{'+' if f else '-'}" for p, f in zip(self.partition, self.flags)
        )

    def __str__(self):
        return self.label

    def subgroup_order(self) -> int:
        order = 1
        for p, f in zip(self.partition, self.flags):
            order *= 2 ** (p - f) * factorial(p)
        return order

    def alpha_system(self) -> AlphaSystem:
        """The paired class: each part becomes one cycle of that length,
        positive when its flag is 1."""
        pairs = tuple(zip(self.partition, self.flags))
        return AlphaSystem(
            Partition(p for p, f in pairs if f),
            Partition(p for p, f in pairs if not f),
        )


@lru_cache(maxsize=None)
def hob_subgroups(n: int) -> tuple[SignedSubgroupLabel, ...]:
    """All canonical subgroup labels: partitions in canonical order, flags
    in increasing lexicographic order within each partition."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(
        SignedSubgroupLabel(lam, flags)
        for lam in partitions(n)
        for flags in sign_flag_vectors(lam)
    )


@lru_cache(maxsize=None)
def hob_classes(n: int) -> tuple[tuple[AlphaSystem, int], ...]:
    """All classes with orders, in the mirror of the subgroup row order
    (identity class first)."""
    out = []
    for label in reversed(hob_subgroups(n)):
        alpha = label.alpha_system()
        out.append((alpha, alpha.class_order()))
    return tuple(out)


@lru_cache(maxsize=None)
def hob_induced_table(n: int) -> CharacterTable:
    """The induced table: rows over canonical subgroups, columns over
    classes, computed a column at a time."""
    classes = hob_classes(n)
    labels = hob_subgroups(n)
    subgroups = [(label.partition, label.flags) for label in labels]
    columns = induced_columns([(a.pos, a.neg) for a, _ in classes], subgroups)
    return CharacterTable(
        row_labels=labels,
        col_labels=tuple(a for a, _ in classes),
        col_class_orders=tuple(order for _, order in classes),
        entries=tuple(zip(*columns)),
        group_order=group_order(n),
    )


@lru_cache(maxsize=None)
def hob_irreducible_table(n: int):
    """The irreducible table and unitriangular factor for rank n.

    Irreducible rows are identified by the subgroup label whose induced
    row produced them during the orthonormalization.
    """
    return weighted_gram_schmidt(hob_induced_table(n))
