"""Conjugacy classes, induced character tables, and irreducible character
tables of the symmetric group S_n.

Rows are indexed by partitions of n (decreasing lexicographic), columns by
cycle types in the mirrored order (identity class first), which makes the
transition factor of the orthonormalization lower unitriangular.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from hobchar.combinatorics import Partition, induced_value, partitions
from hobchar.tables import CharacterTable, exact_div, weighted_gram_schmidt


@dataclass(frozen=True)
class CycleType:
    """Exponent vector of a cycle structure; ``exponents[i-1]`` counts the
    i-cycles."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(self.exponents)
        while exps and exps[-1] == 0:
            exps = exps[:-1]
        object.__setattr__(self, "exponents", exps)
        if any(e < 0 for e in self.exponents):
            raise ValueError("cycle counts must be non-negative")

    @property
    def weight(self) -> int:
        return sum((i + 1) * e for i, e in enumerate(self.exponents))

    @classmethod
    def from_partition(cls, p: Partition) -> "CycleType":
        exps = [0] * (p[0] if len(p) else 0)
        for part in p:
            exps[part - 1] += 1
        return cls(tuple(exps))

    def as_partition(self) -> Partition:
        lengths = []
        for i, e in enumerate(self.exponents):
            lengths.extend([i + 1] * e)
        return Partition(tuple(sorted(lengths, reverse=True)))

    @property
    def label(self) -> str:
        """Cycle lengths printed like a partition, e.g. ``"2,1,1"``."""
        return self.as_partition().label

    def __str__(self):
        return self.label

    def class_order(self) -> int:
        """Order of the conjugacy class in S_weight:
        n! / prod_i (i**e_i * e_i!)."""
        n = self.weight
        denom = 1
        for i, e in enumerate(self.exponents):
            denom *= (i + 1) ** e * factorial(e)
        return exact_div(factorial(n), denom, f"class order of {self.label!r}")


@lru_cache(maxsize=None)
def sym_classes(n: int) -> tuple[tuple[CycleType, int], ...]:
    """All classes of S_n with orders, identity first (mirror of the
    partition row order)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for p in reversed(partitions(n)):
        ct = CycleType.from_partition(p)
        out.append((ct, ct.class_order()))
    return tuple(out)


def sym_induced_char(lam: Partition, cycle_type: CycleType) -> int:
    """Value at ``cycle_type`` of the character induced from the identity of
    the parabolic (Young-type) subgroup for ``lam``."""
    if lam.weight != cycle_type.weight:
        raise ValueError(
            f"weight mismatch: partition {lam.label!r} has weight {lam.weight}, "
            f"class {cycle_type.label!r} has weight {cycle_type.weight}"
        )
    return induced_value(cycle_type.exponents, lam.parts)


@lru_cache(maxsize=None)
def sym_induced_table(n: int) -> CharacterTable:
    """The induced table: rows over partitions of n, columns over classes."""
    classes = sym_classes(n)
    rows = tuple(
        tuple(induced_value(ct.exponents, lam.parts) for ct, _ in classes)
        for lam in partitions(n)
    )
    return CharacterTable(
        row_labels=partitions(n),
        col_labels=tuple(ct for ct, _ in classes),
        col_class_orders=tuple(order for _, order in classes),
        entries=rows,
        group_order=factorial(n),
    )


@lru_cache(maxsize=None)
def sym_irreducible_table(n: int):
    """The irreducible character table and the unitriangular transition
    factor, obtained by exact weighted orthonormalization of the induced
    table."""
    return weighted_gram_schmidt(sym_induced_table(n))
