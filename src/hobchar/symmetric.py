"""Conjugacy classes, induced character tables, and irreducible character
tables of the symmetric group S_n.

A class of S_n is labelled by the :class:`Partition` of its cycle lengths.
Rows are indexed by partitions of n (decreasing lexicographic), columns by
cycle types in the mirrored order (identity class first), which makes the
transition factor of the orthonormalization lower unitriangular.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial

from hobchar.combinatorics import Partition, induced_columns, partitions
from hobchar.tables import CharacterTable, exact_div, weighted_gram_schmidt


def class_order(cycle_type: Partition) -> int:
    """Order of the class of S_n with these cycle lengths:
    n! / prod_i (i**m_i m_i!), m_i the number of i-cycles."""
    denom = 1
    for i, m in Counter(cycle_type).items():
        denom *= i**m * factorial(m)
    return exact_div(
        factorial(cycle_type.weight), denom, "class order of {.label!r}", cycle_type
    )


@lru_cache(maxsize=None)
def sym_classes(n: int) -> tuple[tuple[Partition, int], ...]:
    """All classes of S_n with orders, identity first (mirror of the
    partition row order)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple((p, class_order(p)) for p in reversed(partitions(n)))


@lru_cache(maxsize=None)
def sym_induced_table(n: int) -> CharacterTable:
    """The induced table: rows over partitions of n, columns over classes,
    computed a column at a time."""
    classes = sym_classes(n)
    rows = [(lam, (0,) * len(lam)) for lam in partitions(n)]
    columns = induced_columns([(ct, ()) for ct, _ in classes], rows)
    return CharacterTable(
        row_labels=partitions(n),
        col_labels=tuple(ct for ct, _ in classes),
        col_class_orders=tuple(order for _, order in classes),
        entries=tuple(zip(*columns)),
        group_order=factorial(n),
    )


@lru_cache(maxsize=None)
def sym_irreducible_table(n: int):
    """The irreducible character table and the unitriangular transition
    factor, obtained by exact weighted orthonormalization of the induced
    table."""
    return weighted_gram_schmidt(sym_induced_table(n))
