"""The rank-N signed-permutation group inside S_2N: class fusion,
intersection orders, the coset permutation character, and re-columned
("modified") character tables.

A signed permutation acts on the 2N points +-1..+-N; a positive i-cycle
becomes a pair of i-cycles there and a negative i-cycle a single
2i-cycle.  This constructive rule is exact (and oracle-verified); class
splitting and omission fall out of it rather than from any divisibility
heuristic.
"""

from __future__ import annotations

from math import factorial

from hobchar.combinatorics import Partition
from hobchar.hyperoct import AlphaSystem, group_order, hob_classes
from hobchar.symmetric import sym_classes, sym_induced_table, sym_irreducible_table
from hobchar.tables import CharacterTable, ExactnessError, exact_div


def fuse_class(alpha: AlphaSystem, n: int) -> Partition:
    """Ambient cycle type of a class: positive i-cycles contribute two
    i-cycles each, negative i-cycles one 2i-cycle each."""
    if alpha.weight != n:
        raise ValueError(f"class {alpha.label!r} does not have weight {n}")
    lengths = [*alpha.pos, *alpha.pos, *(2 * i for i in alpha.neg)]
    return Partition(sorted(lengths, reverse=True))


def fusion_map(n: int):
    """The class fusion for rank ``n`` as the pair ``(images,
    intersection_orders)``: ``images[k]`` is the ambient cycle type of
    subgroup class ``k`` (in class-column order), and
    ``intersection_orders[c]`` is the total size of the subgroup classes
    landing on ambient class ``c`` (the order of the ambient class's
    intersection with the subgroup)."""
    sym_cols = sym_classes(2 * n)
    col_index = {ct: c for c, (ct, _) in enumerate(sym_cols)}
    images = []
    inter = [0] * len(sym_cols)
    for alpha, order in hob_classes(n):
        image = fuse_class(alpha, n)
        images.append(image)
        inter[col_index[image]] += order
    if sum(inter) != group_order(n):
        raise ExactnessError(
            f"intersection orders sum to {sum(inter)}, not the group order {group_order(n)}"
        )
    return tuple(images), tuple(inter)


def intersection_orders(n: int) -> tuple[int, ...]:
    """For each class of S_2N, the number of its elements lying in the
    embedded rank-n signed-permutation group (zero when the class misses
    it)."""
    return fusion_map(n)[1]


def permutation_character_F(n: int) -> tuple[int, ...]:
    """Character of S_2N acting on the cosets of the embedded subgroup:
    per class, (2N)!/(2**N N!) * intersection_order / class_order, always
    an exact integer.  Its identity value is the double factorial
    (2N-1)(2N-3)...1."""
    inter = intersection_orders(n)
    index = exact_div(factorial(2 * n), group_order(n), "subgroup index")
    return tuple(
        exact_div(index * m, class_order, "coset character value")
        for (_, class_order), m in zip(sym_classes(2 * n), inter)
    )


def recolumn(table: CharacterTable, images, n: int) -> CharacterTable:
    """Re-column ``table`` over the classes of the rank-n group.

    ``images[k]`` is the column label of ``table`` that subgroup class
    ``k`` lands on.  Each subgroup class contributes one column carrying
    the table's value there, so classes of ``table`` meeting the subgroup
    in several classes are split and classes missing it are dropped.
    Column class orders become the subgroup's class orders.
    """
    col_index = {label: c for c, label in enumerate(table.col_labels)}
    picks = [col_index[image] for image in images]
    classes = hob_classes(n)
    return CharacterTable(
        row_labels=table.row_labels,
        col_labels=tuple(alpha for alpha, _ in classes),
        col_class_orders=tuple(order for _, order in classes),
        entries=[[row[c] for c in picks] for row in table.entries],
        group_order=group_order(n),
    )


def modified_tables(n: int):
    """(induced', irreducible') over the subgroup's classes, sharing the
    ambient transition matrix: both S_2N tables re-columned along one
    class fusion."""
    images, _ = fusion_map(n)
    x, _ = sym_irreducible_table(2 * n)
    return recolumn(sym_induced_table(2 * n), images, n), recolumn(x, images, n)
