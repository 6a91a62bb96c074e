"""Brute-force ground truth for small ranks.

Everything here works on explicitly enumerated signed permutations, each
one a ``(perm, signs)`` pair of tuples: ``perm[i-1]`` is the image of
point i and ``signs[i-1]`` the sign at point i.  Conjugacy classes are
orbits under conjugation by the Coxeter generators, induced characters
come from counting fixed cosets, and restriction multiplicities from
summing over all elements.  It deliberately shares no machinery with the
formula-based modules beyond the label types, and it must stay dumb: its
value is being obviously correct, not fast.  It is still brute force over
every element; it only avoids repeating work.  Each class is closed by
conjugating its members by the n generators rather than by every group
element: every conjugate is one pair from one pass over the points, and
it is looked up among the enumerated elements in no class yet, so a
conjugate outside the enumerated group raises ``ExactnessError``.  The
two class invariants are read off every element as plain tuples of cycle
lengths, and the ``AlphaSystem`` and ``Partition`` labels are built once
per class.  Each class keeps its members, which every subgroup's
fixed-coset count then reads.  A canonical subgroup's element
concatenates one (perm, signs) pair per block, each block's pairs built
straight from ``itertools``.  The restriction takes each irreducible row's
values at every element once, as a flat list, and each multiplicity is
one sum of products of two such lists.  Rank is capped at ``MAX_RANK``
(2**6 * 6! = 46080 elements); the coset and restriction brute force stop
at ``COSET_MAX_RANK``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

from hobchar.combinatorics import Partition
from hobchar.hyperoct import AlphaSystem, SignedSubgroupLabel
from hobchar.reduction import BranchingMatrix
from hobchar.tables import ExactnessError, exact_div

MAX_RANK = 6
COSET_MAX_RANK = 4  # fixed-coset counts and restriction by summation

# a signed permutation: (perm, signs), as in the module docstring
Element = tuple[tuple[int, ...], tuple[int, ...]]


def _signed_lengths(g: Element) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lengths of the positive and of the negative cycles of ``g``, each
    weakly decreasing, read off in one walk over its cycles."""
    perm, signs = g
    seen = [False] * len(perm)
    pos, neg = [], []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, sign, a = 0, 1, start
        while not seen[a]:
            seen[a] = True
            length += 1
            sign *= signs[a]
            a = perm[a] - 1
        (pos if sign == 1 else neg).append(length)
    pos.sort(reverse=True)
    neg.sort(reverse=True)
    return tuple(pos), tuple(neg)


def conjugate(g: Element, x: Element) -> Element:
    """x * g * x^-1, in one pass over the points.

    As a signed map g sends i to f(p(i)) p(i); with c = x g x^-1,
    c(x(i)) = x(g(i)) gives c(p_x(i)) = s * p_x(p_g(i)), where s is the
    product of the signs x puts on p_x(i) and p_x(p_g(i)) and the sign g
    puts on p_g(i).
    """
    g_perm, g_signs = g
    x_perm, x_signs = x
    n = len(g_perm)
    if len(x_perm) != n:
        raise ValueError("rank mismatch")
    perm = [0] * n
    signs = [0] * n
    for a, j in zip(x_perm, g_perm):
        b = x_perm[j - 1]
        perm[a - 1] = b
        signs[b - 1] = x_signs[a - 1] * g_signs[j - 1] * x_signs[b - 1]
    return (tuple(perm), tuple(signs))


def _check_rank(n: int, cap: int = MAX_RANK):
    if not 1 <= n <= cap:
        raise ValueError(f"oracle rank must be between 1 and {cap}, got {n}")


@lru_cache(maxsize=None)
def enumerate_group(n: int) -> tuple[Element, ...]:
    """All 2**n n! elements, in deterministic (perm, signs) order."""
    _check_rank(n)
    return tuple(
        (perm, signs)
        for perm in itertools.permutations(range(1, n + 1))
        for signs in itertools.product((1, -1), repeat=n)
    )


def to_ambient_permutation(g: Element, n: int) -> tuple[int, ...]:
    """Image of ``g`` on the 2n symbols ordered (+1..+n, -1..-n).

    Returned as a tuple of image positions (0-based): position i < n is
    symbol +(i+1), position n+i is -(i+1).  g(+i) = f(p(i)) * p(i) and
    g(-i) = -g(+i), which makes the map a homomorphism.
    """
    perm, signs = g
    if len(perm) != n:
        raise ValueError("rank mismatch")
    plus = [j - 1 if signs[j - 1] == 1 else n + j - 1 for j in perm]
    # g(-i) = -g(+i), and the position of -x is n places from that of +x
    return (*plus, *[(v + n) % (2 * n) for v in plus])


def _ambient_lengths(g: Element, n: int) -> tuple[int, ...]:
    """Cycle lengths of the ambient image of ``g``, weakly decreasing;
    an independent cycle count."""
    images = to_ambient_permutation(g, n)
    seen = [False] * (2 * n)
    lengths = []
    for start in range(2 * n):
        if seen[start]:
            continue
        length = 0
        a = start
        while not seen[a]:
            seen[a] = True
            length += 1
            a = images[a]
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


@dataclass(frozen=True)
class OracleClass:
    alpha: AlphaSystem
    size: int
    representative: Element
    ambient: Partition
    members: frozenset[Element] = field(repr=False)  # every element of the class


def coxeter_generators(n: int) -> tuple[Element, ...]:
    """The n Coxeter generators: the sign flip at point 1 and the n - 1
    adjacent transpositions (i, i + 1).  Each is its own inverse."""
    flip = (tuple(range(1, n + 1)), (-1,) + (1,) * (n - 1))
    swaps = []
    for i in range(1, n):
        perm = list(range(1, n + 1))
        perm[i - 1], perm[i] = i + 1, i
        swaps.append((tuple(perm), (1,) * n))
    return (flip, *swaps)


@lru_cache(maxsize=None)
def oracle_class_data(n: int) -> tuple[OracleClass, ...]:
    """Conjugacy classes as orbits under conjugation by the generators.

    Every element is enumerated.  The first element not yet in a class
    starts a new one, which is closed breadth first: each member found is
    conjugated by each Coxeter generator, every other member is the result
    of such an explicit conjugation, and each new conjugate must be one of
    the enumerated elements in no class yet.  The generators generate the
    group, so the orbit is the whole class.  Classes are ordered by first
    occurrence in the element enumeration; the representative is the
    lexicographically minimal member, and the members are kept for the
    fixed-coset counts.  The signed cycle lengths and the ambient cycle
    lengths are read off every member as tuples and must be constant on
    the class; the class's two labels are built from them once.  The class
    sizes must sum to the 2**n n! elements enumerated.
    """
    _check_rank(n)
    elements = enumerate_group(n)
    # every element in no class yet; a closed class is closed under the
    # generators, so a conjugate missing here is not in the enumeration
    unassigned = set(elements)
    generators = coxeter_generators(n)
    out = []
    for g in elements:
        if g not in unassigned:
            continue
        unassigned.remove(g)
        members = {g}
        queue = [g]
        for h in queue:  # grows as the orbit is found: breadth first
            for s in generators:
                c = conjugate(h, s)
                if c in members:
                    continue
                try:
                    unassigned.remove(c)
                except KeyError:
                    raise ExactnessError(
                        f"conjugate {c!r} of {h!r} by {s!r} is not in the enumerated group"
                    ) from None
                members.add(c)
                queue.append(c)
        rep = min(members)
        signed = {_signed_lengths(c) for c in members}
        ambients = {_ambient_lengths(c, n) for c in members}
        if len(signed) != 1 or len(ambients) != 1:
            alphas = {AlphaSystem(*map(Partition, lengths)) for lengths in signed}
            ambient_types = {Partition(a) for a in ambients}
            raise ExactnessError(
                f"class of {rep!r}: signed cycles {sorted(map(str, alphas))} and "
                f"ambient cycle type {sorted(map(str, ambient_types))} not constant on the class"
            )
        (lengths,), (ambient,) = signed, ambients
        out.append(
            OracleClass(
                alpha=AlphaSystem(*map(Partition, lengths)),
                size=len(members),
                representative=rep,
                ambient=Partition(ambient),
                members=frozenset(members),
            )
        )
    if sum(c.size for c in out) != len(elements):
        raise ExactnessError(
            f"class sizes sum to {sum(c.size for c in out)}, not {len(elements)} elements"
        )
    if len(elements) != 2**n * math.factorial(n):
        raise ExactnessError(f"{len(elements)} elements, not 2**{n} * {n}! at rank {n}")
    return tuple(out)


def subgroup_elements(n: int, label: SignedSubgroupLabel) -> tuple[Element, ...]:
    """The concrete canonical subgroup on consecutive coordinate blocks.

    Each block is every (perm, signs) pair on its own points, the perms
    from ``itertools.permutations`` and, for a flag-1 block, only the sign
    tuples with an even number of minus signs; an element is one pair per
    block, concatenated."""
    _check_rank(n)
    if label.weight != n:
        raise ValueError("subgroup label has the wrong weight")
    blocks = []
    start = 0
    for part, flag in zip(label.partition, label.flags):
        signs = itertools.product((1, -1), repeat=part)
        signs = [s for s in signs if not flag or s.count(-1) % 2 == 0]
        perms = itertools.permutations(range(start + 1, start + part + 1))
        blocks.append([(perm, s) for perm in perms for s in signs])
        start += part
    out = []
    for combo in itertools.product(*blocks):
        perms, signs = zip(*combo)
        out.append((sum(perms, ()), sum(signs, ())))
    if len(out) != label.subgroup_order():
        raise ExactnessError(
            f"subgroup {label!r} has {len(out)} elements, expected {label.subgroup_order()}"
        )
    return tuple(out)


def oracle_induced_char(n: int, label: SignedSubgroupLabel) -> tuple[int, ...]:
    """Fixed-coset counts of the class representatives, aligned with
    :func:`oracle_class_data`.

    The coset xH is fixed by g when x^-1 g x lies in H.  As x runs over
    the group, x^-1 g x takes each member of the class of g exactly
    |G| / |class| times, so the count of such x is |G| / |class| times the
    number of class members that lie in H."""
    _check_rank(n, cap=COSET_MAX_RANK)
    subgroup = set(subgroup_elements(n, label))
    order = len(subgroup)
    group_order = len(enumerate_group(n))
    what = "fixed-coset count of {.label!r} at {.label!r}"
    values = []
    for cls in oracle_class_data(n):
        centralizer = exact_div(group_order, cls.size, "centralizer order")
        hits = centralizer * len(subgroup & cls.members)
        values.append(exact_div(hits, order, what, label, cls.alpha))
    return tuple(values)


def oracle_restriction(n: int) -> BranchingMatrix:
    """Restriction multiplicities by summation over every subgroup element.

    Ambient irreducible values come from the formula-side table, but they
    are evaluated element by element through the explicit embedding, and
    the inner products run over all 2**n n! elements rather than classes.
    """
    _check_rank(n, cap=COSET_MAX_RANK)
    from hobchar.hyperoct import hob_irreducible_table
    from hobchar.symmetric import sym_irreducible_table

    x, _ = sym_irreducible_table(2 * n)
    y, _ = hob_irreducible_table(n)
    # columns keyed by their labels and looked up by the plain cycle-length
    # tuples, which equal them: no label built per element
    x_col = {ct: c for c, ct in enumerate(x.col_labels)}
    y_col = {(a.pos, a.neg): c for c, a in enumerate(y.col_labels)}
    elements = enumerate_group(n)
    order = len(elements)
    # each irreducible row's value at every element, as one flat list
    x_of = [x_col[_ambient_lengths(g, n)] for g in elements]
    y_of = [y_col[_signed_lengths(g)] for g in elements]
    x_vals = [[row[a] for a in x_of] for row in x.entries]
    y_vals = [[row[b] for b in y_of] for row in y.entries]
    what = "restriction multiplicity ({}, {})"
    entries = []
    for i, xv in enumerate(x_vals):
        row = []
        for k, yv in enumerate(y_vals):
            mult = exact_div(sum(map(mul, xv, yv)), order, what, i, k)
            if mult < 0:
                raise ExactnessError(f"restriction multiplicity ({i}, {k}) is negative: {mult}")
            row.append(mult)
        entries.append(tuple(row))
    return BranchingMatrix(x.row_labels, y.row_labels, tuple(entries))


def oracle_agreement(n: int) -> "CheckReport":
    """Compare the formula pipeline against the brute-force data: class
    count and sizes, fusion images, every induced-character value, and the
    irreducible branching matrix.

    Above ``COSET_MAX_RANK`` only the class-level comparisons run."""
    from hobchar.embedding import fuse_class
    from hobchar.hyperoct import hob_classes, hob_induced_table
    from hobchar.reduction import reduce_irreducible
    from hobchar.reports import CheckReport, compare_matrices, mismatch

    classes = hob_classes(n)
    by_alpha = {cls.alpha: cls for cls in oracle_class_data(n)}
    if len(by_alpha) != len(classes):
        return mismatch("oracle", n, "class-count", "-", len(classes), len(by_alpha))
    for alpha, order in classes:
        cls = by_alpha.get(alpha)
        if cls is None:
            return mismatch("oracle", n, "class-missing", alpha, order, 0)
        if cls.size != order:
            return mismatch("oracle", n, "class-size", alpha, order, cls.size)
        image = fuse_class(alpha, n)
        if image != cls.ambient:
            return mismatch("oracle", n, "fusion-image", alpha, image.label, cls.ambient.label)

    if n > COSET_MAX_RANK:
        note = "classes, sizes and fusion only at this rank"
        return CheckReport(check="oracle", n=n, passed=True, note=note)
    table = hob_induced_table(n)
    col_of = {alpha: c for c, (alpha, _) in enumerate(classes)}
    for i, label in enumerate(table.row_labels):
        got = oracle_induced_char(n, label)
        for cls, value in zip(oracle_class_data(n), got):
            expected = table.entries[i][col_of[cls.alpha]]
            if value != expected:
                return mismatch("oracle", n, label, cls.alpha, expected, value)

    r1 = reduce_irreducible(n)
    brute = oracle_restriction(n)
    return compare_matrices("oracle", n, r1.row_labels, r1.col_labels, r1.entries, brute.entries)
