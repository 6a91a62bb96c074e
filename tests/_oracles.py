"""Small independent oracles used only by the tests.

These deliberately re-derive quantities through different algorithms than
the package (recursive counting, exhaustive filtering, generic Gaussian
elimination) so agreement is meaningful.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from hobchar.combinatorics import enumerate_cell_matrices


@lru_cache(maxsize=None)
def partition_count(n, largest=None):
    """Number of partitions of n with parts <= largest, by recursion."""
    if largest is None:
        largest = n
    if n == 0:
        return 1
    if largest == 0:
        return 0
    total = 0
    for first in range(1, largest + 1):
        if first <= n:
            total += partition_count(n - first, min(first, n - first))
    return total


def fraction_det(matrix):
    """Determinant over exact rationals, by Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * u for v, u in zip(m[r], m[col])]
    return det


def transpose(a):
    """Rows of ``a`` as columns, as a tuple of tuples."""
    return tuple(zip(*a))


def fraction_solve(a, b):
    """The unique X with A X = B over exact rationals, by Gauss-Jordan
    elimination; raises ``ZeroDivisionError`` when A is singular."""
    n = len(a)
    m = [[Fraction(v) for v in (*row_a, *row_b)] for row_a, row_b in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * u for v, u in zip(m[r], m[col])]
    return [row[n:] for row in m]


def partition_tuples(n, largest=None):
    """Partitions of n as weakly decreasing tuples, by recursion."""
    if largest is None:
        largest = n
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, largest), 0, -1)
        for rest in partition_tuples(n - first, first)
    ]


def flagged_partitions(n):
    """(parts, flags) pairs naming the canonical rank-n subgroups: one 0/1
    flag per part, non-decreasing along every run of equal parts."""
    return [
        (parts, flags)
        for parts in partition_tuples(n)
        for flags in itertools.product((0, 1), repeat=len(parts))
        if all(
            flags[i] <= flags[i + 1]
            for i in range(len(parts) - 1)
            if parts[i] == parts[i + 1]
        )
    ]


def young_coset_character(parts, images):
    """Cosets of the Young subgroup S_parts fixed by a permutation of
    0..n-1 given by its ``images``: the ordered set partitions with block
    sizes ``parts`` that the permutation maps block to block, counted by
    testing every block assignment.  Exponential; only for tiny n."""
    blocks = [b for b, size in enumerate(parts) for _ in range(size)]
    return sum(
        1
        for assign in set(itertools.permutations(blocks))
        if all(assign[images[i]] == assign[i] for i in range(len(images)))
    )


def brute_cell_matrices(exps, parts):
    """Every admissible unsigned matrix, by exhaustive filtering.

    Exponential; only for tiny inputs.
    """
    length, k = len(exps), len(parts)
    bound = max(parts, default=0)
    out = set()
    for flat in itertools.product(range(bound + 1), repeat=length * k):
        m = [flat[i * k : (i + 1) * k] for i in range(length)]
        if any(sum(m[i]) != exps[i] for i in range(length)):
            continue
        if any(
            sum((i + 1) * m[i][j] for i in range(length)) != parts[j]
            for j in range(k)
        ):
            continue
        out.add(tuple(map(tuple, m)))
    return out


def brute_signed_cell_matrices(pos, neg, parts, mask):
    """Every admissible signed matrix pair, by exhaustive filtering."""
    length = max(len(pos), len(neg))
    pos = tuple(pos) + (0,) * (length - len(pos))
    neg = tuple(neg) + (0,) * (length - len(neg))
    k = len(parts)
    bound = max(parts, default=0)
    out = set()
    for pflat in itertools.product(range(bound + 1), repeat=length * k):
        p = [pflat[i * k : (i + 1) * k] for i in range(length)]
        if any(sum(p[i]) != pos[i] for i in range(length)):
            continue
        for nflat in itertools.product(range(bound + 1), repeat=length * k):
            q = [nflat[i * k : (i + 1) * k] for i in range(length)]
            if any(sum(q[i]) != neg[i] for i in range(length)):
                continue
            if any(
                sum((i + 1) * (p[i][j] + q[i][j]) for i in range(length)) != parts[j]
                for j in range(k)
            ):
                continue
            if any(
                mask[j] and sum(q[i][j] for i in range(length)) % 2
                for j in range(k)
            ):
                continue
            out.add((tuple(map(tuple, p)), tuple(map(tuple, q))))
    return out


def _multinomial(total, counts):
    return factorial(total) // prod(map(factorial, counts))


def _padded(seq, length):
    seq = tuple(seq)
    return seq + (0,) * (length - len(seq))


def fold_induced_value(exponents, parts):
    """Induced S_n character value for one cell, as the sum over every cell
    matrix of the per-length multinomial products."""
    total = 0
    for m in enumerate_cell_matrices(tuple(exponents), tuple(parts)):
        term = 1
        for e, row in zip(_padded(exponents, len(m.entries)), m.entries):
            term *= _multinomial(e, row)
        total += term
    return total


def fold_signed_induced_value(pos, neg, parts, flags):
    """Signed variant of :func:`fold_induced_value`: 2 per flag-1 part
    times the fold over the signed cell matrices."""
    total = 0
    for m in enumerate_cell_matrices(
        (tuple(pos), tuple(neg)), tuple(parts), signed=True, parity_mask=flags
    ):
        term = 1
        for e, row in zip(_padded(pos, len(m.entries)), m.entries):
            term *= _multinomial(e, row)
        for e, row in zip(_padded(neg, len(m.neg_entries)), m.neg_entries):
            term *= _multinomial(e, row)
        total += term
    return (1 << sum(flags)) * total


def hook_length_degree(parts):
    """Irreducible degree for a partition via the hook-length product."""
    parts = tuple(parts)
    cols = [0] * (parts[0] if parts else 0)
    for p in parts:
        for j in range(p):
            cols[j] += 1
    deg = factorial(sum(parts))
    for i, p in enumerate(parts):
        for j in range(p):
            deg //= (p - j) + (cols[j] - i) - 1
    return deg


def cycle_type_of(perm):
    """Cycle lengths of a permutation given as a tuple of images of 1..n."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        a = start
        while not seen[a]:
            seen[a] = True
            length += 1
            a = perm[a] - 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def class_data_by_closure(n):
    """The oracle's classes as (size, representative key, cycle-sign label,
    ambient label), by the three-product conjugation closure x * g * x^-1
    over every element, in order of first occurrence."""
    from hobchar.oracle import SignedPermutation, ambient_cycle_type, enumerate_group

    elements = enumerate_group(n)
    assigned = set()
    out = []
    for g in elements:
        if g.key() in assigned:
            continue
        members = {(x * g * x.inverse()).key() for x in elements}
        assigned |= members
        rep = SignedPermutation(*min(members))
        out.append(
            (len(members), rep.key(), rep.alpha_system().label, ambient_cycle_type(rep, n).label)
        )
    return out


def induced_char_by_conjugation(n, label):
    """Fixed-coset counts of the oracle's class representatives: for each
    representative g, the number of x with x^-1 * g * x in the subgroup,
    divided by the subgroup order."""
    from hobchar.oracle import enumerate_group, oracle_class_data, subgroup_elements

    elements = enumerate_group(n)
    members = {h.key() for h in subgroup_elements(n, label)}
    values = []
    for cls in oracle_class_data(n):
        g = cls.representative
        hits = sum(1 for x in elements if (x.inverse() * g * x).key() in members)
        value, r = divmod(hits, len(members))
        if r:
            raise ArithmeticError(f"{hits} hits not divisible by {len(members)}")
        values.append(value)
    return tuple(values)
