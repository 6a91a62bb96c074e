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
