"""Partitions, sign-flag vectors, the constrained cell-matrix enumerator,
and the cycle-placement recursion that fills the induced tables.

Everything here is exact integer combinatorics.  The orderings are part of
the API: table rows and columns downstream are compared entry-by-entry
against frozen reference data, so ``partitions`` and ``sign_flag_vectors``
must never change their output order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if any(not isinstance(p, int) or p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive integers: {self.parts!r}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {self.parts!r}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def label(self) -> str:
        """Canonical text form: comma-joined parts, e.g. ``"4,2,1"``."""
        return ",".join(str(p) for p in self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __str__(self):
        return self.label


def _partition_tuples(n, largest):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partition_tuples(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n``, decreasing lexicographically.

    ``(n)`` comes first, ``(1, ..., 1)`` last; for ``n == 0`` the single
    empty partition.  Every table row order in this package derives from
    this ordering.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return tuple(Partition(t) for t in _partition_tuples(n, n))


def sign_flag_vectors(partition: Partition) -> tuple[tuple[int, ...], ...]:
    """All admissible 0/1 flag vectors for ``partition``, lexicographically
    increasing.

    A flag vector must be non-decreasing along every run of equal parts,
    so for (1,1) the vectors are (0,0), (0,1), (1,1) and (1,0) is skipped.
    """
    k = len(partition)
    out = []
    for cand in itertools.product((0, 1), repeat=k):
        if all(
            cand[i] <= cand[i + 1]
            for i in range(k - 1)
            if partition[i] == partition[i + 1]
        ):
            out.append(cand)
    return tuple(out)


@dataclass(frozen=True)
class CellMatrix:
    """One way of distributing the cycles of a class over subgroup parts.

    ``entries[i][j]`` counts cycles of length ``i + 1`` placed into part
    ``j`` (the positive-cycle counts in the signed variant).  For the
    signed variant ``neg_entries`` holds the negative-cycle counts in the
    same layout; it is ``None`` otherwise.
    """

    entries: tuple[tuple[int, ...], ...]
    neg_entries: tuple[tuple[int, ...], ...] | None = None

    def flattened(self) -> tuple[int, ...]:
        """Row-major flattening; signed matrices interleave (+, -) per cell.

        This is the sort key behind the deterministic enumeration order.
        """
        if self.neg_entries is None:
            return tuple(v for row in self.entries for v in row)
        return tuple(
            v
            for prow, nrow in zip(self.entries, self.neg_entries)
            for cell in zip(prow, nrow)
            for v in cell
        )


def _compositions(total, bounds):
    """Weak compositions of ``total`` with per-slot upper bounds."""
    k = len(bounds)
    if k == 0:
        if total == 0:
            yield ()
        return

    def rec(j, left):
        if j == k - 1:
            if left <= bounds[j]:
                yield (left,)
            return
        for c in range(min(left, bounds[j]) + 1):
            for rest in rec(j + 1, left - c):
                yield (c,) + rest

    yield from rec(0, total)


def _normalize_exponents(class_exponents, signed):
    if signed:
        pos, neg = class_exponents
        pos, neg = tuple(pos), tuple(neg)
        length = max(len(pos), len(neg), 1)
        pos += (0,) * (length - len(pos))
        neg += (0,) * (length - len(neg))
        return pos, neg
    exps = tuple(class_exponents)
    return exps if exps else (0,)


def _iter_cell_matrices(class_exponents, parts, *, signed=False, parity_mask=None):
    """Generate all admissible matrices, in no particular order."""
    parts = tuple(parts)
    k = len(parts)
    if signed:
        pos, neg = _normalize_exponents(class_exponents, True)
        length = len(pos)
        if sum((i + 1) * (p + q) for i, (p, q) in enumerate(zip(pos, neg))) != sum(parts):
            return
        mask = tuple(parity_mask) if parity_mask is not None else (0,) * k
        rem = list(parts)

        def rec(i, prows, nrows):
            if i == length:
                if any(rem):
                    return
                for j in range(k):
                    if mask[j] and sum(row[j] for row in nrows) % 2:
                        return
                yield CellMatrix(tuple(prows), tuple(nrows))
                return
            step = i + 1
            for prow in _compositions(pos[i], [r // step for r in rem]):
                for j in range(k):
                    rem[j] -= step * prow[j]
                for nrow in _compositions(neg[i], [r // step for r in rem]):
                    for j in range(k):
                        rem[j] -= step * nrow[j]
                    yield from rec(i + 1, prows + [prow], nrows + [nrow])
                    for j in range(k):
                        rem[j] += step * nrow[j]
                for j in range(k):
                    rem[j] += step * prow[j]

        yield from rec(0, [], [])
    else:
        exps = _normalize_exponents(class_exponents, False)
        length = len(exps)
        if sum((i + 1) * e for i, e in enumerate(exps)) != sum(parts):
            return
        rem = list(parts)

        def rec(i, rows):
            if i == length:
                if not any(rem):
                    yield CellMatrix(tuple(rows))
                return
            step = i + 1
            for row in _compositions(exps[i], [r // step for r in rem]):
                for j in range(k):
                    rem[j] -= step * row[j]
                yield from rec(i + 1, rows + [row])
                for j in range(k):
                    rem[j] += step * row[j]

        yield from rec(0, [])


def enumerate_cell_matrices(class_exponents, parts, *, signed=False, parity_mask=None):
    """All non-negative integer cycle distributions for one table cell.

    ``class_exponents`` lists cycle counts by length (index 0 holds the
    1-cycles); in the signed variant it is a ``(positive, negative)`` pair
    of such lists.  ``parts`` gives the column weights.  Every returned
    matrix places all cycles of each length (row sums) and fills each part
    exactly (weighted column sums); with ``parity_mask[j] == 1`` only
    matrices whose column ``j`` holds an even number of negative cycles
    survive.  The result is sorted on :meth:`CellMatrix.flattened`, so the
    output order is deterministic.  Unsatisfiable constraints (including a
    total-weight mismatch) yield an empty list.
    """
    out = list(
        _iter_cell_matrices(
            class_exponents, parts, signed=signed, parity_mask=parity_mask
        )
    )
    out.sort(key=CellMatrix.flattened)
    return out


def _count_placements(cycles, parts, flags) -> int:
    """Ways to put each labelled cycle into a part so that every part is
    filled exactly and every flag-1 part holds an even number of negative
    cycles.

    ``cycles`` lists (length, 1 if negative else 0), longest first.  The
    recursion places one cycle at a time; a part's state is (remaining
    capacity, flag, parity of the negative cycles it holds), and a filled
    part leaves the state.  Each subproblem is memoized on (cycle index,
    sorted states) for this call only, and parts in equal states are
    counted once, times their number.
    """

    @cache
    def place(i, states):
        if i == len(cycles):
            return 1
        length, negative = cycles[i]
        total = 0
        j = 0
        while j < len(states) and states[j][0] >= length:
            same = 1
            while j + same < len(states) and states[j + same] == states[j]:
                same += 1
            cap, flag, parity = states[j]
            cap -= length
            parity ^= flag & negative
            if cap or not parity:
                rest = states[:j] + states[j + 1 :]
                if cap:
                    rest = tuple(sorted(rest + ((cap, flag, parity),), reverse=True))
                total += same * place(i + 1, rest)
            j += same
        return total

    if sum(length for length, _ in cycles) != sum(parts):
        return 0
    states = sorted(((p, f, 0) for p, f in zip(parts, flags)), reverse=True)
    return place(0, tuple(states))


def _cycles(exponents, negative=0):
    return [
        (length, negative)
        for length in range(len(exponents), 0, -1)
        for _ in range(exponents[length - 1])
    ]


def induced_value(exponents, parts) -> int:
    """Value of the S_n character induced from the trivial character of the
    Young subgroup with ``parts``, at the class whose ``exponents[i]``
    counts its (i+1)-cycles.

    It counts the ways to put each labelled cycle into a part so that
    every part is filled exactly: the coefficient of x^parts in the
    product of power sums p_mu (Macdonald, I.6).  A total-weight mismatch
    gives 0.
    """
    return _count_placements(_cycles(exponents), parts, (0,) * len(parts))


def signed_induced_value(pos, neg, parts, flags) -> int:
    """Value of the rank-N character induced from the identity of the
    canonical subgroup (``parts``, ``flags``) at the class with ``pos[i]``
    positive and ``neg[i]`` negative (i+1)-cycles.

    2 per flag-1 part times the placements of labelled cycles that fill
    every part exactly and put an even number of negative cycles into each
    flag-1 part.  A total-weight mismatch gives 0.
    """
    cycles = sorted(_cycles(pos) + _cycles(neg, 1), reverse=True)
    return (1 << sum(flags)) * _count_placements(cycles, parts, flags)


def even_partition_count(m: int) -> int:
    """Number of partitions of even ``m >= 2`` with every part even."""
    if m < 2 or m % 2:
        raise ValueError(f"m must be an even integer >= 2, got {m}")
    return sum(1 for p in partitions(m) if all(part % 2 == 0 for part in p))
