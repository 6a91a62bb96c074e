"""Partitions, sign-flag vectors and the cycle-placement recursion that
fills both induced tables through one entry point, :func:`induced_columns`.

Everything here is exact integer combinatorics.  The orderings are part of
the API: table rows and columns downstream are compared entry-by-entry
against frozen reference data, so ``partitions`` and ``sign_flag_vectors``
must never change their output order.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import lru_cache


class Partition(tuple):
    """A weakly decreasing tuple of positive integers: equal to, and
    hashed as, the plain tuple of its parts."""

    __slots__ = ()

    def __new__(cls, parts):
        self = super().__new__(cls, parts)
        if any(not isinstance(p, int) or p < 1 for p in self):
            raise ValueError(f"parts must be positive integers: {self!r}")
        if any(a < b for a, b in zip(self, self[1:])):
            raise ValueError(f"parts must be weakly decreasing: {self!r}")
        return self

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def label(self) -> str:
        """Canonical text form: comma-joined parts, e.g. ``"4,2,1"``."""
        return ",".join(map(str, self))

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
    so for (1,1) the vectors are (0,0), (0,1), (1,1) and (1,0) is skipped:
    a run of m parts takes one of its m + 1 vectors 0...01...1, and the
    runs combine by product.
    """
    runs = [len(tuple(run)) for _, run in itertools.groupby(partition)]
    choices = [[(0,) * (m - j) + (1,) * j for j in range(m + 1)] for m in runs]
    return tuple(sum(cand, ()) for cand in itertools.product(*choices))


def _encode(parts, flags):
    """One row of the kernel, encoded once per table: its weight, its
    multiplier 2**(number of flag-1 parts), and its part states as an
    ascending tuple of ints; see :func:`induced_columns`."""
    states = tuple(sorted([p << 2 | f << 1 for p, f in zip(parts, flags)]))
    return sum(parts), 1 << sum(flags), states


def _place(cycles, memo, i, states):
    """Placements of ``cycles[i:]``, (length << 2, negative) pairs, into
    the parts in the ascending int ``states``, memoized in ``memo[i]``;
    see :func:`induced_columns`."""
    if i == len(cycles):
        return 1
    known = memo[i].get(states)
    if known is not None:
        return known
    need, negative = cycles[i]
    total = 0
    j = len(states) - 1
    while j >= 0 and states[j] >= need:
        state = states[j]
        same = 1
        while j - same >= 0 and states[j - same] == state:
            same += 1
        left = state - need  # capacity down by the length; flag and parity kept
        if negative:
            left ^= left >> 1 & 1  # a negative cycle flips the parity of a flag-1 part
        if left >= 4:  # room left: the part stays, in its sorted place
            k = bisect_left(states, left, 0, j)
            total += same * _place(
                cycles, memo, i + 1, states[:k] + (left,) + states[k:j] + states[j + 1 :]
            )
        elif not left & 1:  # filled, with an even number of negative cycles
            total += same * _place(cycles, memo, i + 1, states[:j] + states[j + 1 :])
        j -= same
    memo[i][states] = total
    return total


def induced_columns(classes, rows) -> tuple[tuple[int, ...], ...]:
    """The induced table column by column: for each class, a pair
    ``(pos, neg)`` of the lengths of its positive and of its negative
    cycles, the values at it of the characters induced from the subgroups
    ``rows``, (parts, flags) pairs.

    For the rank-N group a row names a canonical subgroup; for S_n, with
    ``neg`` empty and every flag 0, a Young subgroup.  A value is 2 per
    flag-1 part times the number of ways to put each labelled cycle into a
    part so that every part is filled exactly and every flag-1 part holds
    an even number of negative cycles; with no flags that is the
    coefficient of x^parts in the power-sum product p_pos (Macdonald,
    I.6).  A total-weight mismatch gives 0.

    The recursion places one cycle at a time, longest first.  A part's
    state is one int, cap << 2 | flag << 1 | parity: its remaining
    capacity, its flag, and the parity of the negative cycles it holds.
    Flag and parity are 0 or 1, so two states compare as ints exactly as
    their (cap, flag, parity) triples compare as tuples, and a row's
    states sorted ascending are its triples sorted descending, read
    backwards.  The recursion scans them from the top end, where the parts
    with the most room are, and a part with room left goes back in its
    sorted place by bisection; a filled part leaves the state.  Each row
    is encoded once per table, not once per column.

    Each subproblem is memoized on (cycle index, sorted states) for one
    column, so every row of the column shares the memo whatever order the
    rows come in; parts in equal states are counted once, times their
    number.  The memo is a local of the column's loop and ``_place`` a
    module function, so no reference cycle keeps a memo alive after its
    column is done.
    """
    encoded = [_encode(parts, flags) for parts, flags in rows]
    out = []
    for pos, neg in classes:
        cycles = sorted([(p << 2, 0) for p in pos] + [(p << 2, 1) for p in neg], reverse=True)
        weight = sum(pos) + sum(neg)
        memo = [{} for _ in cycles]
        out.append(tuple([
            factor * _place(cycles, memo, 0, states) if w == weight else 0
            for w, factor, states in encoded
        ]))
    return tuple(out)
