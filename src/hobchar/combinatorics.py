"""Partitions, sign-flag vectors and the cycle-placement recursion that
fills both induced tables through one entry point, :func:`induced_column`.

Everything here is exact integer combinatorics.  The orderings are part of
the API: table rows and columns downstream are compared entry-by-entry
against frozen reference data, so ``partitions`` and ``sign_flag_vectors``
must never change their output order.
"""

from __future__ import annotations

import itertools
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


def _place(cycles, memo, i, states):
    """Placements of ``cycles[i:]`` into parts in the sorted ``states``,
    memoized in ``memo[i]``; see :func:`induced_column`."""
    if i == len(cycles):
        return 1
    known = memo[i].get(states)
    if known is not None:
        return known
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
            total += same * _place(cycles, memo, i + 1, rest)
        j += same
    memo[i][states] = total
    return total


def induced_column(pos, neg, rows) -> tuple[int, ...]:
    """Values of the induced characters of the subgroups ``rows``, (parts,
    flags) pairs, at the class whose positive cycles have the lengths
    ``pos`` and whose negative cycles have the lengths ``neg``.

    For the rank-N group a row names a canonical subgroup; for S_n, with
    ``neg`` empty and every flag 0, a Young subgroup.  A value is 2 per
    flag-1 part times the number of ways to put each labelled cycle into a
    part so that every part is filled exactly and every flag-1 part holds
    an even number of negative cycles; with no flags that is the
    coefficient of x^parts in the power-sum product p_pos (Macdonald,
    I.6).  A total-weight mismatch gives 0.

    The recursion places one cycle at a time, longest first; a part's
    state is (remaining capacity, flag, parity of the negative cycles it
    holds), and a filled part leaves the state.  Each subproblem is
    memoized on (cycle index, sorted states) for the whole call, so every
    row of the column shares the memo whatever order the rows come in;
    parts in equal states are counted once, times their number.  The memo
    is a local of this call and ``_place`` a module function, so no
    reference cycle keeps the memo alive after the call returns.
    """
    cycles = sorted([(p, 0) for p in pos] + [(p, 1) for p in neg], reverse=True)
    weight = sum(length for length, _ in cycles)
    memo = [{} for _ in cycles]
    out = []
    for parts, flags in rows:
        if sum(parts) != weight:
            out.append(0)
            continue
        states = tuple(sorted(((p, f, 0) for p, f in zip(parts, flags)), reverse=True))
        out.append((1 << sum(flags)) * _place(cycles, memo, 0, states))
    return tuple(out)
