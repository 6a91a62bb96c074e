"""Exact character-table containers and the weighted orthonormalization.

All arithmetic is integer arithmetic with checked exact division; floating
point is banned from this package because every quantity it produces is an
exact integer and any rounding would be a silent bug.  A weighted inner
product is an integer class sum divided once by the group order, and a
remainder raises :class:`ExactnessError`.

Every p^3 stage is one exact product, or, for R2's
:func:`triangular_solve`, one packed substitution: no p^3 stage is an
interpreted loop over entries any more.  A row of integers is packed into
one Python int with a fixed-width signed slot per entry (Kronecker
substitution), so a row of a product is a sum of scalar x packed-row
products done in C.  A slot's width comes from a bound on every value it
must hold, and decoding reads the slots off byte-aligned; anything left
above the top slot raises :class:`ExactnessError` rather than alias.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from math import isqrt
from operator import mul


class ExactnessError(ArithmeticError):
    """A value that must come out integral (or a row that must come out
    orthonormal) did not.

    This never indicates rounding; it signals an inconsistent upstream
    table or invalid input.
    """


def exact_div(num, den, what="value", *args):
    """``num / den`` as an integer; raises :class:`ExactnessError` when
    ``den`` does not divide ``num``.  The message names ``what``, formatted
    with ``args`` by ``str.format`` only then, so a division that is exact
    builds no text."""
    q, r = divmod(num, den)
    if r:
        what = what.format(*args)
        raise ExactnessError(f"{what} is not an exact integer: {Fraction(num, den)}")
    return q


@dataclass(frozen=True)
class CharacterTable:
    """Integer table with labeled rows (characters) and columns (classes)."""

    row_labels: tuple
    col_labels: tuple
    col_class_orders: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]
    group_order: int

    def __post_init__(self):
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))
        object.__setattr__(self, "col_class_orders", tuple(self.col_class_orders))
        object.__setattr__(self, "entries", tuple([tuple(r) for r in self.entries]))
        if len(self.entries) != len(self.row_labels):
            raise ValueError("row count does not match row labels")
        for row in self.entries:
            if len(row) != len(self.col_labels):
                raise ValueError("column count does not match column labels")
        if len(self.col_class_orders) != len(self.col_labels):
            raise ValueError("class order count does not match column labels")
        if any(o <= 0 for o in self.col_class_orders):
            raise ValueError("class orders must be positive")
        if sum(self.col_class_orders) != self.group_order:
            raise ValueError("class orders do not sum to the group order")

    @property
    def nrows(self):
        return len(self.row_labels)

    @property
    def ncols(self):
        return len(self.col_labels)

    def weigh(self, v):
        """``v`` times the class orders, entry by entry.  Every class sum
        takes its second row in this form, so a loop that pairs one row
        with many weighs it once."""
        return tuple(map(mul, self.col_class_orders, v))


@dataclass(frozen=True)
class TransitionMatrix:
    """Lower unitriangular integer matrix; determinant 1 by shape."""

    labels: tuple
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "entries", tuple([tuple(r) for r in self.entries]))
        n = len(self.labels)
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("transition matrix must be square over its labels")
        for i, row in enumerate(self.entries):
            if row[i] != 1:
                raise ValueError(f"diagonal entry {i} is {row[i]}, expected 1")
            if any(row[j] != 0 for j in range(i + 1, n)):
                raise ValueError(f"row {i} has entries above the diagonal")

    @property
    def size(self):
        return len(self.labels)


def _slot_bytes(bound):
    """Bytes of the narrowest slot that holds every integer in
    [-bound, bound] as a signed value."""
    return bound.bit_length() // 8 + 1


def _offset(count, nbytes):
    """The top bit of each of ``count`` slots of ``nbytes`` bytes."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")


def _pack(values, nbytes):
    """sum_j values[j] * 256**(nbytes * j), one signed slot per value; a
    value too wide for its slot raises :class:`ExactnessError`."""
    try:
        raw = b"".join([v.to_bytes(nbytes, "little", signed=True) for v in values])
    except OverflowError:
        raise ExactnessError(f"a value overflows its slot of {nbytes} bytes") from None
    offset = _offset(len(values), nbytes)
    return (int.from_bytes(raw, "little") ^ offset) - offset


def _unpack(packed, count, nbytes):
    """The ``count`` signed slots of ``packed``, lowest first; anything
    left above the top slot raises :class:`ExactnessError`."""
    offset = _offset(count, nbytes)
    try:
        raw = ((packed + offset) ^ offset).to_bytes(count * nbytes, "little")
    except OverflowError:
        raise ExactnessError(f"packed product overflows {count} slots of {nbytes} bytes") from None
    return [
        int.from_bytes(raw[i : i + nbytes], "little", signed=True)
        for i in range(0, len(raw), nbytes)
    ]


def weighted_gram_schmidt(table: CharacterTable):
    """Orthonormalize the rows of ``table`` under its class weights, exactly.

    Returns ``(orthonormal, transition)`` where ``transition`` is lower
    unitriangular and ``table = transition @ orthonormal`` entrywise.  No
    normalization step is performed: for induced-character input each
    residue is a single irreducible character and lands on norm 1 by
    itself, which is checked.  A residue with non-unit norm or a
    non-integral projection coefficient raises :class:`ExactnessError`
    (rank deficiency shows up as norm 0).

    Every slot has one width, fixed before the loop from
    B = isqrt(|G| max_i sum_c row_i[c]^2 |c|) + 1.  The earlier residues
    are orthonormal (norms checked, orthogonal by exact construction), so
    Cauchy-Schwarz bounds every projection sum by B and Bessel every
    residue entry; a weighed entry |c| y[c] is at most |G| < B, as row 0
    has norm 1.
    """
    if table.nrows != table.ncols:
        raise ValueError("weighted orthonormalization needs a square table")
    n, order = table.nrows, table.group_order
    norms = [sum(map(mul, row, table.weigh(row))) for row in table.entries]
    nbytes = _slot_bytes(isqrt(order * max(norms, default=0)) + 1)
    # cols[j] packs column j of the weighed residues, one slot per residue,
    # so one pass gives every projection sum of a row
    done, packed, trans, cols = [], [], [], [0] * n
    for i, row in enumerate(table.entries):
        sums = _unpack(sum(map(mul, row, cols)), i, nbytes)
        coeffs = [
            exact_div(s, order, "projection coefficient ({},{})", i, k)
            for k, s in enumerate(sums)
        ]
        packed.append(_pack(row, nbytes) - sum(map(mul, coeffs, packed)))  # the residue
        resid = tuple(_unpack(packed[-1], n, nbytes))
        w = table.weigh(resid)
        norm = sum(map(mul, resid, w))  # the squared norm times the group order
        if norm != order:
            raise ExactnessError(
                f"row {i} residue has squared norm {Fraction(norm, order)}, expected 1"
            )
        done.append(resid)
        shift = 8 * nbytes * i
        cols = [c + (x << shift) for c, x in zip(cols, w)]
        trans.append(tuple(coeffs) + (1,) + (0,) * (n - i - 1))
    return replace(table, entries=tuple(done)), TransitionMatrix(table.row_labels, tuple(trans))


def first_orthogonality_failure(table: CharacterTable):
    """First (i, j, value) where weighted row orthonormality fails, or None.
    The pairs are scanned row by row over the upper triangle."""
    products = mat_mul(table.entries, tuple(zip(*map(table.weigh, table.entries))))
    for i, row in enumerate(products):
        for j in range(i, table.nrows):
            expected = table.group_order if i == j else 0
            if row[j] != expected:
                return (i, j, Fraction(row[j], table.group_order))
    return None


def first_column_orthogonality_failure(table: CharacterTable):
    """First (c, c', value) where column orthogonality fails, or None.

    The exact relation: sum_i T[i][c] T[i][c'] equals group_order/|class c|
    when c == c' and 0 otherwise.
    """
    cols = [[row[c] for row in table.entries] for c in range(table.ncols)]
    for c in range(table.ncols):
        for d in range(c, table.ncols):
            got = sum(map(mul, cols[c], cols[d]))
            if c == d:
                if got * table.col_class_orders[c] != table.group_order:
                    return (c, d, got)
            elif got != 0:
                return (c, d, got)
    return None


def mat_mul(a, b):
    """Exact matrix product of nested sequences.  Each row of ``b`` is
    packed into one integer, so a row of the product is one sum of
    scalar x packed-row products, decoded slot by slot.  A slot holds
    max|a| * max|b| * len(b), which bounds every entry of the product,
    and at least max|b|, so that the rows of ``b`` fit.  Shapes that do
    not match raise ``ValueError``."""
    a = tuple(a)
    width = len(b[0]) if b else 0
    if any(len(row) != len(b) for row in a) or any(len(row) != width for row in b):
        raise ValueError("matrix shapes do not match")
    a_max = max(map(abs, chain.from_iterable(a)), default=0)
    b_max = max(map(abs, chain.from_iterable(b)), default=0)
    nbytes = _slot_bytes(max(a_max * len(b), 1) * b_max)
    packed = [_pack(row, nbytes) for row in b]
    return tuple([tuple(_unpack(sum(map(mul, row, packed)), width, nbytes)) for row in a])


def triangular_solve(rows, pivots, rhs):
    """Solve X A = B by substitution, where A is square and the column of
    each row's pivot is zero below that row: A[k][pivots[k]] != 0 and
    A[j][pivots[k]] == 0 for every j > k.

    ``rows`` are the integer rows of A, ``pivots`` one distinct column per
    row and ``rhs`` the integer rows of B.  Entry k of a row of X comes
    from column c = ``pivots[k]`` with one checked exact division.  Both
    structural conditions are checked, so a zero pivot or a non-zero entry
    below a pivot raises :class:`ExactnessError`, as does a non-integral X.

    Column k of X is packed over all rows of B into one int, so a pivot
    costs one packed sum over the pivots above it, one decode and one
    division per row of B.  The columns are solved in pivot order, so of
    several non-integral entries the one reported is the first row's entry
    in the first column that has one, not the first row's first entry.
    Every slot has one width, fixed before anything is packed: for each
    pivot in turn, every partial result in its column is at most
    S_k = max_r |B[r][c]| + sum_j |A[j][c]| M_j in absolute value, and every
    entry of its column of X at most M_k = S_k // |A[k][c]|; the slot holds
    max_k S_k.
    """
    n = len(rows)
    if any(len(row) != n for row in (*rows, *rhs)) or sorted(pivots) != list(range(n)):
        raise ValueError("need a square system with one distinct pivot column per row")
    above = []  # per pivot: the non-zero (row, entry) pairs above it
    for k, c in enumerate(pivots):
        if rows[k][c] == 0:
            raise ExactnessError(f"zero pivot in row {k}, column {c}")
        below = next((j for j in range(k + 1, n) if rows[j][c]), None)
        if below is not None:
            raise ExactnessError(
                f"row {below} is non-zero below the pivot of row {k} in column {c}"
            )
        above.append([(j, rows[j][c]) for j in range(k) if rows[j][c]])
    b_cols = tuple(zip(*rhs)) or ((),) * n
    widest, bounds = 0, []  # bounds[k] = M_k
    for k, c in enumerate(pivots):
        s = max(map(abs, b_cols[c]), default=0) + sum(abs(v) * bounds[j] for j, v in above[k])
        widest = max(widest, s)
        bounds.append(s // abs(rows[k][c]))
    nbytes = _slot_bytes(widest)
    m = len(rhs)
    packed, cols = [], []  # column k of X, packed over the rows of B and decoded
    for k, c in enumerate(pivots):
        rest = _pack(b_cols[c], nbytes) - sum([packed[j] * v for j, v in above[k]])
        col = [
            exact_div(v, rows[k][c], "solution entry ({},{})", r, k)
            for r, v in enumerate(_unpack(rest, m, nbytes))
        ]
        packed.append(_pack(col, nbytes))
        cols.append(col)
    return tuple(zip(*cols)) if cols else ((),) * m
