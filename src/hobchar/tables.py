"""Exact character-table containers and the weighted orthonormalization.

All arithmetic is integer arithmetic with checked exact division; floating
point is banned from this package because every quantity it produces is an
exact integer and any rounding would be a silent bug.  A weighted inner
product is an integer class sum divided once by the group order, and a
remainder raises :class:`ExactnessError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul


class ExactnessError(ArithmeticError):
    """A value that must come out integral (or a row that must come out
    orthonormal) did not.

    This never indicates rounding; it signals an inconsistent upstream
    table or invalid input.
    """


def exact_div(num, den, what="value"):
    """``num / den`` as an integer; raises :class:`ExactnessError` when
    ``den`` does not divide ``num``."""
    q, r = divmod(num, den)
    if r:
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

    def row(self, i):
        return self.entries[i]

    def weigh(self, v):
        """``v`` times the class orders, entry by entry.  Every class sum
        takes its second row in this form, so a loop that pairs one row
        with many weighs it once."""
        return tuple(map(mul, self.col_class_orders, v))

    def class_sum(self, u, weighted):
        """sum_c |c| u_c v_c for ``weighted = self.weigh(v)``: the weighted
        inner product times the group order, an exact integer."""
        return sum(map(mul, u, weighted))

    def inner(self, u, weighted, what="inner product"):
        """Weighted inner product sum_c (|c| / |G|) u_c v_c for
        ``weighted = self.weigh(v)``, which must be an integer."""
        return exact_div(self.class_sum(u, weighted), self.group_order, what)


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


def weighted_gram_schmidt(table: CharacterTable):
    """Orthonormalize the rows of ``table`` under its class weights, exactly.

    Returns ``(orthonormal, transition)`` where ``transition`` is lower
    unitriangular and ``table = transition @ orthonormal`` entrywise.  No
    normalization step is performed: for induced-character input each
    residue is a single irreducible character and lands on norm 1 by
    itself, which is checked.  A residue with non-unit norm or a
    non-integral projection coefficient raises :class:`ExactnessError`
    (rank deficiency shows up as norm 0).
    """
    if table.nrows != table.ncols:
        raise ValueError("weighted orthonormalization needs a square table")
    done: list[tuple[int, ...]] = []
    weighted: list[tuple[int, ...]] = []
    trans: list[tuple[int, ...]] = []
    n = table.nrows
    for i in range(n):
        row = table.row(i)
        coeffs = [
            table.inner(row, w, f"projection coefficient ({i},{k})")
            for k, w in enumerate(weighted)
        ]
        resid = list(row)
        for c, x in zip(coeffs, done):
            if c:
                resid = [r - c * v for r, v in zip(resid, x)]
        resid = tuple(resid)
        w = table.weigh(resid)
        norm = table.class_sum(resid, w)
        if norm != table.group_order:
            raise ExactnessError(
                f"row {i} residue has squared norm "
                f"{Fraction(norm, table.group_order)}, expected 1"
            )
        done.append(resid)
        weighted.append(w)
        trans.append(tuple(coeffs) + (1,) + (0,) * (n - i - 1))
    ortho = CharacterTable(
        row_labels=table.row_labels,
        col_labels=table.col_labels,
        col_class_orders=table.col_class_orders,
        entries=tuple(done),
        group_order=table.group_order,
    )
    return ortho, TransitionMatrix(table.row_labels, tuple(trans))


def first_orthogonality_failure(table: CharacterTable):
    """First (i, j, value) where weighted row orthonormality fails, or None."""
    weighted = [table.weigh(row) for row in table.entries]
    for i in range(table.nrows):
        for j in range(i, table.nrows):
            got = table.class_sum(table.row(i), weighted[j])
            expected = table.group_order if i == j else 0
            if got != expected:
                return (i, j, Fraction(got, table.group_order))
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
    """Exact matrix product of nested sequences.  Each row of the product
    adds up the rows of ``b`` scaled by the non-zero entries of a row of
    ``a``, so zeros of ``a`` cost nothing."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(tuple(acc))
    return tuple(out)


def triangular_solve(rows, pivots, rhs):
    """Solve X A = B by substitution, where A is square and the column of
    each row's pivot is zero below that row: A[k][pivots[k]] != 0 and
    A[j][pivots[k]] == 0 for every j > k.

    ``rows`` are the integer rows of A, ``pivots`` one distinct column per
    row and ``rhs`` the integer rows of B.  Entry k of a row of X comes
    from column ``pivots[k]`` with one checked exact division.  Both
    structural conditions are checked, so a zero pivot or a non-zero entry
    below a pivot raises :class:`ExactnessError`, as does a non-integral X.
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
    out = []
    for r, b in enumerate(rhs):
        x = []
        for k, c in enumerate(pivots):
            rest = b[c] - sum(x[j] * v for j, v in above[k])
            x.append(exact_div(rest, rows[k][c], f"solution entry ({r},{k})"))
        out.append(tuple(x))
    return tuple(out)
