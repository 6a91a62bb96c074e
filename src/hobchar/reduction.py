"""Restriction multiplicities from S_2N to the embedded rank-N
signed-permutation group: the irreducible branching matrix, the induced
branching matrix, and the consistency identity tying them together.
Both are plain :class:`hobchar.tables.BranchingMatrix` values.
"""

from __future__ import annotations

from functools import lru_cache

from hobchar.embedding import modified_tables
from hobchar.hyperoct import hob_induced_table, hob_irreducible_table
from hobchar.reports import CheckReport, compare_matrices
from hobchar.symmetric import sym_irreducible_table
from hobchar.tables import (
    BranchingMatrix,
    CharacterTable,
    ExactnessError,
    exact_div,
    mat_mul,
    triangular_solve,
)


def restriction_matrix(restricted: CharacterTable, y: CharacterTable) -> BranchingMatrix:
    """Multiplicities of the irreducibles of ``y`` in each row of
    ``restricted``, a table already re-columned over the classes of ``y``:
    weighted inner products against the orthonormal rows of ``y``, each
    checked integral and non-negative."""
    if restricted.col_labels != y.col_labels:
        raise ValueError("restricted table must be re-columned over the classes of y")
    what = "restriction multiplicity"
    sums = mat_mul(restricted.entries, tuple(zip(*map(y.weigh, y.entries))))
    entries = [[exact_div(s, y.group_order, what) for s in row] for row in sums]
    for row in entries:
        for v in row:
            if v < 0:
                raise ExactnessError(f"{what} is negative: {v}")
    return BranchingMatrix(restricted.row_labels, y.row_labels, entries)


@lru_cache(maxsize=None)
def reduce_irreducible(n: int) -> BranchingMatrix:
    """Multiplicities of the subgroup irreducibles in each restricted
    S_2N irreducible."""
    _, x_mod = modified_tables(n)
    y, _ = hob_irreducible_table(n)
    return restriction_matrix(x_mod, y)


@lru_cache(maxsize=None)
def reduce_induced(n: int) -> BranchingMatrix:
    """The induced-content matrix: the unique exact solution R of
    R @ induced_table = re-columned ambient induced table.

    Coefficients must come out integral (anything else means a broken
    upstream table) but not necessarily non-negative: a restricted induced
    character is a permutation character whose point stabilizers need not
    be canonical subgroups, and from rank 3 on some rows genuinely leave
    the non-negative cone of the induced basis.
    """
    phi_mod, _ = modified_tables(n)
    table = hob_induced_table(n)
    # Ind_H^G 1 vanishes on every class that misses H.  Row H paired with
    # the class of H.alpha_system() is therefore zero below that pivot, and
    # R I = phi' is a substitution that checks this vanishing as it goes.
    col_of = {alpha: c for c, alpha in enumerate(table.col_labels)}
    pivots = [col_of[label.alpha_system()] for label in table.row_labels]
    solution = triangular_solve(table.entries, pivots, phi_mod.entries)
    return BranchingMatrix(phi_mod.row_labels, table.row_labels, solution)


def verify_consistency(n: int) -> CheckReport:
    """Check R2 @ T = Delta @ R1 exactly, where T is the subgroup's
    unitriangular factor and Delta the ambient one (the re-columned
    induced/irreducible tables share Delta).  Failure is reported, not
    raised."""
    r1 = reduce_irreducible(n)
    r2 = reduce_induced(n)
    _, t_b = hob_irreducible_table(n)
    _, delta = sym_irreducible_table(2 * n)
    lhs = mat_mul(r2.entries, t_b.entries)
    rhs = mat_mul(delta.entries, r1.entries)
    note = f"both routes give a {r1.nrows}x{r1.ncols} matrix"
    return compare_matrices("eq8", n, r2.row_labels, r2.col_labels, lhs, rhs, note)
