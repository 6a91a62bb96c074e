"""Restriction multiplicities from S_2N to the embedded rank-N
signed-permutation group: the irreducible branching matrix, the induced
branching matrix, and the consistency identity tying them together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from hobchar.embedding import modified_tables
from hobchar.hyperoct import hob_induced_table, hob_irreducible_table
from hobchar.reports import CheckReport, compare_matrices
from hobchar.symmetric import sym_irreducible_table
from hobchar.tables import CharacterTable, ExactnessError, exact_div, mat_mul, triangular_solve


@dataclass(frozen=True)
class BranchingMatrix:
    """Exact integer content matrix with labeled rows and columns.

    Restriction multiplicities (the irreducible route and the one-step
    chains) are genuinely non-negative and are checked as such where they
    are built.  The induced-content matrix is the unique solution of a
    linear system and can carry negative coefficients from rank 3 on, so
    the container itself only insists on integrality.
    """

    row_labels: tuple
    col_labels: tuple
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))
        object.__setattr__(self, "entries", tuple([tuple(r) for r in self.entries]))
        if len(self.entries) != len(self.row_labels):
            raise ValueError("row count does not match row labels")
        for row in self.entries:
            if len(row) != len(self.col_labels):
                raise ValueError("column count does not match column labels")
            if any(not isinstance(v, int) for v in row):
                raise ValueError("branching entries must be exact integers")

    @property
    def shape(self):
        return (len(self.row_labels), len(self.col_labels))


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
    note = "both routes give a {}x{} matrix".format(*r1.shape)
    return compare_matrices("eq8", n, r2.row_labels, r2.col_labels, lhs, rhs, note)
