"""One-step restriction chains and the chain-composition cross-check.

The symmetric-group step is the classical one-box rule: a row restricts to
the partitions obtained by lowering a single part by one (patterns that
stop being weakly decreasing are dropped).  The signed-permutation step is
computed character-theoretically from the rank-(N-1) embedding that fixes
the last coordinate positively.  Composing either chain down to rank one
lands in isomorphic groups, which yields an identity that cross-checks the
branching matrix of :func:`hobchar.reduction.reduce_irreducible`.
"""

from __future__ import annotations

from functools import lru_cache

from hobchar.combinatorics import Partition, partitions
from hobchar.embedding import recolumn
from hobchar.hyperoct import AlphaSystem, hob_irreducible_table
from hobchar.reduction import reduce_irreducible, restriction_matrix
from hobchar.reports import CheckReport, compare_matrices
from hobchar.tables import BranchingMatrix, mat_mul


def weyl_matrix(n: int) -> BranchingMatrix:
    """Restriction multiplicities from S_n to S_(n-1): entry (lam, mu) is 1
    exactly when mu arises from lam by lowering one part."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rows = partitions(n)
    cols = partitions(n - 1)
    col_index = {p: j for j, p in enumerate(cols)}
    entries = []
    for lam in rows:
        row = [0] * len(cols)
        for i, p in enumerate(lam):
            # only a removable corner: the last part of its run of equal parts
            if i + 1 == len(lam) or lam[i + 1] < p:
                row[col_index[lam[:i] + (p - 1,) * (p > 1) + lam[i + 1 :]]] = 1
        entries.append(row)
    return BranchingMatrix(rows, cols, entries)


@lru_cache(maxsize=None)
def hob_restriction_matrix(n: int) -> BranchingMatrix:
    """Restriction multiplicities from rank n to rank n-1.

    The smaller group embeds by fixing the n-th coordinate positively, so
    a class of rank n-1 fuses into the rank-n class with one extra
    positive 1-cycle; the re-columned table goes through the same
    restriction routine as the irreducible branching matrix.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    y_big, _ = hob_irreducible_table(n)
    y_small, _ = hob_irreducible_table(n - 1)
    images = [AlphaSystem(Partition(a.pos + (1,)), a.neg) for a in y_small.col_labels]
    return restriction_matrix(recolumn(y_big, images, n - 1), y_small)


def chain_compose(matrices) -> BranchingMatrix:
    """Exact product of adjacent branching matrices, keeping outer labels.

    Every adjacent pair of labels is checked first.  The product is then
    folded from the right: a chain narrows as it goes down, so each step
    multiplies by a matrix with few columns.
    """
    matrices = list(matrices)
    if not matrices:
        raise ValueError("need at least one matrix")
    for upper, lower in zip(matrices, matrices[1:]):
        if upper.col_labels != lower.row_labels:
            raise ValueError(
                f"label mismatch in chain: {[str(l) for l in upper.col_labels]} vs "
                f"{[str(l) for l in lower.row_labels]}"
            )
    entries = matrices[-1].entries
    for upper in reversed(matrices[:-1]):
        entries = mat_mul(upper.entries, entries)
    return BranchingMatrix(matrices[0].row_labels, matrices[-1].col_labels, entries)


def _identity(labels) -> BranchingMatrix:
    k = len(labels)
    return BranchingMatrix(labels, labels, [[int(i == j) for j in range(k)] for i in range(k)])


def sym_chain(n: int) -> BranchingMatrix:
    """Composed one-box chain from S_n down to S_2 (the identity at n = 2)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n == 2:
        return _identity(partitions(n))
    return chain_compose(weyl_matrix(m) for m in range(n, 2, -1))


def hob_chain(n: int) -> BranchingMatrix:
    """Composed restriction chain from rank n down to rank 1 (the identity
    at n = 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        y, _ = hob_irreducible_table(n)
        return _identity(y.row_labels)
    return chain_compose(hob_restriction_matrix(m) for m in range(n, 1, -1))


def method_b_verify(n: int) -> CheckReport:
    """Cross-check the irreducible branching matrix by chain composition.

    Restricting S_2N to the embedded subgroup and then walking down to
    rank one must agree with walking S_2N straight down to S_2 (the two
    endpoint groups are isomorphic, trivial and sign characters aligned).
    Failure is reported, not raised.
    """
    r1 = reduce_irreducible(n)
    lhs = chain_compose([r1, hob_chain(n)])
    rhs = sym_chain(2 * n)
    note = f"branching {r1.nrows}x{r1.ncols} composed down to {lhs.nrows}x{lhs.ncols}"
    return compare_matrices(
        "method-b", n, lhs.row_labels, lhs.col_labels, lhs.entries, rhs.entries, note
    )
