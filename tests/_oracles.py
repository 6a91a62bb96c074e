"""Small independent oracles used only by the tests.

These deliberately re-derive quantities through different algorithms than
the package (recursive counting, exhaustive filtering, polynomial
expansion, generic Gaussian elimination) so agreement is meaningful.
"""

import csv
import io
import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial


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


def naive_mat_mul(a, b, width):
    """A B entry by entry, each entry one row of A against one column of
    B; ``width`` is the number of columns of B, so that B may have no rows."""
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(len(b))) for j in range(width))
        for row in a
    )


def reference_gram_schmidt(table):
    """The weighted Gram-Schmidt loop entry by entry: each projection
    coefficient is one class sum divided by the group order, and each
    residue subtracts the earlier residues one at a time.  Returns the
    residues and the lower unitriangular transition rows; a non-integral
    coefficient or a residue of norm other than 1 raises ArithmeticError."""
    orders, group_order, n = table.col_class_orders, table.group_order, table.nrows
    done, weighted, trans = [], [], []
    for i, row in enumerate(table.entries):
        coeffs = []
        for k, w in enumerate(weighted):
            q, r = divmod(sum(u * v for u, v in zip(row, w)), group_order)
            if r:
                raise ArithmeticError(f"projection coefficient ({i},{k}) is not integral")
            coeffs.append(q)
        resid = list(row)
        for c, x in zip(coeffs, done):
            if c:
                resid = [r - c * v for r, v in zip(resid, x)]
        w = tuple(o * v for o, v in zip(orders, resid))
        if sum(u * v for u, v in zip(resid, w)) != group_order:
            raise ArithmeticError(f"row {i} residue does not have norm 1")
        done.append(tuple(resid))
        weighted.append(w)
        trans.append(tuple(coeffs) + (1,) + (0,) * (n - i - 1))
    return tuple(done), tuple(trans)


def reference_triangular_solve(rows, pivots, rhs):
    """X with X A = B, one right-hand row and one entry at a time: entry k
    of a row is B[r][pivots[k]] less the earlier entries times the column
    above the pivot, divided by the pivot.  A non-integral entry raises
    ArithmeticError at the first row that has one."""
    above = [[(j, rows[j][c]) for j in range(k) if rows[j][c]] for k, c in enumerate(pivots)]
    out = []
    for r, b in enumerate(rhs):
        x = []
        for k, c in enumerate(pivots):
            q, rem = divmod(b[c] - sum(x[j] * v for j, v in above[k]), rows[k][c])
            if rem:
                raise ArithmeticError(f"solution entry ({r},{k}) is not integral")
            x.append(q)
        out.append(tuple(x))
    return tuple(out)


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


def signed_induced_value_by_expansion(pos, neg, parts, flags):
    """Induced rank-N character value read off a polynomial.

    Expand the product, over the cycles of the class (positive lengths
    ``pos``, negative lengths ``neg``; length L, s = 1 for a negative
    cycle), of sum_j x_j^L y_j^s, keeping for every part j its
    x-degree (fill) and its y-degree mod 2 (parity), and dropping a term
    once a fill overflows its part.  The value is 2 per flag-1 part times
    the coefficient at fill == parts with even parity on every flag-1 part.
    """
    cycles = [(length, 0) for length in pos] + [(length, 1) for length in neg]
    return (1 << sum(flags)) * _expansion(cycles, parts, flags)


def _expansion(cycles, parts, flags):
    parts, k = tuple(parts), len(parts)
    poly = {((0,) * k, (0,) * k): 1}
    for length, sign in cycles:
        grown = {}
        for (fill, parity), coeff in poly.items():
            for j in range(k):
                if fill[j] + length <= parts[j]:
                    key = (
                        fill[:j] + (fill[j] + length,) + fill[j + 1 :],
                        parity[:j] + (parity[j] ^ sign,) + parity[j + 1 :],
                    )
                    grown[key] = grown.get(key, 0) + coeff
        poly = grown
    return sum(
        coeff
        for (fill, parity), coeff in poly.items()
        if fill == parts and not any(f and p for f, p in zip(flags, parity))
    )


def induced_value_by_expansion(cycle_type, parts):
    """Induced S_n character value at the class with cycle lengths
    ``cycle_type``: the coefficient of x^parts in the power sum product
    p_mu (Macdonald, I.6), by the same expansion with no negative cycles
    and no flags."""
    return _expansion([(length, 0) for length in cycle_type], parts, (0,) * len(parts))


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


def rim_hooks(parts, k):
    """(shape left, height) for every rim hook of length ``k`` of ``parts``,
    read off the beta-numbers parts[i] + m - 1 - i: moving a bead b to the
    free position b - k removes a k-rim hook, whose height is the number
    of beads strictly between the two positions."""
    m = len(parts)
    beta = [p + m - 1 - i for i, p in enumerate(parts)]
    out = []
    for b in beta:
        if b < k or b - k in beta:
            continue
        moved = sorted([c for c in beta if c != b] + [b - k], reverse=True)
        shape = tuple(c - (m - 1 - i) for i, c in enumerate(moved))
        height = sum(1 for c in beta if b - k < c < b)
        out.append((tuple(p for p in shape if p), height))
    return out


@lru_cache(maxsize=None)
def mn_character(parts, cycles):
    """chi^parts at the class of cycle lengths ``cycles`` (tuples), by
    Murnaghan-Nakayama: a first cycle of length k removes a k-rim hook,
    with sign (-1)^height (James & Kerber 2.4.7)."""
    if not cycles:
        return int(not parts)
    k, rest = cycles[0], cycles[1:]
    return sum((-1) ** h * mn_character(shape, rest) for shape, h in rim_hooks(parts, k))


@lru_cache(maxsize=None)
def mn_bipartition_character(alpha, beta, pos, neg):
    """chi^(alpha, beta) of the signed-permutation group at the class with
    positive cycle lengths ``pos`` and negative ``neg`` (tuples): a cycle
    of length k removes a k-rim hook from alpha with sign (-1)^height, or
    from beta with sign (-1)^height and one more -1 when the cycle is
    negative (Macdonald I, Appendix B)."""
    if not pos and not neg:
        return int(not alpha and not beta)
    if pos:
        k, pos, sign = pos[0], pos[1:], 1
    else:
        k, neg, sign = neg[0], neg[1:], -1
    from_alpha = sum(
        (-1) ** h * mn_bipartition_character(shape, beta, pos, neg)
        for shape, h in rim_hooks(alpha, k)
    )
    from_beta = sum(
        (-1) ** h * mn_bipartition_character(alpha, shape, pos, neg)
        for shape, h in rim_hooks(beta, k)
    )
    return from_alpha + sign * from_beta


def _strip_removals(shape, k):
    """Every nu with shape / nu a horizontal strip of ``k`` boxes: row i
    keeps nu[i] boxes with shape[i + 1] <= nu[i] <= shape[i]."""
    if not shape:
        if k == 0:
            yield ()
        return
    below = shape[1] if len(shape) > 1 else 0
    for keep in range(max(shape[0] - k, below), shape[0] + 1):
        for rest in _strip_removals(shape[1:], k - shape[0] + keep):
            yield (keep, *rest)


@lru_cache(maxsize=None)
def kostka(shape, content):
    """K_{shape, content}, the number of semistandard tableaux of ``shape``
    with content[i] entries equal to i + 1 (tuples): the entries equal to
    the largest letter form a horizontal strip, so strip it and count the
    rest (Macdonald I.6)."""
    if not content:
        return int(not shape)
    k, rest = content[-1], content[:-1]
    return sum(kostka(tuple(filter(None, inner)), rest) for inner in _strip_removals(shape, k))


# Symmetric functions in the power-sum basis: dicts from a partition (a
# weakly decreasing tuple) to its Fraction coefficient.


def z_number(rho):
    """z_rho = prod_k k^m_k m_k!, with m_k parts of rho equal to k, so that
    <p_rho, p_sigma> = z_rho when rho == sigma and 0 otherwise."""
    out = 1
    for k in set(rho):
        m = rho.count(k)
        out *= k**m * factorial(m)
    return out


def power_sum_product(f, g):
    """f g in the power-sum basis: p_rho p_sigma = p_(rho joined with sigma)."""
    out = {}
    for rho, a in f.items():
        for sigma, b in g.items():
            key = tuple(sorted(rho + sigma, reverse=True))
            out[key] = out.get(key, 0) + a * b
    return out


@lru_cache(maxsize=None)
def schur_plethysm(alpha, sign):
    """s_alpha[h_2] (sign 1) or s_alpha[e_2] (sign -1) in power sums.
    s_alpha = sum_rho chi^alpha(rho) p_rho / z_rho (Macdonald I.7), and
    plethysm by h_2 or e_2 is multiplicative on p_rho, with
    p_k[h_2] = (p_k^2 + p_2k) / 2 and p_k[e_2] = (p_k^2 - p_2k) / 2
    (Macdonald I.8)."""
    out = {}
    for rho in partition_tuples(sum(alpha)):
        term = {(): Fraction(mn_character(alpha, rho), z_number(rho))}
        for k in rho:
            term = power_sum_product(term, {(k, k): Fraction(1, 2), (2 * k,): Fraction(sign, 2)})
        for key, v in term.items():
            out[key] = out.get(key, 0) + v
    return out


def plethysm_column(shapes, alpha, beta):
    """<s_lambda, s_alpha[h_2] s_beta[e_2]> for each lambda in ``shapes``:
    with c_sigma the power-sum coefficients of the product, the pairing is
    sum_sigma c_sigma chi^lambda(sigma), as <p_sigma, p_sigma> = z_sigma.
    For |alpha| + |beta| = N this is the multiplicity of chi^(alpha, beta)
    in chi^lambda restricted from S_2N to S_2 wr S_N (Macdonald I.8 and
    Appendix B)."""
    coeffs = power_sum_product(schur_plethysm(alpha, 1), schur_plethysm(beta, -1))
    out = []
    for lam in shapes:
        value = sum(c * mn_character(lam, sigma) for sigma, c in coeffs.items())
        if value.denominator != 1:
            raise ArithmeticError(f"pairing of {lam} with ({alpha}, {beta}) is {value}")
        out.append(int(value))
    return tuple(out)


def conjugate_partition(parts):
    """The transpose of ``parts``: entry j counts the parts larger than j."""
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0))


def frobenius(parts):
    """Frobenius form (a | b) of ``parts``: a_i = parts[i] - i - 1 and
    b_i = parts'[i] - i - 1 along the diagonal."""
    cols = conjugate_partition(parts)
    rank = sum(1 for i, p in enumerate(parts) if p > i)
    return (
        tuple(parts[i] - i - 1 for i in range(rank)),
        tuple(cols[i] - i - 1 for i in range(rank)),
    )


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


# The group law of the signed permutations, on the oracle's (perm, signs)
# pairs: perm[i-1] is the image of point i, signs[i-1] the sign at point i,
# and (p', f')(p, f) = (p'p, f' * (f o p'^-1)).


def identity(n):
    return (tuple(range(1, n + 1)), (1,) * n)


def _inverse_perm(perm):
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v - 1] = i + 1
    return inv


def mul(a, b):
    (a_perm, a_signs), (b_perm, b_signs) = a, b
    n = len(a_perm)
    perm = tuple(a_perm[b_perm[i] - 1] for i in range(n))
    inv = _inverse_perm(a_perm)
    signs = tuple(a_signs[j] * b_signs[inv[j] - 1] for j in range(n))
    return (perm, signs)


def inverse(g):
    perm, signs = g
    return (tuple(_inverse_perm(perm)), tuple(signs[v - 1] for v in perm))


def class_data_by_closure(n):
    """The oracle's classes as (size, representative, signed cycle
    lengths, ambient cycle lengths), by the three-product conjugation
    closure x * g * x^-1 over every element, in order of first occurrence."""
    from hobchar.oracle import _ambient_lengths, _signed_lengths, enumerate_group

    elements = enumerate_group(n)
    assigned = set()
    out = []
    for g in elements:
        if g in assigned:
            continue
        members = {mul(mul(x, g), inverse(x)) for x in elements}
        assigned |= members
        rep = min(members)
        out.append((len(members), rep, _signed_lengths(rep), _ambient_lengths(rep, n)))
    return out


def induced_char_by_conjugation(n, label):
    """Fixed-coset counts of the oracle's class representatives: for each
    representative g, the number of x with x^-1 * g * x in the subgroup,
    divided by the subgroup order."""
    from hobchar.oracle import enumerate_group, oracle_class_data, subgroup_elements

    elements = enumerate_group(n)
    members = set(subgroup_elements(n, label))
    values = []
    for cls in oracle_class_data(n):
        g = cls.representative
        hits = sum(1 for x in elements if mul(mul(inverse(x), g), x) in members)
        value, r = divmod(hits, len(members))
        if r:
            raise ArithmeticError(f"{hits} hits not divisible by {len(members)}")
        values.append(value)
    return tuple(values)


# Weight-checked entry points to the package's induced-value kernels, an
# even-partition count and the inverse of the CSV renderer: helpers that
# only the tests call.


def even_partition_count(m):
    """Number of partitions of even ``m >= 2`` with every part even."""
    from hobchar.combinatorics import partitions

    if m < 2 or m % 2:
        raise ValueError(f"m must be an even integer >= 2, got {m}")
    return sum(1 for p in partitions(m) if all(part % 2 == 0 for part in p))


def sym_induced_char(lam, cycle_type):
    """Value at ``cycle_type`` of the character induced from the identity of
    the parabolic (Young-type) subgroup for ``lam``."""
    from hobchar.combinatorics import induced_columns

    if lam.weight != cycle_type.weight:
        raise ValueError(
            f"weight mismatch: partition {lam.label!r} has weight {lam.weight}, "
            f"class {cycle_type.label!r} has weight {cycle_type.weight}"
        )
    return induced_columns([(cycle_type, ())], [(lam, (0,) * len(lam))])[0][0]


def hob_induced_char(subgroup, alpha):
    """Value at class ``alpha`` of the character induced from the identity
    of the canonical subgroup ``subgroup``, by the package's signed kernel."""
    from hobchar.combinatorics import induced_columns

    if subgroup.weight != alpha.weight:
        raise ValueError(
            f"weight mismatch: subgroup {subgroup.label!r} has weight "
            f"{subgroup.weight}, class {alpha.label!r} has weight {alpha.weight}"
        )
    rows = [(subgroup.partition, subgroup.flags)]
    return induced_columns([(alpha.pos, alpha.neg)], rows)[0][0]


def parse_csv(text):
    """Inverse of ``hobchar.serialize.to_csv`` for the label/entry payload:
    returns (row_labels, col_labels, col_class_orders, entries)."""
    rows = list(csv.reader(io.StringIO(text)))
    col_labels = tuple(rows[0][1:])
    body = rows[1:]
    orders = None
    if body and body[0] and body[0][0] == "#order":
        orders = tuple(int(v) for v in body[0][1:])
        body = body[1:]
    row_labels = tuple(r[0] for r in body)
    entries = tuple(tuple(int(v) for v in r[1:]) for r in body)
    return row_labels, col_labels, orders, entries


def _reference_place(cycles, memo, i, states):
    """Placements of ``cycles[i:]`` into parts in the sorted ``states``,
    (capacity, flag, parity) triples, memoized in ``memo[i]``."""
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
            total += same * _reference_place(cycles, memo, i + 1, rest)
        j += same
    memo[i][states] = total
    return total


def reference_induced_column(pos, neg, rows):
    """One column of an induced table by the placement recursion on
    (capacity, flag, parity) triples, each row's triples sorted again for
    the column: the values at the class with positive cycles ``pos`` and
    negative cycles ``neg`` of the characters induced from ``rows``,
    (parts, flags) pairs."""
    cycles = sorted([(p, 0) for p in pos] + [(p, 1) for p in neg], reverse=True)
    weight = sum(length for length, _ in cycles)
    memo = [{} for _ in cycles]
    out = []
    for parts, flags in rows:
        if sum(parts) != weight:
            out.append(0)
            continue
        states = tuple(sorted(((p, f, 0) for p, f in zip(parts, flags)), reverse=True))
        out.append((1 << sum(flags)) * _reference_place(cycles, memo, 0, states))
    return tuple(out)
