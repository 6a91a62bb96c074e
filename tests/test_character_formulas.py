"""The irreducible tables X (of S_n) and Y (of the rank-N group), their
transition factors Delta and T, and the branching matrices R1 and R2
against closed formulas that share no code with the pipeline:
Murnaghan-Nakayama from beta-numbers for every entry of X and Y, Kostka
numbers for every entry of Delta and T, the four linear characters of Y
with their columns of R1, plethysm with h_2 and e_2 for every entry of
R1, and through eq8 (R2 T = Delta R1) with those three factors, R2."""

from functools import lru_cache
from itertools import product
from math import comb

import pytest

from hobchar.hyperoct import hob_irreducible_table
from hobchar.reduction import reduce_induced, reduce_irreducible
from hobchar.symmetric import sym_irreducible_table

from _oracles import (
    conjugate_partition,
    frobenius,
    hook_length_degree,
    kostka,
    mn_bipartition_character,
    mn_character,
    naive_mat_mul,
    plethysm_column,
    transpose,
)


def slow(*values):
    return [pytest.param(v, marks=pytest.mark.slow) for v in values]


def bipartition(label):
    """The label rule: row (parts, flags) of Y is chi^(alpha, beta), alpha
    the flag-0 parts and beta the flag-1 parts."""
    pairs = tuple(zip(label.partition, label.flags))
    return tuple(p for p, f in pairs if not f), tuple(p for p, f in pairs if f)


@pytest.mark.parametrize("n", [*range(1, 13), *slow(16)])
def test_sym_rows_are_murnaghan_nakayama(n):
    x, _ = sym_irreducible_table(n)
    for lam, row in zip(x.row_labels, x.entries):
        assert row == tuple(mn_character(lam, mu) for mu in x.col_labels), lam


@pytest.mark.parametrize("n", [*range(1, 7), *slow(8)])
def test_hob_rows_are_murnaghan_nakayama(n):
    y, _ = hob_irreducible_table(n)
    for label, row in zip(y.row_labels, y.entries):
        alpha, beta = bipartition(label)
        expected = tuple(
            mn_bipartition_character(alpha, beta, a.pos, a.neg)
            for a in y.col_labels
        )
        assert row == expected, label.label
        # chi^(alpha, beta)(1) = C(N, |alpha|) f^alpha f^beta
        degree = comb(n, sum(alpha)) * hook_length_degree(alpha) * hook_length_degree(beta)
        assert row[0] == degree, label.label


@pytest.mark.parametrize("n", [*range(1, 13), *slow(13, 14, 15, 16)])
def test_sym_transition_is_kostka(n):
    # phi^lambda = sum_mu K_{mu, lambda} chi^mu (Macdonald I.6)
    _, delta = sym_irreducible_table(n)
    for lam, row in zip(delta.labels, delta.entries):
        assert row == tuple(kostka(mu, lam) for mu in delta.labels), lam


def kostka_product(alpha, beta, label):
    """Entry (label, (alpha, beta)) of T: a flag-0 part p induces
    chi^((p), ()), a flag-1 part chi^((p), ()) + chi^((), (p)), and the
    product adds a horizontal strip on one side per part (Pieri), so sum
    K_{alpha, A} K_{beta, B} over the ways to send each flag-1 part to A
    or to B, where A also holds every flag-0 part.  A Kostka number does
    not depend on the order of its content, so A and B stay unsorted."""
    fixed, free = bipartition(label)
    total = 0
    for sides in product((0, 1), repeat=len(free)):
        a = fixed + tuple(p for p, side in zip(free, sides) if not side)
        b = tuple(p for p, side in zip(free, sides) if side)
        total += kostka(alpha, a) * kostka(beta, b)
    return total


@pytest.mark.parametrize("n", [*range(1, 7), *slow(7, 8)])
def test_hob_transition_is_a_kostka_product(n):
    _, t = hob_irreducible_table(n)
    columns = [bipartition(label) for label in t.labels]
    for label, row in zip(t.labels, t.entries):
        assert row == tuple(kostka_product(a, b, label) for a, b in columns), label.label


def linear_labels(n):
    return f"{n}-", f"{n}+", ",".join(["1-"] * n), ",".join(["1+"] * n)


@pytest.mark.parametrize("n", [*range(1, 7), *slow(7, 8)])
def test_linear_characters_of_y(n):
    # N- is trivial, N+ is -1 per negative cycle, 1-,...,1- is the sign of
    # the underlying permutation and 1+,...,1+ their product
    y, _ = hob_irreducible_table(n)
    rows = dict(zip((label.label for label in y.row_labels), y.entries))
    trivial, negative, sign, product = linear_labels(n)
    for c, a in enumerate(y.col_labels):
        neg = (-1) ** len(a.neg)
        perm_sign = (-1) ** (n - len(a.pos) - len(a.neg))
        assert rows[trivial][c] == 1
        assert rows[negative][c] == neg, a.label
        assert rows[sign][c] == perm_sign, a.label
        assert rows[product][c] == neg * perm_sign, a.label


@pytest.mark.parametrize("n", [*range(1, 7), *slow(7, 8)])
def test_linear_columns_of_r1(n):
    # restriction to the four linear characters is plethysm with h_2 and
    # e_2 (Macdonald I.8 Ex. 6): h_N[h_2] sums s_lambda over lambda with
    # every part even, h_N[e_2] over lambda' with every part even,
    # e_N[h_2] over Frobenius forms (a + 1 | a) and e_N[e_2] over (a | a + 1)
    r1 = reduce_irreducible(n)
    col_of = {label.label: k for k, label in enumerate(r1.col_labels)}
    columns = [col_of[label] for label in linear_labels(n)]
    for lam, row in zip(r1.row_labels, r1.entries):
        a, b = frobenius(lam)
        expected = (
            all(p % 2 == 0 for p in lam),
            all(p % 2 == 0 for p in conjugate_partition(lam)),
            a == tuple(v + 1 for v in b),
            b == tuple(v + 1 for v in a),
        )
        assert tuple(row[k] for k in columns) == tuple(map(int, expected)), lam.label


@lru_cache(maxsize=None)
def plethysm_r1(rows, columns):
    """R1 over the partitions ``rows`` of 2N and, by the label rule, the
    labels ``columns`` of Y: entry <s_lambda, s_alpha[h_2] s_beta[e_2]>."""
    return transpose([plethysm_column(rows, *bipartition(label)) for label in columns])


@pytest.mark.parametrize("n", [*range(1, 7), *slow(7, 8)])
def test_r1_is_a_plethysm(n):
    # Res chi^lambda has <s_lambda, s_alpha[h_2] s_beta[e_2]> copies of
    # chi^(alpha, beta) (Macdonald I.8 and Appendix B)
    r1 = reduce_irreducible(n)
    expected = plethysm_r1(r1.row_labels, r1.col_labels)
    for lam, row, want in zip(r1.row_labels, r1.entries, expected):
        assert row == want, lam.label


@pytest.mark.parametrize("n", range(1, 7))
def test_r2_satisfies_eq8_with_code_disjoint_factors(n):
    # R2 T = Delta R1 with Delta and T from Kostka numbers and R1 from
    # plethysm, so R2 is pinned by factors that share no code with it
    r2 = reduce_induced(n)
    width = len(r2.col_labels)
    columns = [bipartition(label) for label in r2.col_labels]
    t = [[kostka_product(a, b, label) for a, b in columns] for label in r2.col_labels]
    delta = [[kostka(mu, lam) for mu in r2.row_labels] for lam in r2.row_labels]
    r1 = plethysm_r1(r2.row_labels, r2.col_labels)
    assert naive_mat_mul(r2.entries, t, width) == naive_mat_mul(delta, r1, width)
