"""The capacity recursion behind both induced tables, checked against a
direct expansion of the power-sum product (``_oracles``), which shares no
idea with the recursion's sorted, merged part states, and against closed
forms at sizes whose values no longer fit in 64 bits."""

import gc
import itertools
import random
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hobchar import combinatorics
from hobchar.combinatorics import induced_columns, partitions, sign_flag_vectors
from hobchar.hyperoct import hob_induced_table
from hobchar.symmetric import sym_induced_table

from _oracles import (
    induced_value_by_expansion,
    reference_induced_column,
    signed_induced_value_by_expansion,
)


def cell(pos, neg, parts, flags):
    """One cell of the kernel: a table of one class and one row."""
    return induced_columns([(pos, neg)], [(parts, flags)])[0][0]


def column(pos, neg, rows):
    """One column of the kernel: a table of one class."""
    return induced_columns([(pos, neg)], rows)[0]


def sym_cell(cycle_type, parts):
    """One S_n cell: no negative cycles, every flag 0."""
    return cell(cycle_type, (), parts, (0,) * len(parts))


def sym_rows(rows):
    """S_n rows as the kernel's (parts, flags) pairs."""
    return [(parts, (0,) * len(parts)) for parts in rows]


def signed_class(mu, negative):
    """(pos, neg) cycle lengths of the class whose cycles are the parts of
    ``mu``, the i-th negative when ``negative[i]`` is 1."""
    pos = tuple(p for p, s in zip(mu, negative) if not s)
    neg = tuple(p for p, s in zip(mu, negative) if s)
    return pos, neg


@pytest.mark.parametrize("n", range(1, 9))
def test_unsigned_full_grid(n):
    for lam in partitions(n):
        for mu in partitions(n):
            want = induced_value_by_expansion(mu, lam)
            assert sym_cell(mu, lam) == want


@pytest.mark.parametrize("n", range(1, 5))
def test_signed_full_grid(n):
    classes = [
        signed_class(mu, negative)
        for mu in partitions(n)
        for negative in sign_flag_vectors(mu)
    ]
    for lam in partitions(n):
        for flags in itertools.product((0, 1), repeat=len(lam)):
            for pos, neg in classes:
                want = signed_induced_value_by_expansion(pos, neg, lam, flags)
                assert cell(pos, neg, lam, flags) == want


@pytest.mark.parametrize("n", range(1, 9))
def test_sym_induced_table_cells(n):
    table = sym_induced_table(n)
    for lam, row in zip(table.row_labels, table.entries):
        for mu, value in zip(table.col_labels, row):
            assert value == induced_value_by_expansion(mu, lam)


@pytest.mark.parametrize("n", range(1, 5))
def test_hob_induced_table_cells(n):
    table = hob_induced_table(n)
    for label, row in zip(table.row_labels, table.entries):
        for alpha, value in zip(table.col_labels, row):
            want = signed_induced_value_by_expansion(
                alpha.pos, alpha.neg, label.partition, label.flags
            )
            assert value == want


@pytest.mark.parametrize("seed", range(3))
def test_column_memo_ignores_row_order(seed):
    # one memo serves a whole column; rows of other weights, which miss
    # the memo, are mixed in, and every value must match a one-row column
    rng = random.Random(seed)
    rows = [lam for m in (6, 7, 8) for lam in partitions(m)]
    for mu in partitions(7):
        shuffled = rng.sample(rows, len(rows))
        want = [sym_cell(mu, parts) for parts in shuffled]
        assert list(column(mu, (), sym_rows(shuffled))) == want
    subgroups = [(lam, flags) for m in (4, 5) for lam in partitions(m)
                 for flags in itertools.product((0, 1), repeat=len(lam))]
    for mu in partitions(5):
        pos, neg = signed_class(mu, [rng.randint(0, 1) for _ in mu])
        shuffled = rng.sample(subgroups, len(subgroups))
        want = [cell(pos, neg, parts, flags) for parts, flags in shuffled]
        assert list(column(pos, neg, shuffled)) == want


def test_column_memo_is_freed_with_its_counter():
    # the memo must go when the call returns, by reference counting
    # alone: a reference cycle would keep it until the collector runs
    gc.collect()
    gc.disable()
    try:
        induced_columns([((1,) * 8, ()), ((2, 2, 1, 1, 1, 1), ())], sym_rows(partitions(8)))
        induced_columns([((1,) * 3, (1,)), ((2,), (2,))], [((2, 2), (0, 1)), ((3, 1), (1, 0))])
        assert gc.collect() == 0
    finally:
        gc.enable()


@given(st.lists(st.tuples(st.integers(1, 40), st.integers(0, 1), st.integers(0, 1))))
def test_int_states_sort_as_their_triples(triples):
    # ascending ints, read from the top, are the triples sorted descending,
    # so the recursion visits the same parts and keys the same memo entries
    ints = sorted(cap << 2 | flag << 1 | parity for cap, flag, parity in triples)
    decoded = [(s >> 2, s >> 1 & 1, s & 1) for s in reversed(ints)]
    assert decoded == sorted(triples, reverse=True)


def reference_table(rows, classes):
    return tuple(zip(*(reference_induced_column(pos, neg, rows) for pos, neg in classes)))


def assert_sym_matches_reference(n):
    table = sym_induced_table(n)
    rows = sym_rows(table.row_labels)
    assert table.entries == reference_table(rows, [(mu, ()) for mu in table.col_labels])


def assert_hob_matches_reference(n):
    table = hob_induced_table(n)
    rows = [(label.partition, label.flags) for label in table.row_labels]
    classes = [(alpha.pos, alpha.neg) for alpha in table.col_labels]
    assert table.entries == reference_table(rows, classes)


@pytest.mark.parametrize("n", range(1, 13))
def test_sym_table_matches_reference_recursion(n):
    assert_sym_matches_reference(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_hob_table_matches_reference_recursion(n):
    assert_hob_matches_reference(n)


@pytest.mark.slow
def test_degree_16_and_rank_8_match_reference_recursion():
    assert_sym_matches_reference(16)
    assert_hob_matches_reference(8)


@pytest.mark.parametrize(
    "build, n", [(sym_induced_table, 10), (hob_induced_table, 5)], ids=["sym", "hob"]
)
def test_encodes_each_row_once_per_table(build, n, monkeypatch):
    calls = []
    encode = combinatorics._encode
    monkeypatch.setattr(
        combinatorics, "_encode", lambda parts, flags: calls.append(parts) or encode(parts, flags)
    )
    table = build.__wrapped__(n)  # past the cache, so the kernel runs
    assert table.ncols > 1
    assert len(calls) == table.nrows


@given(st.integers(min_value=1, max_value=10), st.data())
@settings(max_examples=60, deadline=None)
def test_random_unsigned_cells(n, data):
    lam = data.draw(st.sampled_from(partitions(n)))
    mu = data.draw(st.sampled_from(partitions(n)))
    want = induced_value_by_expansion(mu, lam)
    assert sym_cell(mu, lam) == want


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=60, deadline=None)
def test_random_signed_cells(n, data):
    lam = data.draw(st.sampled_from(partitions(n)))
    flags = data.draw(st.tuples(*(st.integers(0, 1) for _ in lam)))
    mu = data.draw(st.sampled_from(partitions(n)))
    pos, neg = signed_class(mu, data.draw(st.tuples(*(st.integers(0, 1) for _ in mu))))
    want = signed_induced_value_by_expansion(pos, neg, lam, flags)
    assert cell(pos, neg, lam, flags) == want


def test_weight_mismatch_is_zero():
    assert sym_cell((1,), (2,)) == 0
    # one 2-cycle cannot fill two parts of size 1
    assert sym_cell((2,), (1, 1)) == 0
    assert cell((1,), (), (2,), (0,)) == 0
    assert cell((), (2,), (3,), (1,)) == 0
    # one negative 2-cycle cannot fill two parts of size 1
    assert cell((), (2,), (1, 1), (0, 0)) == 0


def test_odd_parity_in_flagged_part_is_zero():
    # one positive and one negative 1-cycle cannot fill a flag-1 part
    assert cell((1,), (1,), (2,), (1,)) == 0
    assert cell((1,), (1,), (2,), (0,)) == 1


# Past the int64 range: 21! and 2**17 * 17! both exceed 2**63.
DEGREE = 21
RANK = 17


def sample(seq, k, seed=0):
    return random.Random(seed).sample(list(seq), k)


def test_identity_column_is_index_past_int64():
    rows = sample(partitions(DEGREE), 40) + [partitions(DEGREE)[-1]]
    for lam in rows:
        index = factorial(DEGREE) // prod(map(factorial, lam))
        assert sym_cell((1,) * DEGREE, lam) == index
    assert sym_cell((1,) * DEGREE, (1,) * DEGREE) == factorial(DEGREE) > 2**63


def test_signed_identity_column_is_index_past_int64():
    labels = [
        (lam, flags)
        for lam in sample(partitions(RANK), 20)
        for flags in sample(sign_flag_vectors(lam), 2, seed=len(lam))
    ]
    labels.append((partitions(RANK)[-1], (1,) * RANK))
    for lam, flags in labels:
        subgroup = prod(2 ** (p - f) * factorial(p) for p, f in zip(lam, flags))
        index = 2**RANK * factorial(RANK) // subgroup
        assert cell((1,) * RANK, (), lam, flags) == index
    assert cell((1,) * RANK, (), (1,) * RANK, (1,) * RANK) > 2**63


def test_whole_group_row_is_ones():
    for mu in partitions(DEGREE):
        assert sym_cell(mu, (DEGREE,)) == 1
    rng = random.Random(0)
    for mu in sample(partitions(RANK), 60):
        pos, neg = signed_class(mu, [rng.randint(0, 1) for _ in mu])
        assert cell(pos, neg, (RANK,), (0,)) == 1
