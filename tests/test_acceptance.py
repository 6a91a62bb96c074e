"""Acceptance suite: every exit criterion, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  All equalities are
exact (integer or rational); there are no tolerances anywhere.
"""

import resource
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import pytest

import hobchar as hc
from hobchar.tables import (
    first_column_orthogonality_failure,
    first_orthogonality_failure,
)

from _oracles import (
    flagged_partitions,
    fraction_det,
    fraction_solve,
    naive_mat_mul,
    parse_csv,
    partition_tuples,
    young_coset_character,
)
from test_chains import B3_TO_B1, S6_TO_S2
from test_embedding import double_factorial
from test_hyperoct import B2_I, B2_T, B2_Y
from test_reduction import B2_R1, B2_R2, B3_R1
from test_symmetric import S4_DELTA, S4_PHI, S4_X


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


@contextmanager
def stopwatch(limit, what):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"{what} took {elapsed:.2f}s, limit {limit}s"


def test_criterion_1_s4_golden_tables():
    with criterion("1 degree-4 symmetric golden tables"):
        hc.clear_caches()
        with stopwatch(1.0, "degree-4 tables"):
            phi = hc.sym_induced_table(4)
            x, delta = hc.sym_irreducible_table(4)
        assert phi.entries == S4_PHI
        assert delta.entries == S4_DELTA
        assert x.entries == S4_X


def test_criterion_2_rank2_golden_tables():
    with criterion("2 rank-2 hyperoctahedral golden tables"):
        hc.clear_caches()
        with stopwatch(1.0, "rank-2 tables"):
            classes = hc.hob_classes(2)
            table = hc.hob_induced_table(2)
            y, t = hc.hob_irreducible_table(2)
        assert tuple(o for _, o in classes) == (1, 2, 1, 2, 2)
        assert table.entries == B2_I
        assert t.entries == B2_T
        assert y.entries == B2_Y
        assert first_orthogonality_failure(y) is None
        assert first_column_orthogonality_failure(y) is None


def test_criterion_3_coset_character_suite():
    with criterion("3 intersection orders and coset character"):
        assert hc.intersection_orders(2) == (1, 2, 3, 0, 2)
        assert hc.permutation_character_F(2) == (3, 1, 3, 0, 1)
        expected_identity = {2: 3, 3: 15, 4: 105, 5: 945, 6: 10395}
        for n, value in expected_identity.items():
            f = hc.permutation_character_F(n)
            assert f[0] == value == double_factorial(2 * n - 1)
        for n in range(1, 6):
            f = hc.permutation_character_F(n)
            x, delta = hc.sym_irreducible_table(2 * n)
            orders = [o for _, o in hc.sym_classes(2 * n)]
            constituents = 0
            for lam, row in zip(x.row_labels, x.entries):
                dot = sum(o * a * b for o, a, b in zip(orders, f, row))
                mult = Fraction(dot, factorial(2 * n))
                assert mult == (1 if all(p % 2 == 0 for p in lam) else 0)
                constituents += mult
            assert constituents == len(hc.partitions(n))
            # the re-columned tables share the ambient transition matrix
            phi_mod, x_mod = hc.modified_tables(n)
            assert naive_mat_mul(delta.entries, x_mod.entries, x_mod.ncols) == phi_mod.entries


def test_criterion_4_rank2_branching_and_consistency():
    with criterion("4 branching matrices and the consistency identity"):
        assert hc.reduce_irreducible(2).entries == B2_R1
        assert hc.reduce_induced(2).entries == B2_R2
        for n in range(1, 6):
            report = hc.verify_consistency(n)
            assert report.passed, report.line()


def test_criterion_5_rank3_chain_verification():
    with criterion("5 rank-3 chain verification"):
        hc.clear_caches()
        with stopwatch(5.0, "rank-3 chain verification"):
            assert hc.reduce_irreducible(3).entries == B3_R1
            assert hc.hob_chain(3).entries == B3_TO_B1
            assert hc.sym_chain(6).entries == S6_TO_S2
            for n in (1, 2, 3):
                report = hc.method_b_verify(n)
                assert report.passed, report.line()
        report = hc.method_b_verify(4)
        assert report.passed, report.line()


@pytest.mark.parametrize("n", (2, 3))
def test_criterion_6_oracle_equivalence(n):
    from hobchar.oracle import oracle_agreement

    with criterion(f"6 brute-force equivalence rank {n}"):
        report = oracle_agreement(n)
        assert report.passed, report.line()


def test_criterion_6_oracle_equivalence_rank4():
    from hobchar.oracle import oracle_agreement

    with criterion("6 brute-force equivalence rank 4"):
        report = oracle_agreement(4)
        assert report.passed, report.line()


def test_criterion_7_structural_suite():
    with criterion("7 structural property suite"):
        for n in range(1, 7):
            orders = [o for _, o in hc.hob_classes(n)]
            assert sum(orders) == 2**n * factorial(n)
            assert sum(o for _, o in hc.sym_classes(2 * n)) == factorial(2 * n)
        for n in range(1, 6):
            x, delta = hc.sym_irreducible_table(2 * n)
            y, t_b = hc.hob_irreducible_table(n)
            assert fraction_det(delta.entries) == 1
            assert fraction_det(t_b.entries) == 1
            assert all(delta.entries[i][i] == 1 for i in range(delta.size))
            assert all(t_b.entries[i][i] == 1 for i in range(t_b.size))
            assert first_orthogonality_failure(x) is None
            assert first_column_orthogonality_failure(x) is None
            assert first_orthogonality_failure(y) is None
            assert first_column_orthogonality_failure(y) is None
            r1 = hc.reduce_irreducible(n)
            assert all(isinstance(v, int) and v >= 0 for row in r1.entries for v in row)
            y_deg = [row[0] for row in y.entries]
            for x_row, r_row in zip(x.entries, r1.entries):
                assert sum(m * d for m, d in zip(r_row, y_deg)) == x_row[0]


def _content_by_label(matrix):
    return {
        (str(row_label), str(col_label)): v
        for row_label, row in zip(matrix.row_labels, matrix.entries)
        for col_label, v in zip(matrix.col_labels, row)
    }


def _brute_induced_content(n):
    """The induced-content matrix of rank ``n`` by brute force alone:
    fixed-coset counts of every canonical subgroup over the enumerated
    group, fixed ordered set partitions of every Young subgroup at the
    ambient images of the class representatives, and an exact rational
    solve of R @ I = phi'."""
    from hobchar.oracle import oracle_class_data, oracle_induced_char, to_ambient_permutation

    classes = oracle_class_data(n)
    subgroups = [
        hc.SignedSubgroupLabel(hc.Partition(parts), flags)
        for parts, flags in flagged_partitions(n)
    ]
    assert len(subgroups) == len(classes)
    induced = [oracle_induced_char(n, label) for label in subgroups]
    ambient = [to_ambient_permutation(cls.representative, n) for cls in classes]
    young = partition_tuples(2 * n)
    coset = [[young_coset_character(lam, g) for g in ambient] for lam in young]
    # R I = phi'  <=>  I^T R^T = phi'^T
    solution = fraction_solve(list(zip(*induced)), list(zip(*coset)))
    return {
        (",".join(map(str, lam)), label.label): solution[j][i]
        for i, lam in enumerate(young)
        for j, label in enumerate(subgroups)
    }


def test_criterion_7_induced_content_nonnegativity():
    """Records the sign pattern of the induced-content coefficients.

    ``reduce_induced(n)`` is the unique exact solution R of R @ I = phi'.
    It is non-negative at ranks 1 and 2 only: from rank 3 on some rows
    leave the non-negative cone of the induced basis, because a restricted
    induced character is a permutation character whose point stabilizers
    need not be conjugate to canonical subgroups.  For ranks 1-5 the test
    checks that sign pattern and that the solution is forced (R @ I = phi'
    exactly, det I != 0).  At rank 3 it recomputes the whole matrix by
    brute force, sharing nothing but the label types with ``symmetric``,
    ``embedding``, ``reduction`` and ``tables``, and requires
    entry-for-entry agreement; that pins the three negative entries, the
    smallest counterexample 4,2 / 1-,1-,1- = -1 among them.
    """
    label = "7 induced-content sign pattern (non-negative to rank 2, negative from 3)"
    with criterion(label):
        for n in range(1, 6):
            r2 = hc.reduce_induced(n)
            induced = hc.hob_induced_table(n)
            phi_mod, _ = hc.modified_tables(n)
            assert r2.row_labels == phi_mod.row_labels
            assert r2.col_labels == induced.row_labels
            assert naive_mat_mul(r2.entries, induced.entries, induced.ncols) == phi_mod.entries
            assert fraction_det(induced.entries) != 0
            negative = {k: v for k, v in _content_by_label(r2).items() if v < 0}
            if n <= 2:
                assert not negative, f"rank {n}: negative coefficients {negative}"
            else:
                assert negative, f"rank {n}: no negative coefficient"
        brute = _brute_induced_content(3)
        assert _content_by_label(hc.reduce_induced(3)) == brute
        assert {k: v for k, v in brute.items() if v < 0} == {
            ("4,2", "1-,1-,1-"): -1,
            ("3,3", "2-,1-"): -2,
            ("2,2,2", "1-,1-,1-"): -2,
        }


def test_criterion_8_desk_scale_performance():
    with criterion("8 desk-scale performance"):
        def pipeline(n):
            hc.sym_induced_table(2 * n)
            hc.sym_irreducible_table(2 * n)
            hc.hob_induced_table(n)
            hc.hob_irreducible_table(n)
            hc.reduce_irreducible(n)
            hc.reduce_induced(n)
            assert hc.verify_consistency(n).passed
            assert hc.method_b_verify(n).passed

        hc.clear_caches()
        with stopwatch(10.0, "rank-4 pipeline"):
            pipeline(4)
        hc.clear_caches()
        with stopwatch(120.0, "rank-5 pipeline"):
            pipeline(5)
        # peak resident memory of this process: ru_maxrss counts KiB on
        # Linux and bytes on macOS
        unit = 1 if sys.platform == "darwin" else 1024
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit
        assert peak < 1 << 30, f"peak resident memory {peak / 2**20:.0f} MiB"


def test_criterion_9_serialization(tmp_path):
    from hobchar.serialize import TableCache, from_json, to_csv, to_json
    from test_serialize import latex_entries, sample_documents
    from hobchar.serialize import to_latex

    with criterion("9 serialization and cache"):
        for doc in sample_documents(max_rank=4):
            assert from_json(to_json(doc)) == doc
            row_labels, col_labels, orders, entries = parse_csv(to_csv(doc))
            assert (row_labels, col_labels) == (doc.row_labels, doc.col_labels)
            assert orders == doc.col_class_orders
            assert entries == doc.entries
            assert latex_entries(to_latex(doc)) == doc.entries
        cache = TableCache(tmp_path)
        doc = sample_documents(max_rank=1)[0]
        cache.store(doc)
        assert cache.lookup(doc.group, doc.n, doc.kind) == doc
        cache.path(doc.group, doc.n, doc.kind).write_text("not json at all")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cache.lookup(doc.group, doc.n, doc.kind) is None
        cache.store(doc)
        assert cache.lookup(doc.group, doc.n, doc.kind) == doc
