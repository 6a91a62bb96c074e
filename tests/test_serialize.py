import hashlib
import json
import re
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hobchar import cli, hyperoct, symmetric
from hobchar.hyperoct import hob_induced_table, hob_irreducible_table
from hobchar.reports import CheckReport, mismatch
from hobchar.serialize import (
    GROUPS,
    KINDS,
    CacheWarning,
    TableCache,
    TableDocument,
    _json_text,
    document_from,
    from_json,
    render,
    to_csv,
    to_json,
    to_latex,
    to_pretty,
)
from hobchar.symmetric import sym_induced_table, sym_irreducible_table
from hobchar.tables import BranchingMatrix

from _oracles import parse_csv, reference_json, reference_latex, reference_pretty


def sample_documents(max_rank=3):
    docs = []
    for n in range(1, max_rank + 1):
        docs.append(
            document_from(sym_induced_table(2 * n), "sym", 2 * n, "induced")
        )
        x, delta = sym_irreducible_table(2 * n)
        docs.append(document_from(x, "sym", 2 * n, "irreducible"))
        docs.append(document_from(delta, "sym", 2 * n, "transition"))
        docs.append(
            document_from(hob_induced_table(n), "hyperoct", n, "induced")
        )
        y, t = hob_irreducible_table(n)
        docs.append(document_from(y, "hyperoct", n, "irreducible"))
        docs.append(document_from(t, "hyperoct", n, "transition"))
    return docs


def latex_entries(text):
    """Independent extraction of the integer grid from the LaTeX rendering."""
    rows = []
    for line in text.splitlines():
        if not line.endswith(r"\\") or line.startswith((" &", "order")):
            continue
        cells = [c.strip() for c in line[:-2].split("&")]
        rows.append(tuple(int(v) for v in cells[1:]))
    return tuple(rows)


class TestDocuments:
    def test_validation(self):
        with pytest.raises(ValueError):
            TableDocument("nope", 2, "induced", ("a",), ("b",), (1,), ((1,),))
        with pytest.raises(ValueError):
            TableDocument("sym", 2, "weird", ("a",), ("b",), (1,), ((1,),))
        with pytest.raises(ValueError):
            TableDocument("sym", 2, "induced", ("a",), ("b",), (1,), ((1, 2),))

    @pytest.mark.parametrize(
        "n, orders, entries",
        [
            (2.0, (1,), ((1,),)),
            ("2", (1,), ((1,),)),
            (True, (1,), ((1,),)),
            (2, (1.0,), ((1,),)),
            (2, (True,), ((1,),)),
            (2, (1,), ((False,),)),
        ],
    )
    def test_non_int_numbers_are_rejected(self, n, orders, entries):
        with pytest.raises(ValueError):
            TableDocument("sym", n, "induced", ("a",), ("b",), orders, entries)

    def test_non_integer_matrix_entry_is_rejected(self):
        # the containers check only their shape; integrality is checked
        # where a matrix becomes a document, to be rendered or stored
        matrix = BranchingMatrix(("a",), ("b",), ((Fraction(1, 2),),))
        with pytest.raises(ValueError, match="entries must be integers"):
            document_from(matrix, "hyperoct", 1, "branching")

    @pytest.mark.parametrize("doc", sample_documents(), ids=lambda d: f"{d.group}-{d.n}-{d.kind}")
    def test_json_round_trip(self, doc):
        assert from_json(to_json(doc)) == doc

    @pytest.mark.parametrize("doc", sample_documents(), ids=lambda d: f"{d.group}-{d.n}-{d.kind}")
    def test_csv_same_integers(self, doc):
        row_labels, col_labels, orders, entries = parse_csv(to_csv(doc))
        assert row_labels == doc.row_labels
        assert col_labels == doc.col_labels
        assert orders == doc.col_class_orders
        assert entries == doc.entries

    @pytest.mark.parametrize("doc", sample_documents(), ids=lambda d: f"{d.group}-{d.n}-{d.kind}")
    def test_latex_same_integers(self, doc):
        assert latex_entries(to_latex(doc)) == doc.entries

    def test_pretty_contains_all_values(self):
        doc = sample_documents()[0]
        text = to_pretty(doc)
        for row in doc.entries:
            for v in row:
                assert re.search(rf"\b{v}\b", text)

    def test_render_dispatch(self):
        doc = sample_documents()[0]
        assert render(doc, "json") == to_json(doc)
        with pytest.raises(ValueError):
            render(doc, "yaml")

    @pytest.mark.slow
    def test_json_round_trip_rank5(self):
        for n in (5,):
            for doc in (
                document_from(
                    sym_induced_table(2 * n), "sym", 2 * n, "induced"
                ),
                document_from(
                    sym_irreducible_table(2 * n)[0], "sym", 2 * n, "irreducible"
                ),
                document_from(
                    hob_induced_table(n), "hyperoct", n, "induced"
                ),
                document_from(
                    hob_irreducible_table(n)[0], "hyperoct", n, "irreducible"
                ),
            ):
                assert from_json(to_json(doc)) == doc


def cli_document_keys(max_degree=10, max_rank=5):
    """(group, n, kind) of every document ``hobchar table`` and ``hobchar
    fchar`` write, up to S_10 and rank 5."""
    keys = []
    for n in range(1, max_degree + 1):
        kinds = ["induced", "irreducible", "transition"]
        if n % 2 == 0:
            kinds += ["modified-induced", "modified-irreducible"]
        keys += [("sym", n, kind) for kind in kinds]
    for n in range(1, max_rank + 1):
        keys += [("hyperoct", n, kind) for kind in ("induced", "irreducible", "transition")]
        keys.append(("sym", 2 * n, "fchar"))
    return keys


def check_all_formats(doc):
    """JSON, LaTeX and the pretty grid equal the reference writers; CSV
    parses back to the document."""
    assert to_json(doc) == reference_json(doc)
    assert to_latex(doc) == reference_latex(doc)
    assert to_pretty(doc) == reference_pretty(doc)
    row_labels, col_labels, orders, entries = parse_csv(to_csv(doc))
    assert (row_labels, col_labels, orders, entries) == (
        doc.row_labels, doc.col_labels, doc.col_class_orders, doc.entries
    )


class TestWritersAgainstReference:
    """The writers build their text by joins; the references build it
    through ``json.dumps(payload, indent=2)`` and cell by cell."""

    @pytest.mark.parametrize("key", cli_document_keys(), ids=lambda k: "-".join(map(str, k)))
    def test_cli_document(self, key):
        check_all_formats(cli._compute_table_document(*key))

    def test_class_listings(self):
        listings = [
            ("sym", n, [(ct.label, order) for ct, order in symmetric.sym_classes(n)])
            for n in range(1, 11)
        ] + [
            ("hyperoct", n, [(a.label, order) for a, order in hyperoct.hob_classes(n)])
            for n in range(1, 6)
        ]
        for listing in listings:
            assert to_json(listing) == reference_json(listing)

    def test_reports(self):
        reports = [
            CheckReport(check="eq8", n=1, passed=True),
            CheckReport(check="oracle", n=5, passed=True, note="classes only"),
            mismatch("oracle", 2, "2,1", "(1;1)", 3, -4),
            mismatch("orthogonality-sym", 3, "é\"", "\\", "12", "0"),
        ]
        for doc in ([], reports[:1], reports):
            assert to_json(doc) == reference_json(doc)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_synthetic_documents(self, data):
        nrows = data.draw(st.integers(0, 6), label="rows")
        ncols = data.draw(st.integers(0, 6), label="columns")
        # no "#", which would let a row label pose as the CSV order row,
        # and no control characters, which CSV does not round-trip
        label = st.text(
            st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="#"),
            max_size=8,
        )
        wide = st.integers(-99, 99) | st.integers(-(2**80), 2**80)
        doc = TableDocument(
            group=data.draw(st.sampled_from(GROUPS)),
            n=data.draw(st.integers(-3, 12)),
            kind=data.draw(st.sampled_from(KINDS)),
            row_labels=data.draw(st.lists(label, min_size=nrows, max_size=nrows)),
            col_labels=data.draw(st.lists(label, min_size=ncols, max_size=ncols)),
            col_class_orders=data.draw(
                st.none() | st.lists(wide, min_size=ncols, max_size=ncols)
            ),
            entries=data.draw(
                st.lists(
                    st.lists(wide, min_size=ncols, max_size=ncols),
                    min_size=nrows,
                    max_size=nrows,
                )
            ),
        )
        check_all_formats(doc)


# every JSON scalar the writers meet, and more: any text, ints past 64 bits,
# bools beside ints, null
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**100), 2**100),
    st.text(),
)
json_values = st.recursive(
    json_scalars
    | st.lists(st.integers(-(2**70), 2**70))
    | st.lists(st.text()).map(tuple)
    | st.lists(st.integers() | st.booleans()),
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(st.text(), children, max_size=5)
    ),
    max_leaves=40,
)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    @example({"a": [], "b": (), "c": {}, "d": [[]], "e": [{}]})
    @example(["\x00\x1f\"\\\u2028é\U0001f600", "plain"])
    @example([-1, 2**64, -(2**64) - 1, 0])
    @example([1, True, 0, False])
    @example((True,))
    @example({"k\u00e9\"\\\n": ({"x": None},)})
    def test_equals_json_dumps_indent_2(self, value):
        assert _json_text(value, "") == json.dumps(value, indent=2)


class TestNormalisation:
    """``TableDocument`` stores tuples of tuples whatever sequences it is
    given, and labels as their ``str``."""

    def test_list_and_tuple_input_agree(self):
        from_lists = TableDocument(
            "sym", 2, "induced", ["a", "b"], ["c", "d"], [1, 1], [[1, 1], [1, -1]]
        )
        from_tuples = TableDocument(
            "sym", 2, "induced", ("a", "b"), ("c", "d"), (1, 1), ((1, 1), (1, -1))
        )
        assert from_lists == from_tuples
        for doc in (from_lists, from_tuples):
            for field in (doc.row_labels, doc.col_labels, doc.col_class_orders):
                assert type(field) is tuple
            assert type(doc.entries) is tuple
            assert all(type(row) is tuple for row in doc.entries)

    def test_integer_label_becomes_its_str(self):
        doc = from_json(json.dumps({
            "schema_version": 1, "group": "sym", "n": 2, "kind": "induced",
            "row_labels": [7, "b"], "col_labels": ["c", 11],
            "col_class_orders": [1, 1], "entries": [[1, 1], [1, -1]],
        }))
        assert doc.row_labels == ("7", "b")
        assert doc.col_labels == ("c", "11")

    def test_true_entry_is_rejected(self):
        with pytest.raises(ValueError, match="entries must be integers"):
            TableDocument("sym", 2, "induced", ["a"], ["b"], [1], [[True]])

    def test_stored_table_text_round_trips(self, tmp_path):
        # a cache file is the rendered JSON with one more, last member: the
        # SHA-256 of the text before it
        cache = TableCache(tmp_path)
        doc = document_from(sym_irreducible_table(6)[0], "sym", 6, "irreducible")
        cache.store(doc)
        text = cache.path("sym", 6, "irreducible").read_text()
        head, _, tail = text.rpartition(',\n  "sha256": ')
        assert head + "\n}\n" == to_json(from_json(text)) == to_json(doc)
        assert tail == f'"{hashlib.sha256(head.encode()).hexdigest()}"\n}}\n'


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = TableCache(tmp_path)
        doc = document_from(sym_induced_table(4), "sym", 4, "induced")
        cache.store(doc)
        assert cache.path("sym", 4, "induced").exists()
        assert cache.lookup("sym", 4, "induced") == doc

    def test_miss_on_empty(self, tmp_path):
        cache = TableCache(tmp_path)
        assert cache.lookup("sym", 4, "induced") is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = TableCache(tmp_path)
        doc = document_from(sym_induced_table(4), "sym", 4, "induced")
        cache.store(doc)
        path = cache.path("sym", 4, "induced")
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.warns(CacheWarning):
            assert cache.lookup("sym", 4, "induced") is None

    @pytest.mark.parametrize(
        "where, bad",
        [
            (("n",), 4.0),
            (("n",), "4"),
            (("entries", 0, 0), 2.9),
            (("entries", 1, 1), "7"),
            (("entries", 2, 2), False),
            (("col_class_orders", 1), 5.5),
            (("col_class_orders", 1), "6"),
        ],
    )
    def test_non_int_number_is_a_miss(self, tmp_path, where, bad):
        # int() used to truncate or convert these, so a corrupt file was
        # served as a wrong table
        cache = TableCache(tmp_path)
        cache.store(document_from(sym_induced_table(4), "sym", 4, "induced"))
        path = cache.path("sym", 4, "induced")
        data = json.loads(path.read_text())
        *keys, last = where
        target = data
        for key in keys:
            target = target[key]
        target[last] = bad
        path.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cache.lookup("sym", 4, "induced") is None
        assert [w.category for w in caught] == [CacheWarning]

    @pytest.mark.parametrize("edit", ["entry", "no checksum"])
    def test_edited_file_is_a_miss(self, tmp_path, edit):
        # other integers pass every type check; only the checksum sees them.
        # A file without one, as older builds wrote, is a miss too.
        cache = TableCache(tmp_path)
        doc = document_from(sym_irreducible_table(3)[0], "sym", 3, "irreducible")
        cache.store(doc)
        path = cache.path("sym", 3, "irreducible")
        data = json.loads(path.read_text())
        path.write_text(json.dumps(data, indent=2) + "\n")
        assert cache.lookup("sym", 3, "irreducible") == doc  # same text, a hit
        if edit == "entry":
            data["entries"][1][1] = 7
        else:
            del data["sha256"]
        path.write_text(json.dumps(data, indent=2) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cache.lookup("sym", 3, "irreducible") is None
        assert [str(w.message) for w in caught] == [
            f"cache file {path} fails its checksum; ignoring"
        ]

    @pytest.mark.parametrize(
        "where, bad",
        [
            (("row_labels",), "21"),
            (("col_labels",), "12"),
            (("entries",), "11"),
            (("entries", 1), "20"),
            (("col_class_orders",), "11"),
            (("col_class_orders",), {"a": 1, "b": 1}),
        ],
    )
    def test_non_array_is_a_miss(self, tmp_path, where, bad):
        # a string of as many characters as labels used to be served, one
        # label per character, under a checksum that matched its text
        cache = TableCache(tmp_path)
        cache.store(document_from(sym_induced_table(2), "sym", 2, "induced"))
        path = cache.path("sym", 2, "induced")
        data = json.loads(path.read_text())
        del data["sha256"]

        def write_checksummed():
            head = json.dumps(data, indent=2)[: -len("\n}")]
            digest = hashlib.sha256(head.encode()).hexdigest()
            path.write_text(head + f',\n  "sha256": "{digest}"\n}}\n')

        write_checksummed()
        assert cache.lookup("sym", 2, "induced") is not None  # a hit as written
        *keys, last = where
        target = data
        for key in keys:
            target = target[key]
        target[last] = bad
        write_checksummed()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cache.lookup("sym", 2, "induced") is None
        assert [w.category for w in caught] == [CacheWarning]
        assert "must be a JSON array" in str(caught[0].message)

    def test_undecodable_file_is_a_miss(self, tmp_path):
        cache = TableCache(tmp_path)
        cache.path("sym", 4, "induced").write_bytes(b"\xff\xfe")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cache.lookup("sym", 4, "induced") is None
        assert [w.category for w in caught] == [CacheWarning]

    def test_wrong_key_is_a_miss(self, tmp_path):
        cache = TableCache(tmp_path)
        doc = document_from(sym_induced_table(4), "sym", 4, "induced")
        cache.store(doc)
        target = cache.path("sym", 6, "induced")
        target.write_text(cache.path("sym", 4, "induced").read_text())
        with pytest.warns(CacheWarning):
            assert cache.lookup("sym", 6, "induced") is None

    def test_unwritable_root_warns_but_does_not_raise(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("this is a file, not a directory")
        cache = TableCache(blocker / "sub")
        doc = document_from(sym_induced_table(4), "sym", 4, "induced")
        with pytest.warns(CacheWarning):
            cache.store(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cache.lookup("sym", 4, "induced") is None

    def test_atomic_replacement(self, tmp_path):
        cache = TableCache(tmp_path)
        doc = document_from(sym_induced_table(4), "sym", 4, "induced")
        cache.store(doc)
        cache.store(doc)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
