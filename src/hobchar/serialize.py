"""Table documents, the four output formats, and the on-disk cache.

A ``TableDocument`` is the portable form of any table this package
produces.  JSON is the schema of record (versioned, lossless); CSV,
LaTeX, and the pretty grid render exactly the same integers.  ``render``
is the one place an output format is chosen, for tables, for the class
listings of ``hobchar classes`` and for the reports of ``hobchar verify``
alike.  The JSON text is exactly ``json.dumps(payload, indent=2)``, but
built by joins: with ``indent`` set, CPython's ``json`` leaves its C
encoder for a pure-Python one, which cost a large table about twice the
time.  The cache stores one JSON file per (group, n, kind), ending in a
SHA-256 of the text before it, and treats anything it cannot validate as
a miss.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

SCHEMA_VERSION = 1

GROUPS = ("sym", "hyperoct")
KINDS = (
    "induced",
    "irreducible",
    "modified-induced",
    "modified-irreducible",
    "fchar",
    "branching",
    "transition",
)


class CacheWarning(UserWarning):
    """Non-fatal cache trouble; computation proceeds without the cache."""


@dataclass(frozen=True)
class TableDocument:
    group: str
    n: int
    kind: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    col_class_orders: tuple[int, ...] | None
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # From lists, not generators: exact-size tuples do not fragment the heap.
        object.__setattr__(self, "row_labels", tuple([str(v) for v in self.row_labels]))
        object.__setattr__(self, "col_labels", tuple([str(v) for v in self.col_labels]))
        if self.col_class_orders is not None:
            object.__setattr__(self, "col_class_orders", tuple(self.col_class_orders))
        object.__setattr__(self, "entries", tuple([tuple(r) for r in self.entries]))
        if type(self.n) is not int:
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.group not in GROUPS:
            raise ValueError(f"unknown group tag {self.group!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown table kind {self.kind!r}")
        if len(self.entries) != len(self.row_labels):
            raise ValueError("entry rows do not match row labels")
        for row in self.entries:
            if len(row) != len(self.col_labels):
                raise ValueError("entry columns do not match column labels")
            if not set(map(type, row)) <= {int}:
                raise ValueError("entries must be integers")
        if self.col_class_orders is not None:
            if len(self.col_class_orders) != len(self.col_labels):
                raise ValueError("class orders do not match column labels")
            if not set(map(type, self.col_class_orders)) <= {int}:
                raise ValueError("class orders must be integers")

    @classmethod
    def from_json_dict(cls, data: dict) -> "TableDocument":
        if not isinstance(data, dict):
            raise ValueError("document must be a JSON object")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {data.get('schema_version')!r}")
        try:
            # a string here would become one label or row per character
            for key in ("row_labels", "col_labels", "entries"):
                if type(data[key]) is not list:
                    raise ValueError(f"{key} must be a JSON array")
            if not set(map(type, data["entries"])) <= {list}:
                raise ValueError("each entry row must be a JSON array")
            if type(data["col_class_orders"]) not in (list, type(None)):
                raise ValueError("col_class_orders must be a JSON array or null")
            return cls(
                group=data["group"],
                n=data["n"],
                kind=data["kind"],
                row_labels=data["row_labels"],
                col_labels=data["col_labels"],
                col_class_orders=data["col_class_orders"],
                entries=data["entries"],
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed document: {exc}") from exc


def document_from(table, group, n, kind) -> TableDocument:
    """The document of a labelled matrix; only a character table has class
    orders."""
    return TableDocument(
        group=group,
        n=n,
        kind=kind,
        row_labels=table.row_labels,
        col_labels=table.col_labels,
        col_class_orders=getattr(table, "col_class_orders", None),
        entries=table.entries,
    )


def _json_text(value, pad: str) -> str:
    """``json.dumps(value, indent=2)``, continued at indent ``pad``.

    An exact int is its ``repr`` and an exact str its
    ``encode_basestring_ascii``, the string encoder of ``json.dumps`` under
    its default ``ensure_ascii``; a list or tuple of either alone is one
    C-level join.  The type tests are exact because a bool is an int that
    renders as ``true``.  Every other scalar goes through ``json.dumps``."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return repr(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [
            encode_basestring_ascii(k) + ": " + _json_text(v, inner)
            for k, v in value.items()
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        types = set(map(type, value))
        if types == {int}:
            items = map(repr, value)
        elif types == {str}:
            items = map(encode_basestring_ascii, value)
        else:
            items = [_json_text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(value)


def to_json(doc) -> str:
    """The one JSON writer, for every payload that ``render`` takes."""
    if isinstance(doc, tuple):
        group, n, classes = doc
        payload = {
            "schema_version": SCHEMA_VERSION,
            "group": group,
            "n": n,
            "classes": [{"label": l, "order": o} for l, o in classes],
        }
    elif isinstance(doc, list):
        payload = {"schema_version": SCHEMA_VERSION, "reports": [r.to_dict() for r in doc]}
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "group": doc.group,
            "n": doc.n,
            "kind": doc.kind,
            "row_labels": doc.row_labels,
            "col_labels": doc.col_labels,
            "col_class_orders": doc.col_class_orders,
            "entries": doc.entries,
        }
    return _json_text(payload, "") + "\n"


def from_json(text: str) -> TableDocument:
    return TableDocument.from_json_dict(json.loads(text))


def to_csv(doc) -> str:
    if isinstance(doc, tuple):
        return "\n".join(["label,order"] + [f'"{l}",{o}' for l, o in doc[2]]) + "\n"
    if isinstance(doc, list):
        lines = [f"{r.check},{r.n},{str(r.passed).lower()}" for r in doc]
        return "\n".join(["check,n,pass"] + lines) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(doc.col_labels))
    if doc.col_class_orders is not None:
        writer.writerow(["#order"] + list(doc.col_class_orders))
    for label, row in zip(doc.row_labels, doc.entries):
        writer.writerow([label] + list(row))
    return buf.getvalue()


def to_latex(doc) -> str:
    """The one LaTeX writer: a tabular whose head rows are each followed by
    ``\\hline``, then the body rows.  A table keeps its row and column
    labels outside the numeric grid."""
    if isinstance(doc, tuple):
        spec, heads = "r|r", [["class", "order"]]
        body = [[label, str(order)] for label, order in doc[2]]
    elif isinstance(doc, list):
        spec, heads = "rrl", [["check", "n", "result"]]
        body = [[r.check, str(r.n), "pass" if r.passed else "FAIL"] for r in doc]
    else:
        spec = "r|" + "r" * len(doc.col_labels)
        # a document holds exact ints, whose repr is their str, and quicker
        heads = [["", *doc.col_labels]]
        if doc.col_class_orders is not None:
            heads.append(["order", *map(repr, doc.col_class_orders)])
        rows = zip(doc.row_labels, doc.entries)
        body = [[label, *map(repr, row)] for label, row in rows]
    lines = [r"\begin{tabular}{" + spec + "}"]
    for row in heads:
        lines += [" & ".join(row) + r" \\", r"\hline"]
    lines += [" & ".join(row) + r" \\" for row in body]
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


def to_pretty(doc) -> str:
    if isinstance(doc, tuple):
        width = max(len(l) for l, _ in doc[2])
        return "\n".join(f"{l.rjust(width)}  {o}" for l, o in doc[2]) + "\n"
    if isinstance(doc, list):
        return "\n".join(r.line() for r in doc) + "\n"
    lines = [["", *doc.col_labels]]
    if doc.col_class_orders is not None:
        lines.append(["order", *map(repr, doc.col_class_orders)])
    lines += [[label, *map(repr, row)] for label, row in zip(doc.row_labels, doc.entries)]
    widths = [max(map(len, col)) for col in zip(*lines)]
    out = ["  ".join(map(str.rjust, line, widths)).rstrip() for line in lines]
    return "\n".join(out) + "\n"


# Every output format, named once, with its writer.
_WRITERS = {"json": to_json, "csv": to_csv, "latex": to_latex, "pretty": to_pretty}
FORMATS = tuple(_WRITERS)


def render(doc, fmt: str) -> str:
    """The text of ``doc`` in ``fmt``, one of ``FORMATS``.  ``doc`` is a
    ``TableDocument``, the ``(group, n, [(label, order), ...])`` listing of
    ``hobchar classes`` or the list of ``CheckReport``s of ``hobchar verify``."""
    if fmt not in _WRITERS:
        raise ValueError(f"unknown format {fmt!r}")
    return _WRITERS[fmt](doc)


CACHE_ENV_VAR = "HOBCHAR_CACHE_DIR"

# A cache file is the document's JSON with one more, last member: the
# SHA-256 of the bytes before this separator.
_CHECKSUM_MEMBER = b',\n  "sha256": '


def _checksum(data: bytes) -> str:
    import hashlib  # on first use: loading it costs about 4 ms of every import

    return hashlib.sha256(data).hexdigest()


class TableCache:
    """One JSON file per (group, n, kind); corruption counts as a miss."""

    def __init__(self, root):
        self.root = Path(root)

    def path(self, group: str, n: int, kind: str) -> Path:
        return self.root / f"{group}-{n}-{kind}.json"

    def lookup(self, group: str, n: int, kind: str) -> TableDocument | None:
        """The stored document, or None.  A file that does not parse, does
        not match its key or fails its checksum is a miss with a warning."""
        path = self.path(group, n, kind)
        try:
            raw = path.read_bytes()
            data = json.loads(raw.decode("utf-8"))
            doc = TableDocument.from_json_dict(data)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, RecursionError) as exc:
            warnings.warn(f"ignoring cache file {path}: {exc}", CacheWarning)
            return None
        if (doc.group, doc.n, doc.kind) != (group, n, kind):
            warnings.warn(
                f"cache file {path} does not match its key; ignoring", CacheWarning
            )
            return None
        if data.get("sha256") != _checksum(raw.rpartition(_CHECKSUM_MEMBER)[0]):
            warnings.warn(
                f"cache file {path} fails its checksum; ignoring", CacheWarning
            )
            return None
        return doc

    def store(self, doc: TableDocument) -> None:
        path = self.path(doc.group, doc.n, doc.kind)
        head = to_json(doc)[: -len("\n}\n")].encode()
        content = head + _CHECKSUM_MEMBER + f'"{_checksum(head)}"\n}}\n'.encode()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(content)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            warnings.warn(f"cache write failed for {path}: {exc}", CacheWarning)
