"""Pass/fail reports for the built-in consistency checks."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckReport:
    check: str
    n: int
    passed: bool
    first_mismatch: dict | None = None
    note: str | None = None  # human context for the pretty line; not serialized

    def to_dict(self) -> dict:
        out = {"check": self.check, "n": self.n, "pass": self.passed}
        if self.first_mismatch is not None:
            out["first_mismatch"] = dict(self.first_mismatch)
        return out

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"{status} {self.check} n={self.n}"
        if self.note:
            msg += f" ({self.note})"
        if self.first_mismatch:
            mm = self.first_mismatch
            msg += (
                f" first mismatch at ({mm['row_label']}, {mm['col_label']}):"
                f" {mm['lhs']} != {mm['rhs']}"
            )
        return msg


def mismatch(check, n, row_label, col_label, lhs, rhs, note=None) -> CheckReport:
    """A failed report whose first mismatch sits at (``row_label``,
    ``col_label``); the labels are written as their ``str``."""
    first = {"row_label": str(row_label), "col_label": str(col_label), "lhs": lhs, "rhs": rhs}
    return CheckReport(check=check, n=n, passed=False, first_mismatch=first, note=note)


def compare_matrices(check, n, row_labels, col_labels, lhs, rhs, note=None) -> CheckReport:
    """Entrywise comparison; the first differing entry, in row-major
    order, is reported.  Whole rows are compared as tuples first, and
    entries are walked only in a row that differs."""
    for i, row_label in enumerate(row_labels):
        a, b = tuple(lhs[i]), tuple(rhs[i])
        if a == b:
            continue
        for j, col_label in enumerate(col_labels):
            if a[j] != b[j]:
                return mismatch(check, n, row_label, col_label, a[j], b[j], note)
    return CheckReport(check=check, n=n, passed=True, note=note)
