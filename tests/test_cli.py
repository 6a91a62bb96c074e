import json

import pytest

from hobchar import oracle, reduction
from hobchar.cli import run
from hobchar.symmetric import CycleType
from hobchar.tables import ExactnessError
from hobchar.serialize import from_json, parse_csv

from test_symmetric import S4_X


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        code, _, _ = invoke(capsys, "table", "--group", "sym", "--going-nowhere")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 2

    def test_out_of_range(self, capsys):
        code, _, err = invoke(capsys, "table", "--group", "sym", "--n", "99", "--kind", "induced")
        assert code == 2
        assert "error:" in err

    def test_arithmetic_fault_exits_cleanly(self, capsys, monkeypatch):
        def broken(n):
            raise ExactnessError("restriction multiplicity is not an exact integer: 1/2")

        monkeypatch.setattr(reduction, "reduce_irreducible", broken)
        code, out, err = invoke(capsys, "branch", "--n", "2", "--kind", "irreducible")
        assert code == 2
        assert out == ""
        assert err == "error: restriction multiplicity is not an exact integer: 1/2\n"

    def test_oracle_invariant_fault_exits_cleanly(self, capsys, monkeypatch):
        # an ambient cycle type that varies within a class is an arithmetic
        # fault of the oracle, reported like any other
        real = oracle.ambient_cycle_type

        def uneven(g, n):
            return CycleType((0, 0, 0, 1)) if g.signs[0] == -1 else real(g, n)

        monkeypatch.setattr(oracle, "ambient_cycle_type", uneven)
        oracle.oracle_class_data.cache_clear()
        try:
            code, out, err = invoke(capsys, "verify", "--check", "oracle", "--n", "2")
        finally:
            oracle.oracle_class_data.cache_clear()
        assert code == 2
        assert out == ""
        assert err.startswith("error: class of ") and "not constant on the class" in err

    def test_modified_needs_even_degree(self, capsys):
        code, _, err = invoke(
            capsys, "table", "--group", "sym", "--n", "5", "--kind", "modified-induced"
        )
        assert code == 2

    def test_modified_rejected_for_hyperoct(self, capsys):
        code, _, _ = invoke(
            capsys, "table", "--group", "hyperoct", "--n", "2", "--kind", "modified-induced"
        )
        assert code == 2

    def test_verify_requires_range(self, capsys):
        code, _, err = invoke(capsys, "verify", "--check", "eq8")
        assert code == 2


class TestTableCommand:
    def test_irreducible_csv_matches_reference(self, capsys):
        code, out, _ = invoke(
            capsys,
            "table", "--group", "sym", "--n", "4", "--kind", "irreducible",
            "--format", "csv", "--no-cache",
        )
        assert code == 0
        _, _, orders, entries = parse_csv(out)
        assert entries == S4_X
        assert orders == (1, 6, 3, 8, 6)

    def test_json_document(self, capsys):
        code, out, _ = invoke(
            capsys,
            "table", "--group", "hyperoct", "--n", "2", "--kind", "induced",
            "--format", "json", "--no-cache",
        )
        assert code == 0
        doc = from_json(out)
        assert doc.group == "hyperoct" and doc.n == 2 and doc.kind == "induced"
        assert doc.entries[0] == (1, 1, 1, 1, 1)

    def test_transition_kind(self, capsys):
        code, out, _ = invoke(
            capsys,
            "table", "--group", "sym", "--n", "4", "--kind", "transition",
            "--format", "json", "--no-cache",
        )
        assert code == 0
        doc = from_json(out)
        assert doc.col_class_orders is None
        assert doc.entries == ((1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 1, 1, 0, 0),
                               (1, 2, 1, 1, 0), (1, 3, 2, 3, 1))

    def test_modified_tables(self, capsys):
        code, out, _ = invoke(
            capsys,
            "table", "--group", "sym", "--n", "4", "--kind", "modified-irreducible",
            "--format", "json", "--no-cache",
        )
        assert code == 0
        assert from_json(out).entries[1] == (3, 1, -1, -1, -1)


class TestClassesCommand:
    def test_pretty(self, capsys):
        code, out, _ = invoke(capsys, "classes", "--group", "hyperoct", "--n", "2")
        assert code == 0
        assert "1+:2" in out

    def test_json(self, capsys):
        code, out, _ = invoke(
            capsys, "classes", "--group", "sym", "--n", "4", "--format", "json"
        )
        payload = json.loads(out)
        assert [c["order"] for c in payload["classes"]] == [1, 6, 3, 8, 6]

    def test_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "classes", "--group", "sym", "--n", "4", "--format", "csv"
        )
        assert out.splitlines()[0] == "label,order"


class TestBranchAndFchar:
    def test_branch_irreducible(self, capsys):
        code, out, _ = invoke(
            capsys, "branch", "--n", "2", "--kind", "irreducible", "--format", "json"
        )
        assert code == 0
        doc = from_json(out)
        assert doc.kind == "branching"
        assert doc.entries == ((1, 0, 0, 0, 0), (0, 0, 1, 1, 0), (1, 1, 0, 0, 0),
                               (0, 0, 0, 1, 1), (0, 1, 0, 0, 0))

    def test_branch_induced(self, capsys):
        code, out, _ = invoke(
            capsys, "branch", "--n", "2", "--kind", "induced", "--format", "json"
        )
        doc = from_json(out)
        assert doc.entries[-1] == (0, 0, 0, 0, 3)

    def test_branch_csv_and_pretty_have_no_order_row(self, capsys):
        code, out, _ = invoke(
            capsys, "branch", "--n", "2", "--kind", "irreducible", "--format", "csv"
        )
        assert code == 0
        assert "#order" not in out
        _, _, orders, entries = parse_csv(out)
        assert orders is None and entries[0] == (1, 0, 0, 0, 0)
        code, out, _ = invoke(
            capsys, "branch", "--n", "2", "--kind", "irreducible"
        )
        assert code == 0
        assert "order" not in out.splitlines()[1]

    def test_fchar(self, capsys):
        code, out, _ = invoke(capsys, "fchar", "--n", "2", "--format", "json")
        assert code == 0
        doc = from_json(out)
        assert doc.kind == "fchar"
        assert doc.entries == ((3, 1, 3, 0, 1),)


class TestVerifyCommand:
    def test_all_rank1(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--check", "all", "--n", "1")
        assert code == 0

    def test_orthogonality_only(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--check", "orthogonality", "--n", "3")
        assert code == 0
        assert out.count("PASS") == 2

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        from hobchar.reports import CheckReport

        import hobchar.cli as cli_mod

        def broken(n):
            return CheckReport(
                check="eq8",
                n=n,
                passed=False,
                first_mismatch={"row_label": "4", "col_label": "2-", "lhs": 1, "rhs": 2},
            )

        monkeypatch.setattr(cli_mod.reduction, "verify_consistency", broken)
        code, out, _ = invoke(capsys, "verify", "--check", "eq8", "--n", "2")
        assert code == 1
        assert "FAIL eq8 n=2" in out and "first mismatch" in out
        code, out, _ = invoke(
            capsys, "verify", "--check", "eq8", "--n", "2", "--format", "json"
        )
        assert code == 1
        report = json.loads(out)["reports"][0]
        assert report["pass"] is False
        assert report["first_mismatch"]["row_label"] == "4"

    def test_all_rank2(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--check", "all", "--n", "2")
        assert code == 0
        for name in ("eq8", "method-b", "oracle", "orthogonality-sym", "orthogonality-hyperoct"):
            assert any(name in line for line in out.splitlines())

    def test_json_reports(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--check", "eq8", "--n", "1", "--max-n", "3",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [r["n"] for r in payload["reports"]] == [1, 2, 3]
        assert all(r["pass"] for r in payload["reports"])

    def test_oracle_cap(self, capsys):
        code, _, err = invoke(capsys, "verify", "--check", "oracle", "--n", "6")
        assert code == 2
        assert "--allow-slow" in err

    def test_oracle_hard_cap(self, capsys):
        code, _, err = invoke(
            capsys, "verify", "--check", "oracle", "--n", "7", "--allow-slow"
        )
        assert code == 2
        assert "capped at rank 6" in err


class TestCacheIntegration:
    def test_cache_populated_and_reused(self, capsys, tmp_path):
        args = (
            "table", "--group", "sym", "--n", "4", "--kind", "induced",
            "--format", "json", "--cache-dir", str(tmp_path),
        )
        code, first, _ = invoke(capsys, *args)
        assert code == 0
        path = tmp_path / "sym-4-induced.json"
        assert path.exists()
        stamp = path.stat().st_mtime_ns
        code, second, _ = invoke(capsys, *args)
        assert code == 0
        assert second == first
        assert path.stat().st_mtime_ns == stamp  # untouched on a hit

    def test_corrupt_cache_recovers(self, capsys, tmp_path):
        args = (
            "table", "--group", "sym", "--n", "4", "--kind", "induced",
            "--format", "json", "--cache-dir", str(tmp_path),
        )
        code, first, _ = invoke(capsys, *args)
        path = tmp_path / "sym-4-induced.json"
        path.write_text("{ truncated garbage")
        with pytest.warns(Warning):
            code, again, _ = invoke(capsys, *args)
        assert code == 0
        assert again == first
        # recomputed result was re-stored intact
        assert from_json(path.read_text()).entries[0] == (1, 1, 1, 1, 1)

    def test_env_var_supplies_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HOBCHAR_CACHE_DIR", str(tmp_path))
        code, _, _ = invoke(
            capsys, "fchar", "--n", "2", "--format", "json"
        )
        assert code == 0
        assert (tmp_path / "sym-4-fchar.json").exists()

    def test_cache_dir_flag_overrides_env(self, capsys, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        env_dir.mkdir()
        monkeypatch.setenv("HOBCHAR_CACHE_DIR", str(env_dir))
        code, _, _ = invoke(
            capsys, "fchar", "--n", "2", "--format", "json",
            "--cache-dir", str(flag_dir),
        )
        assert code == 0
        assert (flag_dir / "sym-4-fchar.json").exists()
        assert list(env_dir.iterdir()) == []

    def test_no_cache_flag_wins(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HOBCHAR_CACHE_DIR", str(tmp_path))
        code, _, _ = invoke(
            capsys, "fchar", "--n", "2", "--format", "json", "--no-cache"
        )
        assert code == 0
        assert list(tmp_path.iterdir()) == []

    def test_quiet_suppresses_cache_warnings(self, capsys, tmp_path):
        import warnings

        args = (
            "table", "--group", "sym", "--n", "4", "--kind", "induced",
            "--format", "json", "--cache-dir", str(tmp_path),
        )
        invoke(capsys, *args)
        (tmp_path / "sym-4-induced.json").write_text("garbage")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning would blow up
            code, _, _ = invoke(capsys, *args, "--quiet")
        assert code == 0
