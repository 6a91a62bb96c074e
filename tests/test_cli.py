import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hobchar import cli, oracle, reduction
from hobchar.cli import run
from hobchar.tables import ExactnessError
from hobchar.serialize import CacheWarning, from_json

from _oracles import parse_csv
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
        real = oracle._ambient_lengths

        def uneven(g, n):
            return (4,) if g[1][0] == -1 else real(g, n)

        monkeypatch.setattr(oracle, "_ambient_lengths", uneven)
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


class TestEntryPoint:
    """``python -m hobchar.cli`` runs ``main``, which exits with the code
    that ``run`` returns."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    def entry_point(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(self.SRC))
        return subprocess.run(
            [sys.executable, "-m", "hobchar.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_stdout_and_exit_codes(self, capsys):
        argv = ("classes", "--group", "sym", "--n", "4", "--format", "csv")
        done = self.entry_point(*argv)
        assert done.returncode == 0
        assert done.stdout == invoke(capsys, *argv)[1]
        assert self.entry_point("classes", "--group", "sym", "--n", "0").returncode == 2


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
        # the FAIL and first-mismatch branches of every format, byte for byte
        for fmt, digest in (
            ("json", "7d7d027166b67ffbabbc496f0675f92b351f0fc455dcbcc77528bccd40a41d47"),
            ("csv", "ea9e7e651e0e2ea291145d8733ef4ba43aed7970aaaa098707098e55a1ca6f39"),
            ("latex", "7b7e86daf41f0ccf94900f901946c8a300c2d7630765b7412eb124331840fc5a"),
            ("pretty", "d111802b37b08adc746d6eafda7bbcef4c8e4e8121634e55811a276bee04c5cf"),
        ):
            code, out, _ = invoke(
                capsys, "verify", "--check", "eq8", "--n", "2", "--format", fmt
            )
            assert code == 1
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt

    def test_row_orthogonality_failure_report(self, capsys, monkeypatch):
        import hobchar.cli as cli_mod

        # the two rows by their labels, the inner product found and the one
        # expected: 0 off the diagonal, 1 on it
        for fail, row_label, col_label, rhs in (
            ((0, 1, Fraction(1, 2)), "2", "1,1", "0"),
            ((1, 1, Fraction(1, 2)), "1,1", "1,1", "1"),
        ):
            monkeypatch.setattr(cli_mod, "first_orthogonality_failure", lambda table: fail)
            code, out, _ = invoke(
                capsys, "verify", "--check", "orthogonality", "--n", "1", "--format", "json"
            )
            assert code == 1
            report = json.loads(out)["reports"][0]
            assert report["first_mismatch"] == {
                "row_label": row_label,
                "col_label": col_label,
                "lhs": "1/2",
                "rhs": rhs,
            }

    def test_bumped_table_fails_orthogonality_end_to_end(self, capsys, monkeypatch):
        # the degree of chi^(3,1) off by one: rows 4 and 3,1 of the S_4 table
        # then have weighted inner product 1/24, not 0
        from hobchar import symmetric

        real = symmetric.sym_irreducible_table

        def bumped(n):
            x, factor = real(n)
            entries = [list(row) for row in x.entries]
            entries[1][0] += 1
            return dataclasses.replace(x, entries=tuple(map(tuple, entries))), factor

        monkeypatch.setattr(symmetric, "sym_irreducible_table", bumped)
        code, out, _ = invoke(
            capsys, "verify", "--check", "orthogonality", "--n", "2", "--format", "json"
        )
        assert code == 1
        sym, hyperoct = json.loads(out)["reports"]
        assert sym == {
            "check": "orthogonality-sym",
            "n": 2,
            "pass": False,
            "first_mismatch": {"row_label": "4", "col_label": "3,1", "lhs": "1/24", "rhs": "0"},
        }
        assert hyperoct == {"check": "orthogonality-hyperoct", "n": 2, "pass": True}

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

    @pytest.mark.parametrize(
        "corruption", ["non-int numbers", "altered integers", "not utf-8", "deeply nested"]
    )
    def test_corrupt_cache_gives_the_right_table(self, capsys, tmp_path, corruption):
        args = (
            "table", "--group", "sym", "--n", "3", "--kind", "irreducible",
            "--format", "csv", "--cache-dir", str(tmp_path),
        )
        code, first, _ = invoke(capsys, *args)
        assert code == 0
        path = tmp_path / "sym-3-irreducible.json"
        if corruption == "not utf-8":
            path.write_bytes(b"\xff\xfe")
        elif corruption == "deeply nested":
            # the JSON decoder gives up on this with a RecursionError
            path.write_text("[" * 100000 + "]" * 100000)
        elif corruption == "altered integers":
            # integers swapped for other integers, the class orders no
            # longer summing to 3!: a table of the right types, but wrong
            data = json.loads(path.read_text())
            data["entries"][1][1] = 7
            data["col_class_orders"][1:3] = [5, 2]
            path.write_text(json.dumps(data, indent=2) + "\n")
        else:
            data = json.loads(path.read_text())
            data["entries"][0][0] = 2.9
            data["entries"][1][1] = "7"
            data["entries"][2][2] = False
            data["col_class_orders"][1] = 5.5
            path.write_text(json.dumps(data))
        with pytest.warns(CacheWarning) as caught:
            code, again, _ = invoke(capsys, *args)
        assert code == 0
        assert again == first
        assert len(caught) == 1

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


class TestParserBuiltOnce:
    """``run`` parses with the parser built at import and calls the
    ``cmd_*`` global that is bound when it runs."""

    TABLE = ("table", "--group", "sym", "--n", "4", "--kind", "induced")

    def test_run_does_not_build_a_parser(self, capsys, monkeypatch):
        def rebuilt():
            raise RuntimeError("parser rebuilt")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        code, out, _ = invoke(capsys, *self.TABLE, "--no-cache")
        assert code == 0
        assert out

    def test_no_option_carries_over_between_calls(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("HOBCHAR_CACHE_DIR", raising=False)
        code, first, _ = invoke(capsys, *self.TABLE)
        assert code == 0
        code, _, err = invoke(capsys, *self.TABLE, "--format", "yaml")
        assert code == 2
        assert "invalid choice" in err
        assert invoke(capsys, *self.TABLE, "--quiet", "--format", "json",
                      "--cache-dir", str(tmp_path))[0] == 0
        assert invoke(capsys, *self.TABLE, "--no-cache", "--format", "csv")[0] == 0
        code, again, _ = invoke(capsys, *self.TABLE)
        assert code == 0
        assert again == first

    def test_dispatch_calls_the_rebound_command(self, monkeypatch):
        calls = []

        def table(args):
            calls.append((args.command, args.group, args.n, args.kind))
            return 7

        monkeypatch.setattr(cli, "cmd_table", table)
        assert run(list(self.TABLE)) == 7
        assert calls == [("table", "sym", 4, "induced")]


# SHA-256 of stdout and the exit code of ``verify`` and ``branch`` in every
# format at ranks 1-3.  Only their JSON was pinned elsewhere, so a renderer
# change that moves a single byte of CSV, LaTeX or pretty output fails here.
GOLDEN_OUTPUT = [
    ("verify --check all", 1, "json", 0,
     "e90022d695feaffcab99f7284dcd5300a26ea05fa86b62654657203b374b5bf9"),
    ("verify --check all", 1, "csv", 0,
     "53f38edf78aaaa8260eb2d1992588c966e616110c86257b04bf7965d6947c3be"),
    ("verify --check all", 1, "latex", 0,
     "22ed4d2c5004bdbbbe1e393d3c4eeaa1e8d6e40fccd2ca3ca9eab6bb3f7de560"),
    ("verify --check all", 1, "pretty", 0,
     "17bcd6990d3219ce07024750a8d0ddf49be4fe899c90cef982a2a6fb38718b8b"),
    ("verify --check all", 2, "json", 0,
     "180f3798c0cd3a67afa74653a44fab9d70d48da8c8122d3ad937a9bcdbc73e39"),
    ("verify --check all", 2, "csv", 0,
     "815c96a552918f3fb8373b55137b5ad31922f8c6ddb52edcb73fe355be53fa12"),
    ("verify --check all", 2, "latex", 0,
     "f218de988c818cc4a7ec2a498c1793617b793028278ed6136e301b207dc0340c"),
    ("verify --check all", 2, "pretty", 0,
     "6bd0dc673c418310760b69e3bc68a760b917831959b412be0792958e62a22791"),
    ("verify --check all", 3, "json", 0,
     "aa7f7c581e21308efd366437f934c65f597ae344354ba01bfe4945c6dd1c0baa"),
    ("verify --check all", 3, "csv", 0,
     "07edc5138ec05b9570a8e69c407e155c71af4173f01d8005c0ec97dfb210c7f9"),
    ("verify --check all", 3, "latex", 0,
     "606d2fbbc8a0ed8e6300e3878bb5c8becb2ac58ad07a21d73b5d728a5617d499"),
    ("verify --check all", 3, "pretty", 0,
     "68a4eefff709499db774f3cd9750c7c604a48abf8fd2b8a7919f95aea2799cae"),
    ("branch --kind irreducible", 1, "json", 0,
     "0acfe53f1701c492e3e9242001ebeca96d220255f89c4c7721f458cf7f64758f"),
    ("branch --kind irreducible", 1, "csv", 0,
     "79e97b61d6c24eff6230aab7e6ec79c1dd0a07f67325ad64160b063889596df4"),
    ("branch --kind irreducible", 1, "latex", 0,
     "a746d3b89032306c302787b178d5de1cc44dceeca74c1a19cb862e24cf709c90"),
    ("branch --kind irreducible", 1, "pretty", 0,
     "a3e8d97d13129921361fb379606a5bfb422fa5a13289e29b3d6c6e7be12bec90"),
    ("branch --kind irreducible", 2, "json", 0,
     "87eac37e080b362d1ec54b4be72704b9b94a2c7290b353905e835bd191d1fc83"),
    ("branch --kind irreducible", 2, "csv", 0,
     "7b01dfaa9ccbad94afeb3aec86169582cdb982ee290dae230c486568fd54f352"),
    ("branch --kind irreducible", 2, "latex", 0,
     "e04d6f525a69beb6afd2265feca665235ae5e635015b18114c9e6fea112a06f5"),
    ("branch --kind irreducible", 2, "pretty", 0,
     "a371d28de8ba89ee716b09c4e05c2e4f90f3d6aa1446475f3688e2bbd566bd38"),
    ("branch --kind irreducible", 3, "json", 0,
     "352842c51634579a15da9017c3e0ffc0a05a1fc5647f3ae2aa9a595573b79deb"),
    ("branch --kind irreducible", 3, "csv", 0,
     "dfc1a59e70d050a0532d399555b1f5a98c275b81533516a61f362ca2d2d991bb"),
    ("branch --kind irreducible", 3, "latex", 0,
     "043bf8f617aa8caf424453a079aa6131f8264ea52e665a37a527dac4dfb83011"),
    ("branch --kind irreducible", 3, "pretty", 0,
     "eb665a60ca000ae34301d8bb764303cd60784a7ae4008bdd376a32edd7f3b808"),
    ("branch --kind induced", 1, "json", 0,
     "0acfe53f1701c492e3e9242001ebeca96d220255f89c4c7721f458cf7f64758f"),
    ("branch --kind induced", 1, "csv", 0,
     "79e97b61d6c24eff6230aab7e6ec79c1dd0a07f67325ad64160b063889596df4"),
    ("branch --kind induced", 1, "latex", 0,
     "a746d3b89032306c302787b178d5de1cc44dceeca74c1a19cb862e24cf709c90"),
    ("branch --kind induced", 1, "pretty", 0,
     "a3e8d97d13129921361fb379606a5bfb422fa5a13289e29b3d6c6e7be12bec90"),
    ("branch --kind induced", 2, "json", 0,
     "62c7f5115f91ce378d4bfd1e753b4e3c59c5a8382eac1d21c5dda6fc91c15151"),
    ("branch --kind induced", 2, "csv", 0,
     "6fcd82a4dd252ee7c0f59eebed0dce5a46c36b7ee86865a42271ebd0e5cd7c87"),
    ("branch --kind induced", 2, "latex", 0,
     "216899940693cee87bf59b1fd19adb5c9499e11c28319dff36d9d09022192229"),
    ("branch --kind induced", 2, "pretty", 0,
     "345fa60dc6e2a82650d2b385e82a6800a856db8dbfe11e009b315fe31b36f5a6"),
    ("branch --kind induced", 3, "json", 0,
     "194267b7c5ed2f2b533a3409785891bf8d0b041f407eb1012a5b8355243107d1"),
    ("branch --kind induced", 3, "csv", 0,
     "ce0a57c5d26952affc9d0624d99d2bed72f02b5d53654f5edb26214a6257dd63"),
    ("branch --kind induced", 3, "latex", 0,
     "ef285f1c6a7ebc715d7149cdcfab8fc9cfc30ce21228f0384e5b39cb87078983"),
    ("branch --kind induced", 3, "pretty", 0,
     "437d3479904a3dfdb9e4ab13276a9fcee5446f125d8454a4acca7022781703b8"),
]


@pytest.mark.parametrize(
    "command,n,fmt,code,digest",
    GOLDEN_OUTPUT,
    ids=[f"{c.split()[-1]}-{n}-{fmt}" for c, n, fmt, _, _ in GOLDEN_OUTPUT],
)
def test_golden_output(capsys, command, n, fmt, code, digest):
    got, out, _ = invoke(
        capsys, *command.split(), "--n", str(n), "--format", fmt, "--no-cache"
    )
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
