"""Command-line behavior: envelopes, exit codes, mode parity, fault injection."""

import json
import time
from pathlib import Path

import pytest

import berger_rank.cli as cli
from berger_rank import MAX_LAYER_BITS, MAX_PRIME_BOUND
from berger_rank.errors import FactorizationIncomplete, ParityBug


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


class TestEnvelope:
    def test_schema_and_roundtrip(self, capsys):
        env = run_json(capsys, "rank", "-f", "x^5-x-1", "-g", "y^2-1", "-p", "7", "-r", "2")
        assert env["schema_version"] == "1"
        assert env["command"] == "rank"
        assert set(env) == {"schema_version", "command", "result", "warnings", "notes"}
        # parse(render(payload)) == payload
        assert json.loads(json.dumps(env)) == env

    def test_all_commands_emit_valid_json(self, capsys):
        invocations = [
            ("poly-disc", "x^4-x-1"),
            ("galois", "x^4-x+2", "--prime-bound", "5"),
            ("genus", "5", "2"),
            ("dims", "5", "5"),
            ("decomp", "4", "2", "2"),
            ("rank", "-f", "x^5-x-1", "-g", "y^2-1", "-p", "7", "-r", "2"),
            ("rank-table", "-f", "x^5-x-1", "-g", "y^5-1", "-p", "5", "--max-r", "2"),
            ("morse", "x^5-x"),
            ("scan", "x^5-x", "--c-range=-2..2"),
        ]
        for argv in invocations:
            env = run_json(capsys, *argv)
            assert env["command"] == argv[0]
            assert json.loads(json.dumps(env)) == env


class TestPayloads:
    def test_poly_disc(self, capsys):
        code, out, err = run_cli(capsys, "poly-disc", "x^4-x-1")
        assert code == 0
        assert out.strip() == "-283"
        env = run_json(capsys, "poly-disc", "x^4-x-1")
        r = env["result"]
        assert r["discriminant"] == -283
        assert r["squarefree_part"] == -283
        assert r["factors"] == {"283": 1}

    def test_poly_disc_rational(self, capsys):
        env = run_json(capsys, "poly-disc", "x^2 - x/2 + 1")
        assert env["result"]["discriminant"] == "-15/4"

    def test_galois(self, capsys):
        env = run_json(capsys, "galois", "x^4-x+2", "--prime-bound", "5")
        r = env["result"]
        assert r["verdict"] == "ProvenSymmetric"
        assert r["observations"] == [
            {"p": 2, "pattern": [1, 1, 2]},
            {"p": 3, "pattern": [4]},
            {"p": 5, "pattern": [1, 3]},
        ]
        assert r["disc"] == 2021
        assert not r["disc_is_square"]

    def test_rank_payload(self, capsys):
        env = run_json(capsys, "rank", "-f", "x^5-x-1", "-g", "y^2-1", "-p", "7", "-r", "2")
        r = env["result"]
        assert r["kind"] == "ExactRank"
        assert r["rank"] == 4
        assert (r["m"], r["n"], r["p"], r["r"], r["q"], r["c2"]) == (5, 2, 7, 2, 49, 4)
        assert r["trace_Kd_zero"] is True
        names = [h["name"] for h in r["hypotheses"]]
        assert names == ["binomial-cm-g", "galois-f", "hom-vanishing-cm", "c1-zero"]

    def test_scan_payload(self, capsys):
        env = run_json(capsys, "scan", "x^5-x", "--c-range=-2..2")
        rows = env["result"]["rows"]
        assert [row["c"] for row in rows] == [-2, -1, 0, 1, 2]
        assert env["result"]["disjoint_pairs"] == [[-2, -1], [-2, 1], [-1, 2], [1, 2]]

    def test_decomp_payload(self, capsys):
        env = run_json(capsys, "decomp", "4", "2", "2")
        assert env["result"]["rows"] == [
            {"i": 1, "layer": 2, "dim": 1},
            {"i": 2, "layer": 4, "dim": 2},
        ]
        assert env["result"]["total"] == 3

    def test_dims_large_prime_layer(self, capsys):
        # q = 10^30 + 57 is prime; its totient comes from factor_int, not from
        # trial division up to sqrt(q), which did not finish
        q = 10**30 + 57
        start = time.perf_counter()
        env = run_json(capsys, "dims", "5", str(q))
        assert time.perf_counter() - start < 1.0
        assert env["result"]["dim_superelliptic"] == 2 * (q - 1)
        assert env["result"]["dim_new_part"] == 2 * (q - 1)


class TestModeParity:
    def test_rank_table_numbers_match(self, capsys):
        args = ("rank-table", "-f", "x^5-x-1", "-g", "y^5-1", "-p", "5", "--max-r", "3")
        env = run_json(capsys, *args)
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        table_rows = [line.split() for line in out.splitlines()[1:] if line and not line.startswith("note:")]
        json_rows = env["result"]["rows"]
        assert len(table_rows) == len(json_rows)
        for cells, payload in zip(table_rows, json_rows):
            assert int(cells[0]) == payload["r"]
            assert int(cells[1]) == payload["q"]
            assert cells[2] == payload["kind"]
            assert int(cells[3]) == payload["rank"]
            assert int(cells[4]) == payload["c2"]

    def test_genus_matches(self, capsys):
        env = run_json(capsys, "genus", "9", "2")
        code, out, _ = run_cli(capsys, "genus", "9", "2")
        assert code == 0
        assert int(out.strip()) == env["result"]["genus"] == 4


class TestWarningsAndNotes:
    def test_warning_on_stderr_and_in_envelope(self, capsys, monkeypatch):
        import berger_rank.exact_poly as ep

        def boom(n):
            raise FactorizationIncomplete("budget")

        monkeypatch.setattr(ep, "_factor_int", boom)
        text = "factoring budget exhausted; squarefree part and factors omitted"
        code, out, err = run_cli(capsys, "poly-disc", "x^4 - x + 2")
        assert (code, out, err) == (0, "2021\n", f"warning: {text}\n")
        env = run_json(capsys, "poly-disc", "x^4 - x + 2")
        assert env["warnings"] == [text]
        assert env["result"]["squarefree_part"] is None

    def test_notes_end_the_human_output(self, capsys):
        argv = ("rank", "-f", "x^6 - x - 1", "-g", "y^2 - 1", "-p", "3", "-r", "1")
        notes = run_json(capsys, *argv)["notes"]
        assert notes
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out.splitlines()[-len(notes):] == [f"note: {n}" for n in notes]


class TestExitCodes:
    def test_success(self, capsys):
        code, _, _ = run_cli(capsys, "genus", "5", "2")
        assert code == 0

    def test_input_errors_exit_1(self, capsys):
        cases = [
            ("poly-disc", "x^^2"),
            ("poly-disc", "x + y"),
            ("rank", "-f", "x^5-x-1", "-g", "x^2-1", "-p", "7", "-r", "1"),
            ("rank", "-f", "x^5-x-1", "-g", "y^2-1", "-p", "6", "-r", "1"),
            ("rank", "-f", "x^5-x-1", "-g", "y^2-1", "-p", "7", "-r", "-1"),
            ("dims", "1", "2"),
            ("scan", "x^5-x", "--c-range", "oops"),
            ("scan", "x^5-x", "--c-range=2..-2"),
            ("galois", "x^4-x+2", "--prime-bound", str(MAX_PRIME_BOUND + 1)),
            ("rank", "-f", "x^5-x-1", "-g", "y^2-1", "-p", "7", "-r", "1",
             "--prime-bound", str(MAX_PRIME_BOUND + 1)),
        ]
        for argv in cases:
            code, out, err = run_cli(capsys, *argv)
            assert code == 1, argv
            assert err, argv

    def test_usage_errors_exit_1(self, capsys):
        for argv in (["bogus-command"], ["rank", "-f", "x^2-2"], []):
            code, _, err = run_cli(capsys, *argv)
            assert code == 1
            assert err

    def test_error_text_not_on_stdout(self, capsys):
        code, out, err = run_cli(capsys, "poly-disc", "x^^2")
        assert code == 1
        assert out == ""
        assert "PolySyntaxError" in err

    def test_deep_nesting_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "poly-disc", "(" * 3000 + "x" + ")" * 3000)
        assert code == 1
        assert out == ""
        assert err.startswith("error: PolySyntaxError")

    def test_degree_cap_exits_1(self, capsys):
        for text in ("x^10001", "(x^100)^101", "x^5000*x^5001"):
            code, out, err = run_cli(capsys, "poly-disc", text)
            assert code == 1
            assert out == ""
            assert err.startswith("error: PolySyntaxError: degree above 10000")

    def test_layer_cap_exits_1(self, capsys):
        # 65537 has 17 bits, and r * 17 = MAX_LAYER_BITS + 1 exactly
        r = (MAX_LAYER_BITS + 1) // 17
        assert r * 17 == MAX_LAYER_BITS + 1
        pair = ("-f", "x^5-x-1", "-g", "y^2-3", "-p", "65537")
        for argv in (
            ("rank", *pair, "-r", str(r)),
            ("rank", *pair, "-r", str(r), "--json"),
            ("rank-table", *pair, "--max-r", str(r)),
            ("decomp", "5", "65537", str(r)),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1, argv
            assert out == "", argv
            assert err.startswith("error: InvalidInput: layer 65537^241"), argv

    def test_internal_failure_exits_2(self, capsys, monkeypatch):
        def broken(m, n):
            raise ParityBug("injected")

        monkeypatch.setattr(cli, "berger_genus", broken)
        code, out, err = run_cli(capsys, "genus", "5", "2")
        assert code == 2
        assert "ParityBug" in err

    def test_assertion_failure_exits_2(self, capsys, monkeypatch):
        def broken(f):
            raise AssertionError("injected")

        monkeypatch.setattr(cli, "discriminant", broken)
        code, _, err = run_cli(capsys, "poly-disc", "x^2-2")
        assert code == 2
        assert "AssertionError" in err


class TestRegressionSuite:
    def test_hidden_from_help(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        # argparse --help raises SystemExit(0); the listing must show every
        # public command and no removed one
        assert code == 0
        assert "paper-examples" not in out + err
        for name in ("poly-disc", "galois", "rank-table", "scan"):
            assert name in out
        # the former hidden regression command is now an unknown command
        code, out, err = run_cli(capsys, "paper-examples")
        assert code == 1
        assert out == ""
        assert "invalid choice: 'paper-examples'" in err

    def test_readme_galois_example(self, capsys):
        # the fenced galois example in README.md is this command's output
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        prompt = '$ berger-rank galois "x^4 - x + 2" --prime-bound 5\n'
        block = readme[readme.index(prompt) + len(prompt):]
        expected = block[: block.index("```")]
        code, out, err = run_cli(
            capsys, "galois", "x^4 - x + 2", "--prime-bound", "5"
        )
        assert code == 0, err
        assert out == expected
