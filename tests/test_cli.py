"""Command-line behavior: envelopes, exit codes, mode parity, fault injection."""

import contextlib
import functools
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def _readme_examples():
    """(argv, expected stdout) for each "$ berger-rank ..." line in README.md,
    the output being the lines up to the next prompt, blank line or fence."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ berger-rank "):
            out = []
            for text in lines[i + 1:]:
                if not text or text.startswith(("$ ", "```")):
                    break
                out.append(text + "\n")
            examples.append((shlex.split(line)[2:], "".join(out)))
    return examples


README_EXAMPLES = _readme_examples()


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

    def test_poly_disc_factors_once(self, capsys, monkeypatch):
        # squarefree_part is read off the same factorization as factors
        from berger_rank import exact_poly

        calls = []
        real = exact_poly._factor_int
        monkeypatch.setattr(exact_poly, "_factor_int", lambda n: calls.append(n) or real(n))
        r = run_json(capsys, "poly-disc", "x^3 - 2")["result"]
        assert len(calls) == 1
        assert r["discriminant"] == -108
        assert r["squarefree_part"] == -3
        assert r["factors"] == {"2": 2, "3": 3}

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

    def test_galois_decomposition_key(self, capsys):
        # x^4 - 2 = G(H) with G = x^2 - 2, H = x^2: the witness is printed
        # in both modes, and only when there is one
        r = run_json(capsys, "galois", "x^4 - 2")["result"]
        assert r["verdict"] == "Inconclusive"
        assert r["decomposition"] == {"outer": "x^2 - 2", "inner": "x^2"}
        code, out, _ = run_cli(capsys, "galois", "x^4 - 2")
        assert "decomposition: f = G(H), G = x^2 - 2, H = x^2\n" in out
        assert "decomposition" not in run_json(capsys, "galois", "x^5+20x+16")["result"]
        code, out, _ = run_cli(capsys, "galois", "x^5+20x+16")
        assert code == 0 and "decomposition" not in out

    def test_galois_binomial_key(self, capsys):
        # (x + 2)^7 - 3: the Dickson witness with alpha = 0, in both modes,
        # and only when there is one
        r = run_json(capsys, "galois", "(x+2)^7 - 3")["result"]
        assert r["verdict"] == "Inconclusive" and r["observations"] == []
        assert r["dickson"] == {"beta": -2, "alpha": 0, "a": 3}
        r = run_json(capsys, "galois", "3(2x + 1/3)^5 - 7/2")["result"]
        assert r["dickson"] == {"beta": "-1/6", "alpha": 0, "a": "7/192"}
        code, out, _ = run_cli(capsys, "galois", "(x+2)^7 - 3")
        assert "dickson: f = lc(D_m(x - b, alpha) - a), b = -2, alpha = 0, a = 3\n" in out
        assert "dickson" not in run_json(capsys, "galois", "x^7 - x - 1")["result"]
        code, out, _ = run_cli(capsys, "galois", "x^7 - x - 1")
        assert code == 0 and "dickson" not in out

    def test_galois_dickson_key(self, capsys):
        # T_7 - 5 = 64 (D_7(x, 1/4) - 5/64): no prime is sampled
        r = run_json(capsys, "galois", "64x^7 - 112x^5 + 56x^3 - 7x - 5")["result"]
        assert r["verdict"] == "Inconclusive" and r["observations"] == []
        assert r["dickson"] == {"beta": 0, "alpha": "1/4", "a": "5/64"}
        assert "decomposition" not in r

    def test_galois_automorphism_key(self, capsys):
        # Phi_11 is abelian: its Frobenius at 2, theta = x^2, is lifted and
        # checked once its first four patterns are homogeneous
        phi11 = "x^10 + x^9 + x^8 + x^7 + x^6 + x^5 + x^4 + x^3 + x^2 + x + 1"
        r = run_json(capsys, "galois", phi11)["result"]
        assert r["verdict"] == "Inconclusive"
        assert r["automorphism"] == {"theta": "x^2"}
        assert [ob["p"] for ob in r["observations"]] == [2, 3, 5, 7]
        assert "decomposition" not in r and "dickson" not in r
        code, out, _ = run_cli(capsys, "galois", phi11)
        assert code == 0
        assert "automorphism: f | f(theta), theta = x^2\n" in out

    def test_galois_factor_key_and_root_rule(self, capsys):
        # (2x - 3)(x^4 + x + 1): a rational root ends the sampling with its
        # linear factor; a search that misses proves transitivity instead
        quintic = "2*x^5 - 3*x^4 + 2*x^2 - x - 3"
        r = run_json(capsys, "galois", quintic)["result"]
        assert r["verdict"] == "Inconclusive"
        assert r["factor"] == {"g": "x - 3/2"}
        assert len(r["observations"]) <= 3
        code, out, _ = run_cli(capsys, "galois", quintic)
        assert code == 0 and "factor: g | f, g = x - 3/2\n" in out
        slot = (
            "3*x^12 - 6*x^11 + 9*x^10 - 4*x^9 + 8*x^8 + 9*x^7 - x^6 + x^5 "
            "+ 8*x^4 + x^3 - x^2 + x - 8"
        )
        r = run_json(capsys, "galois", slot)["result"]
        assert r["verdict"] == "ProvenSymmetric" and "factor" not in r
        assert [ob["p"] for ob in r["observations"]] == [7, 11]
        assert [rule["rule"] for rule in r["rules_fired"]][0] == "R-irreducible"
        argv = ("rank", "-f", quintic, "-g", "y^2 - 1", "-p", "7", "-r", "1")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert (
            f"  galois-f: Fails  (polynomial={quintic}, verdict=Inconclusive, "
            "rules=['R-jordan'], factor=g | f with g = x - 3/2)\n"
        ) in out

    def test_factor_search_rederives_from_json(self, capsys):
        # a certificate rebuilt from the JSON payload, with no witness,
        # re-derives R-irreducible or the factor on replay
        from fractions import Fraction

        from berger_rank import GaloisVerdict, integer_model, parse_poly, replay_certificate
        from berger_rank.galois_cert import (
            CycleTypeObservation,
            GaloisCertificate,
            _evaluate_rules,
        )

        slot = (
            "3*x^12 - 6*x^11 + 9*x^10 - 4*x^9 + 8*x^8 + 9*x^7 - x^6 + x^5 "
            "+ 8*x^4 + x^3 - x^2 + x - 8"
        )
        for text, rule in ((slot, "R-irreducible"), ("x^5 - 4*x^4 - 3*x - 1", None)):
            r = run_json(capsys, "galois", text)["result"]
            cert = GaloisCertificate(
                polynomial=parse_poly(r["polynomial"]),
                disc=Fraction(r["disc"]),
                disc_is_square=r["disc_is_square"],
                observations=tuple(
                    CycleTypeObservation(o["p"], tuple(o["pattern"])) for o in r["observations"]
                ),
                rules_fired=(),
                verdict=GaloisVerdict(r["verdict"]),
            )
            assert replay_certificate(cert, deep=True).value == r["verdict"]
            model = integer_model(cert.polynomial)
            m = cert.polynomial.degree
            _, fired = _evaluate_rules(m, cert.disc_is_square, cert.observations, model)
            assert [f.rule for f in fired] == [f["rule"] for f in r["rules_fired"]]
            assert (rule in [f.rule for f in fired]) == (rule is not None)
        assert r["factor"] == {"g": "x^2 - x + 1"} and len(r["observations"]) == 1

    def test_rank_payload_on_a_decomposable_side(self, capsys):
        argv = ("rank", "-f", "x^6 + 3x^2 + 1", "-g", "y^2 - 1", "-p", "5", "-r", "1")
        r = run_json(capsys, *argv)["result"]
        galois = next(h for h in r["hypotheses"] if h["name"] == "galois-f")
        assert galois["status"] == "Fails"
        witness = galois["evidence"]["certificate"]["decomposition"]
        assert witness == {"outer": "x^3 + 3*x + 1", "inner": "x^2"}
        assert r["kind"] == "Inconclusive"

    def test_rank_report_names_the_witness(self, capsys):
        # the human report says why the side fails; a side without a
        # witness prints no decomposition
        argv = ("rank", "-f", "x^4 - 2", "-g", "y^2 - 1", "-p", "3", "-r", "1")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert (
            "  galois-f: Fails  (polynomial=x^4 - 2, verdict=Inconclusive, rules=[], "
            "decomposition=G(H) with G = x^2 - 2, H = x^2)\n"
        ) in out
        argv = ("rank", "-f", "x^7 - 3", "-g", "y^2 - 1", "-p", "5", "-r", "1")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert (
            "  galois-f: Fails  (polynomial=x^7 - 3, verdict=Inconclusive, rules=[], "
            "dickson=lc(D_m(x - b, alpha) - a) with b = 0, alpha = 0, a = 3)\n"
        ) in out
        # Phi_11 was Unknown before the automorphism witness
        phi11 = "x^10 + x^9 + x^8 + x^7 + x^6 + x^5 + x^4 + x^3 + x^2 + x + 1"
        argv = ("rank", "-f", phi11, "-g", "y^2 - 1", "-p", "7", "-r", "1")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert (
            f"  galois-f: Fails  (polynomial={phi11}, verdict=Inconclusive, "
            "rules=['R-trans'], automorphism=f | f(theta) with theta = x^2)\n"
        ) in out
        argv = ("rank", "-f", "x^5-x-1", "-g", "y^2-1", "-p", "7", "-r", "2")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "galois-f: Holds" in out
        assert "decomposition" not in out and "dickson=" not in out
        assert "automorphism=" not in out

    def test_rank_payload(self, capsys):
        env = run_json(capsys, "rank", "-f", "x^5-x-1", "-g", "y^2-1", "-p", "7", "-r", "2")
        r = env["result"]
        assert r["kind"] == "ExactRank"
        assert r["rank"] == 4
        assert (r["m"], r["n"], r["p"], r["r"], r["q"], r["c2"]) == (5, 2, 7, 2, 49, 4)
        assert r["trace_Kd_zero"] is True
        names = [h["name"] for h in r["hypotheses"]]
        assert names == ["binomial-cm-g", "galois-f", "hom-vanishing-cm", "c1-zero"]

    def test_rank_payload_on_an_alternating_quintic(self, capsys):
        # Gal(x^5 + 20x + 16) = Alt(5): a 3-cycle at p = 7 in a group of
        # prime degree, so the CM route's Hom-vanishing holds
        argv = ("rank", "-f", "x^5+20x+16", "-g", "y^2-1", "-p", "7", "-r", "2")
        r = run_json(capsys, *argv)["result"]
        assert (r["kind"], r["rank"]) == ("ExactRank", 4)
        galois = next(h for h in r["hypotheses"] if h["name"] == "galois-f")
        assert galois["evidence"]["verdict"] == "ProvenAlternating"

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
        # q = 10^30 + 57 is prime; its totient comes from is_prime, not from
        # trial division up to sqrt(q), which did not finish
        q = 10**30 + 57
        start = time.perf_counter()
        env = run_json(capsys, "dims", "5", str(q))
        assert time.perf_counter() - start < 1.0
        assert env["result"]["dim_superelliptic"] == 2 * (q - 1)
        assert env["result"]["dim_new_part"] == 2 * (q - 1)

    @pytest.mark.parametrize(
        "q, wanted",
        [
            (2 ** 4096 + 1, "layer Q is too large: bit_length(Q) = 4097 exceeds 4096"),
            ((2 ** 521 - 1) * (2 ** 607 - 1), "{q} is not a prime power > 1"),
        ],
        ids=["F12", "M521*M607"],
    )
    def test_dims_large_non_prime_power(self, capsys, q, wanted):
        # neither q factors within the budget; neither is a prime power, and
        # F12 is over the layer cap
        code, out, err = run_cli(capsys, "dims", "5", str(q))
        assert (code, out) == (1, "")
        assert err == f"error: InvalidInput: {wanted.format(q=q)}\n"

    def test_dims_over_the_layer_cap_is_refused_at_once(self, capsys):
        # Q = 2^16384 + 1 took seconds in perfect-power roots and primality
        # tests, and its error line printed all 4,933 digits of Q
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            q = str(2 ** 16384 + 1)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "dims", "5", q)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            "error: InvalidInput: layer Q is too large: "
            "bit_length(Q) = 16385 exceeds 4096\n"
        )

    def test_dims_large_prime_squared(self, capsys):
        p = 2 ** 127 - 1
        env = run_json(capsys, "dims", "5", str(p ** 2))
        assert env["result"]["dim_new_part"] == 2 * (p - 1) * p


class TestLongIntegers:
    """Integers past the interpreter's 4,300-digit int-to-str limit print in
    full, human and JSON; the limit is restored once main returns."""

    BIG = "1" + "0" * 5000  # 10^5000, inside the coefficient cap

    def check(self, capsys, argv, wanted):
        limit = sys.get_int_max_str_digits()
        for mode in ((), ("--json",)):
            code, out, err = run_cli(capsys, *argv, *mode)
            assert (code, err) == (0, ""), mode
            for text in wanted[bool(mode)]:
                assert text in out, (mode, text[:40])
        assert sys.get_int_max_str_digits() == limit

    def test_poly_disc(self, capsys):
        self.check(
            capsys,
            ("poly-disc", "10^5000*x"),
            (["1\n"], [f'"polynomial": "{self.BIG}*x"', '"discriminant": 1,']),
        )

    def test_galois(self, capsys):
        # disc(a x^2 + x + 1) = 1 - 4a = -(4 * 10^5000 - 1)
        disc = "-3" + "9" * 5000
        poly = f"{self.BIG}*x^2 + x + 1"
        self.check(
            capsys,
            ("galois", "10^5000*x^2+x+1", "--prime-bound", "5"),
            (
                [f"polynomial: {poly}\n", f"disc: {disc}\n"],
                [f'"polynomial": "{poly}"', f'"disc": {disc},'],
            ),
        )


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

    def test_long_operand_warning_in_bounded_time(self, capsys):
        # disc = -4 * (the 1000-digit repunit): its ~3,300-bit cofactor left
        # by trial division is over the 2,048-bit cap, so no primality test,
        # perfect-power test or rho runs on it
        text = "factoring budget exhausted; squarefree part and factors omitted"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "poly-disc", "1" * 1000 + "x^2+1")
        assert time.perf_counter() - start < 6.0
        assert (code, out, err) == (0, "-" + "4" * 1000 + "\n", f"warning: {text}\n")

    def test_long_prime_cofactor_warning_in_bounded_time(self, capsys):
        # disc(x^5 - x - c) = 3125 c^4 - 256 with c = 10^1000 + 7 leaves a
        # cofactor of about 13,300 bits, whose primality test alone took
        # seconds before the cofactor cap
        c = 10 ** 1000 + 7
        text = "factoring budget exhausted; squarefree part and factors omitted"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "poly-disc", f"x^5 - x - {c}")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (0, f"{3125 * c ** 4 - 256}\n", f"warning: {text}\n")

    def test_factoring_budget_does_not_grow_with_the_operand(self, capsys):
        # disc = -4 * (the 100-digit repunit), whose last cofactor is a product
        # of two primes of about 70 bits that rho cannot split in budget
        text = "factoring budget exhausted; squarefree part and factors omitted"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "poly-disc", "1" * 100 + "x^2+1")
        assert time.perf_counter() - start < 2.0
        assert (code, out, err) == (0, "-" + "4" * 100 + "\n", f"warning: {text}\n")

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
            ("scan", "x^5-x", "--c-range=1.5..2"),
            ("galois", "x^4-x+2", "--prime-bound", str(MAX_PRIME_BOUND + 1)),
            ("rank", "-f", "x^5-x-1", "-g", "y^2-1", "-p", "7", "-r", "1",
             "--prime-bound", str(MAX_PRIME_BOUND + 1)),
        ]
        for argv in cases:
            code, out, err = run_cli(capsys, *argv)
            assert code == 1, argv
            assert err, argv

    @pytest.mark.parametrize(
        "argv, position",
        [(("galois", "x^²"), 2), (("morse", "x^² - x"), 2), (("poly-disc", "x³ + 2"), 1)],
        ids=["galois", "morse", "poly-disc"],
    )
    def test_superscript_is_one_error_line(self, capsys, argv, position):
        # one line, no traceback, and no variable named x³
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        char = argv[1][position]
        assert err == (
            f"error: PolySyntaxError: unexpected character {char!r} at position {position}\n"
        )

    def test_c_range_width_cap(self, capsys):
        # the disjoint pairs grow with the square of the rows scanned
        assert cli._parse_c_range("1..1000") == (1, 1000)
        assert cli._parse_c_range("-500..499") == (-500, 499)
        for text in ("1..1001", "-500..500"):
            with pytest.raises(cli.InvalidInput, match="spans 1001 values of c, above the cap"):
                cli._parse_c_range(text)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "scan", "x^5 - x", "--c-range=-50000..50000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            "error: InvalidInput: --c-range spans 100001 values of c, above the cap of 1000\n"
        )
        # a bound of 5,000 digits is not echoed back
        code, out, err = run_cli(capsys, "scan", "x^5 - x", "--c-range=0.." + "9" * 5000)
        assert (code, out) == (1, "")
        assert err == (
            "error: InvalidInput: --c-range spans over 2^64 values of c, above the cap of 1000\n"
        )

    def test_c_range_refusals_name_long_bounds_by_length(self, capsys):
        # a bound over 20 digits is named by its digit count, a non-integer
        # option over 44 characters by its length; short ones are echoed
        cases = [
            ("5..-" + "1" * 5000,
             "--c-range lower bound 5 exceeds upper bound -(5000 digits)"),
            ("+" + "9" * 30 + "..7",
             "--c-range lower bound (30 digits) exceeds upper bound 7"),
            ("0..x" + "9" * 5000,
             "--c-range bounds must be integers, got 5004 characters"),
            ("2..-2", "--c-range lower bound 2 exceeds upper bound -2"),
            ("-18446744073709551616..-18446744073709551617",
             "--c-range lower bound -18446744073709551616 exceeds upper bound "
             "-18446744073709551617"),
            ("1.5..2", "--c-range bounds must be integers, got '1.5..2'"),
        ]
        for text, message in cases:
            code, out, err = run_cli(capsys, "scan", "x^5 - x", "--c-range=" + text)
            assert (code, out, err) == (1, "", f"error: InvalidInput: {message}\n"), text

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

    def test_coefficient_cap_exits_1(self, capsys):
        # 2^60000 * 2^5535 is bounded by 65537 bits: the cap + 1
        over = "*".join(["2^10000"] * 6) + "*2^5535"
        for text in (over, "((2^10000)^10000)^10000", "(x + 2^4000)^10000"):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "poly-disc", text)
            assert time.perf_counter() - start < 1.0, text
            assert code == 1
            assert out == ""
            assert err.startswith("error: PolySyntaxError: coefficients above 65536 bits")

    def test_power_cap_exits_1(self, capsys):
        # a dense power over 2^23 bits (degree times coefficient bits) is
        # refused before it is built: this one took 40 s to parse
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "poly-disc", "(350.915*x - 25)^918")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err == (
            "error: PolySyntaxError: power above 8388608 bits "
            "(degree times coefficient bits)\n"
        )

    def test_literal_cap_exits_1(self, capsys):
        # a literal at the 4,300-digit cap parses; one digit more is refused
        # with one short line, not an echo of every digit or a traceback
        cap = "1" * 4300
        code, out, err = run_cli(capsys, "poly-disc", cap + "x")
        assert (code, out, err) == (0, "1\n", "")  # a linear polynomial
        for text in (cap + "1x", "1." + cap + "x"):
            code, out, err = run_cli(capsys, "poly-disc", text)
            assert code == 1
            assert out == ""
            assert err.startswith(
                "error: PolySyntaxError: numeric literal at position 0 has more than 4300 digits"
            )
            assert err.count("\n") == 1 and len(err) < 120

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

    def test_layer_cap_precedes_the_primality_test(self, capsys, monkeypatch):
        # p = 2^4423 - 1 is prime, and too large for any layer, r = 0 included;
        # testing its primality first took seconds
        from berger_rank import jacobian_invariants, rank_engine

        def refuse(n):
            raise AssertionError("is_prime called before the layer cap")

        for module in (jacobian_invariants, rank_engine):
            monkeypatch.setattr(module, "is_prime", refuse)
        p = str(2 ** 4423 - 1)
        pair = ("-f", "x^5-x-1", "-g", "y^2-1", "-p", p)
        for argv in (
            ("rank", *pair, "-r", "1"),
            ("rank", *pair, "-r", "0"),
            ("rank-table", *pair, "--max-r", "0"),
            ("decomp", "5", p, "0"),
        ):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            assert time.perf_counter() - start < 1.0, argv[0]
            assert (code, out) == (1, ""), argv[0]
            assert err.startswith("error: InvalidInput: layer <4423-bit p>^"), argv[0]
            assert err.endswith("= 4423 exceeds 4096\n") and err.count("\n") == 1

    def test_internal_failure_exits_2(self, capsys, monkeypatch):
        def broken(m, n):
            raise ParityBug("injected")

        monkeypatch.setattr(cli, "berger_genus", broken)
        code, out, err = run_cli(capsys, "genus", "5", "2")
        assert code == 2
        assert "ParityBug" in err

    @pytest.mark.parametrize("argv", [["decomp", "5", "7", "3"], ["genus", "5", "2", "--json"]])
    def test_closed_stdout_pipe_exits_1_without_traceback(self, argv):
        # stdout is a pipe that no one reads any more, as in
        # ``berger-rank rank-table ... | head -1`` once head has exited
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(cli.__file__).resolve().parents[1])
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "berger_rank.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                env={**os.environ, "PYTHONPATH": src},
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

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

    def test_readme_examples_found(self):
        assert len(README_EXAMPLES) == 16

    @pytest.mark.parametrize(
        "argv, expected", README_EXAMPLES, ids=[" ".join(a) for a, _ in README_EXAMPLES]
    )
    def test_readme_example(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == expected


# -- the argument fast path against argparse -------------------------------------

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _pool_commands():
    """The benchmark's rank-cli pool commands, each polynomial unshifted and
    with x negated (the second form often starts with "-")."""
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    argvs = []
    for slot in json.loads((BENCH / "pool.json").read_text())["rank-cli"]:
        for sub in ([1, 0], [-1, 0]):
            argv = inputs.variant(slot, sub)["argv"]
            if argv not in argvs:
                argvs.append(argv)
    return argvs


POOL_COMMANDS = _pool_commands()

FLAGS = sorted(
    {spec[0] for _, _, args in cli._COMMANDS.values() for spec in args if spec[0][0] == "-"}
    | {"--json"}
)
# values of either type: plain ones, and every form the fast path must leave
# to argparse
VALUES = [
    "5", "7", "0", "-5", "+3", "٣", " 3", "1.5", "", "x^5-x-1", "y^2 - 1",
    "-x^2+1", "-y^2 + 1", "-2..2", "0..1", "--json", "-h", "--", "-1e3", "-٣",
]
VOCAB = [
    *cli._COMMANDS, *FLAGS, *VALUES, "--prime-bound=5", "--max-r=2",
    "--c-range=-2..2", "--c-range=", "--json=1", "--prime", "--prime-b", "--max",
    "--c", "--js", "--help", "-p7", "-f=x", "-fx", "-r-1",
]
PLAIN = {
    int: st.sampled_from(["5", "7", "0", "-5", "+3", "٣", " 3"]),
    str: st.sampled_from(["x^5-x-1", "y^2 - 1", "-5", "0..1", ""]),
}
MIXED = {kind: st.one_of(plain, st.sampled_from(VALUES)) for kind, plain in PLAIN.items()}


@st.composite
def table_argvs(draw, values=None, perturb=True):
    """An argv for one command of the table: its positionals, its required
    options and maybe its optional ones and --json, in any order, each option
    as "flag value" or "--flag=value".  ``values`` maps a type to a strategy
    for its values (default: MIXED); ``perturb`` then inserts, deletes or
    replaces up to two tokens."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    groups = []
    for flag, kind, default, _ in cli._COMMANDS[name][2]:
        value = draw((values or MIXED)[kind])
        if flag[0] != "-":
            groups.append([value])
        elif default is cli._REQUIRED or draw(st.booleans()):
            eq = flag.startswith("--") and draw(st.booleans())
            groups.append([f"{flag}={value}"] if eq else [flag, value])
    if draw(st.booleans()):
        groups.append(["--json"])
    argv = [name] + [token for group in draw(st.permutations(groups)) for token in group]
    for _ in range(draw(st.integers(0, 2)) if perturb else 0):
        i = draw(st.integers(0, len(argv) - 1))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        token = draw(st.sampled_from(VOCAB))
        if edit == "insert":
            argv.insert(i, token)
        elif edit == "delete":
            del argv[i]
        else:
            argv[i] = token
    return argv


@functools.cache
def _argparse_parser():
    return cli._build_parser()


class TestFastPath:
    @given(
        st.one_of(
            table_argvs(PLAIN, perturb=False),
            table_argvs(),
            st.lists(st.sampled_from(VOCAB), max_size=10),
        )
    )
    @example(["scan", "x^5-x-1", "--c-range=--"])  # argparse drops a "--" value
    @example(["genus", "5", "2", "--", "--json"])
    @example(["rank", "-f=x", "-g", "y", "-p", "7", "-r", "2"])
    @settings(max_examples=1000, deadline=None)
    def test_fast_namespace_is_the_argparse_namespace(self, argv):
        fast = cli._fast_parse(argv)
        if fast is None:
            return
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                full = _argparse_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses {argv!r}: {err.getvalue()}")
        assert vars(fast) == vars(full)

    @given(table_argvs(PLAIN, perturb=False))
    @settings(max_examples=300, deadline=None)
    def test_fast_path_takes_well_formed_argvs(self, argv):
        assert cli._fast_parse(argv) is not None

    def test_fast_path_takes_the_readme_examples(self):
        for argv, _ in README_EXAMPLES:
            assert cli._fast_parse(argv) is not None, argv

    def test_output_matches_the_argparse_path(self, capsys, monkeypatch):
        # stdout, stderr and exit code through cli.main, with and without the
        # fast path: pool commands human and --json, README examples, --help
        # at top level and per command, and usage errors
        human = [[arg for arg in argv if arg != "--json"] for argv in POOL_COMMANDS]
        corpus = [
            *POOL_COMMANDS, *human, *(argv for argv, _ in README_EXAMPLES),
            ["--help"], *([name, "--help"] for name in cli._COMMANDS),
            ["bogus-command"], ["rank", "-f", "x^2-2"], [],
            ["rank", "-f", "x^5 - x - 1", "-g", "y^2 - 1", "-p", "7", "-r", "2",
             "--prime-b", "200"],
        ]
        fast = [run_cli(capsys, *argv) for argv in corpus]
        monkeypatch.setattr(cli, "_fast_parse", lambda argv: None)
        for argv, result in zip(corpus, fast):
            assert run_cli(capsys, *argv) == result, argv


# hostile polynomial text: past each input cap, malformed, or short random
# text with no digit runs (so no degree or exponent grows large)
HOSTILE = [
    "(" * 3000 + "x" + ")" * 3000, "1" * 4301 + "x", "x^10001", "x^" + "9" * 60,
    "2^70000*x", "x\x00", "x\ny", "é", "", " ", "-x^2+1", "-y^2 + 1", "1/0",
    "x/(x-x)", "0", "x^2-2", "y^3-y-1", "x+y", "x^-1", "((x)", "x)", "x^5-x-1",
]
POLY_TEXT = st.one_of(
    st.sampled_from(HOSTILE),
    st.text(alphabet="xy+-*/^(). 0123٣", max_size=12).filter(
        lambda text: not re.search(r"\d\d", text)
    ),
)
FUZZ_VALUES = {
    int: st.sampled_from(
        ["0", "1", "2", "3", "5", "7", "-1", "+3", "٣", "1.5", "", "4096",
         "99999999999999999999", str(2 ** 4096 + 1)]
    ),
    str: st.one_of(POLY_TEXT, st.sampled_from(["-2..2", "0..1", "5..-5", "oops", "1..1"])),
}


@given(table_argvs(FUZZ_VALUES))
@example(["scan", "x^5-x", "--c-range=--"])  # argparse may drop a "--" value
@example(["galois", "x^5-x-1", "--prime-bound=--"])
@settings(max_examples=200, deadline=None)
def test_main_fuzz_exits_0_or_1(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < 5.0, argv
    assert code in (0, 1), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_a_new_witness_kind_is_one_table_entry(monkeypatch):
    # a kind added to the table alone is replayed, serialized and rendered
    # by the same code as the built-in ones
    from dataclasses import replace

    from berger_rank import Witness, galois_cert, parse_poly, replay_certificate

    def is_factor(f, g):
        return 1 <= g.degree < f.degree and divmod(f, g)[1] == 0

    monkeypatch.setitem(
        galois_cert.WITNESSES, "factor", (is_factor, "f = g q", {"factor": "g"})
    )
    cert = galois_cert.certify_galois(parse_poly("x^4 - 1"))
    cert = replace(cert, witness=Witness("factor", (parse_poly("x - 1"),)))
    assert replay_certificate(cert, deep=True).value == "Inconclusive"
    payload = cli._certificate_payload(cert)
    assert payload["factor"] == {"factor": "x - 1"}
    assert "factor: f = g q, g = x - 1" in cli._human_certificate(payload)
    assert cli._brief_evidence({"certificate": payload}) == "factor=g q with g = x - 1"
