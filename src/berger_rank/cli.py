"""Command-line front-end.

Subcommands
-----------
poly-disc POLY            discriminant (and squarefree part / factors in JSON)
galois POLY               Galois-group certificate from cycle types mod small p
genus M N                 genus of the curve f(x) = t g(y) with deg f = M, deg g = N
dims M Q                  dim of the superelliptic Jacobian at layer Q and of its new part
decomp M P R              new-part dimension table for the layers p^0 .. p^R
rank -f F -g G -p P -r R  certified rank verdict over k(t^(1/p^r))
rank-table -f F -g G -p P --max-r R   verdicts for r = 0 .. R
morse POLY                Morse test (simple critical points, distinct critical values)
scan POLY --c-range=a..b  which constants c put POLY - c in the full-symmetric set A(h)

Every subcommand accepts --json, which switches the output to a single JSON
document with this envelope::

    {"schema_version": "1", "command": <name>, "result": <payload>,
     "warnings": [<string>, ...], "notes": [<string>, ...]}

The payload under ``result`` is documented per command in the README.  The
human-readable mode prints the same numeric content as aligned text.  All
error text goes to stderr.

Exit codes: 0 success, 1 rejected input (syntax errors, bad degrees, shared
variables, composite tower prime, factoring budget exhausted), 2 internal
consistency failure (a bug, never expected on valid releases).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from enum import Enum
from fractions import Fraction

from .errors import (
    BergerRankError,
    FactorizationIncomplete,
    InternalCheckError,
    InvalidInput,
)
from .exact_poly import (
    UniPoly,
    discriminant,
    factor_int,
    parse_poly,
)
from .galois_cert import (
    DEFAULT_PRIME_BOUND,
    GaloisCertificate,
    certify_galois,
)
from .jacobian_invariants import (
    berger_genus,
    decomposition_table,
    dim_new_part,
    dim_superelliptic,
)
from .morse_scan import disjointness_filter, is_morse, scan_A_h
from .rank_engine import RankVerdict, rank_table, rank_verdict

__all__ = ["main", "run"]

SCHEMA_VERSION = "1"


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this artifact reserves 2
    for internal failures, so usage problems are remapped to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# -- JSON serialization ----------------------------------------------------------


def _json_value(obj):
    """Recursively convert library values to JSON-native ones.

    Integral rationals become ints, other rationals "p/q" strings,
    polynomials their canonical rendering, enums their value string.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return int(obj)
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, UniPoly):
        return obj.render()
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, GaloisCertificate):
        return _certificate_payload(obj)
    if isinstance(obj, (list, tuple)):
        return [_json_value(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _json_value(v) for k, v in obj.items()}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _certificate_payload(cert: GaloisCertificate) -> dict:
    return {
        "polynomial": cert.polynomial.render(),
        "disc": _json_value(cert.disc),
        "disc_is_square": cert.disc_is_square,
        "observations": [
            {"p": ob.p, "pattern": list(ob.pattern)} for ob in cert.observations
        ],
        "rules_fired": [
            {"rule": r.rule, "primes": list(r.primes), "detail": r.detail}
            for r in cert.rules_fired
        ],
        "verdict": cert.verdict.value,
    }


def _verdict_payload(v: RankVerdict) -> dict:
    return {
        "kind": v.kind.value,
        "rank": v.rank,
        "m": v.m,
        "n": v.n,
        "p": v.layer.p,
        "r": v.layer.r,
        "q": v.layer.q,
        "c2": v.c2_value,
        "trace_Kd_zero": v.trace_Kd_zero,
        "trace_geometric_zero": v.trace_geometric_zero.value,
        "hypotheses": [
            {
                "name": h.name,
                "status": h.status.value,
                "evidence": _json_value(h.evidence),
            }
            for h in v.hypotheses
        ],
        "notes": list(v.notes),
    }


def _envelope(command: str, result, warnings=(), notes=()) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "result": result,
        "warnings": list(warnings),
        "notes": list(notes),
    }


# -- human rendering -------------------------------------------------------------


def _aligned(rows: list[dict], columns: list[str]) -> list[str]:
    cells = [
        {c: "-" if row[c] is None else str(row[c]) for c in columns} for row in rows
    ]
    widths = {
        c: max(len(c), max((len(r[c]) for r in cells), default=0)) for c in columns
    }
    lines = ["  ".join(c.rjust(widths[c]) for c in columns)]
    for r in cells:
        lines.append("  ".join(r[c].rjust(widths[c]) for c in columns))
    return lines


def _human_certificate(payload: dict) -> list[str]:
    lines = [
        f"polynomial: {payload['polynomial']}",
        f"disc: {payload['disc']}",
        f"disc_is_square: {'yes' if payload['disc_is_square'] else 'no'}",
        f"verdict: {payload['verdict']}",
        "observations:",
    ]
    for ob in payload["observations"]:
        pattern = ",".join(str(d) for d in ob["pattern"])
        lines.append(f"  p={ob['p']}: {pattern}")
    lines.append("rules_fired:")
    for rule in payload["rules_fired"]:
        primes = ",".join(str(p) for p in rule["primes"])
        lines.append(f"  {rule['rule']} at p in {{{primes}}}: {rule['detail']}")
    return lines


def _brief_evidence(evidence: dict) -> str:
    parts = []
    for key, value in evidence.items():
        if key == "certificate":
            continue
        if key in ("argument", "reason"):
            continue
        parts.append(f"{key}={value}")
    return ", ".join(parts)


def _human_verdict(payload: dict) -> list[str]:
    lines = [
        f"kind: {payload['kind']}",
        f"rank: {'-' if payload['rank'] is None else payload['rank']}",
        f"layer: p={payload['p']} r={payload['r']} q={payload['q']}",
        f"m: {payload['m']}  n: {payload['n']}  c2: {payload['c2']}",
        f"trace_Kd_zero: {'yes' if payload['trace_Kd_zero'] else 'no'}",
        f"trace_geometric_zero: {payload['trace_geometric_zero']}",
    ]
    if payload["hypotheses"]:
        lines.append("hypotheses:")
        for h in payload["hypotheses"]:
            brief = _brief_evidence(h["evidence"])
            suffix = f"  ({brief})" if brief else ""
            lines.append(f"  {h['name']}: {h['status']}{suffix}")
    return lines


# -- command implementations -----------------------------------------------------


def _cmd_poly_disc(args) -> tuple[dict, list[str]]:
    f = parse_poly(args.poly)
    disc = discriminant(f)
    result: dict = {
        "polynomial": f.render(),
        "discriminant": _json_value(disc),
        "squarefree_part": None,
        "factors": None,
    }
    warnings: list[str] = []
    if disc != 0:
        try:
            tag_input = disc.numerator * disc.denominator
            factors = sorted(factor_int(tag_input).items())
            # the sign times every prime to an odd power
            result["squarefree_part"] = math.prod(
                (p for p, e in factors if e % 2), start=-1 if tag_input < 0 else 1
            )
            result["factors"] = {str(p): e for p, e in factors}
        except FactorizationIncomplete:
            warnings.append(
                "factoring budget exhausted; squarefree part and factors omitted"
            )
    human = [str(result["discriminant"])]
    return _envelope("poly-disc", result, warnings), human


def _cmd_galois(args) -> tuple[dict, list[str]]:
    f = parse_poly(args.poly)
    cert = certify_galois(f, prime_bound=args.prime_bound)
    payload = _certificate_payload(cert)
    return _envelope("galois", payload), _human_certificate(payload)


def _cmd_genus(args) -> tuple[dict, list[str]]:
    value = berger_genus(args.m, args.n)
    result = {"m": args.m, "n": args.n, "genus": value}
    return _envelope("genus", result), [str(value)]


def _cmd_dims(args) -> tuple[dict, list[str]]:
    total = dim_superelliptic(args.m, args.q)
    new = dim_new_part(args.m, args.q)
    result = {
        "m": args.m,
        "q": args.q,
        "dim_superelliptic": total,
        "dim_new_part": new,
    }
    human = [f"dim_superelliptic: {total}", f"dim_new_part: {new}"]
    return _envelope("dims", result), human


def _cmd_decomp(args) -> tuple[dict, list[str]]:
    table = decomposition_table(args.m, args.p, args.r)
    rows = [{"i": i, "layer": q, "dim": d} for i, q, d in table.rows]
    result = {
        "m": table.m,
        "p": table.p,
        "r": table.r,
        "rows": rows,
        "total": table.total,
    }
    human = _aligned(rows, ["i", "layer", "dim"]) + [f"total: {table.total}"]
    return _envelope("decomp", result), human


def _cmd_rank(args) -> tuple[dict, list[str]]:
    f = parse_poly(args.f)
    g = parse_poly(args.g)
    verdict = rank_verdict(f, g, args.p, args.r, prime_bound=args.prime_bound)
    payload = _verdict_payload(verdict)
    return _envelope("rank", payload, notes=verdict.notes), _human_verdict(payload)


def _cmd_rank_table(args) -> tuple[dict, list[str]]:
    f = parse_poly(args.f)
    g = parse_poly(args.g)
    verdicts = rank_table(f, g, args.p, args.max_r, prime_bound=args.prime_bound)
    payloads = [_verdict_payload(v) for v in verdicts]
    result = {"f": f.render(), "g": g.render(), "p": args.p, "rows": payloads}
    rows = [
        {
            "r": pl["r"],
            "q": pl["q"],
            "kind": pl["kind"],
            "rank": pl["rank"],
            "c2": pl["c2"],
        }
        for pl in payloads
    ]
    notes: list[str] = []
    for v in verdicts:
        for note in v.notes:
            if note not in notes:
                notes.append(note)
    human = _aligned(rows, ["r", "q", "kind", "rank", "c2"])
    return _envelope("rank-table", result, notes=notes), human


def _cmd_morse(args) -> tuple[dict, list[str]]:
    h = parse_poly(args.poly)
    report = is_morse(h)
    result = {
        "h": report.h.render(),
        "is_morse": report.is_morse,
        "derivative_squarefree": report.derivative_squarefree,
        "critical_value_disc_squarefree": report.critical_value_disc_squarefree,
        "critical_values_poly": report.critical_values_poly.render(),
    }
    human = [
        f"is_morse: {'yes' if report.is_morse else 'no'}",
        f"derivative_squarefree: {'yes' if report.derivative_squarefree else 'no'}",
        "critical_value_disc_squarefree: "
        + ("yes" if report.critical_value_disc_squarefree else "no"),
        f"critical_values_poly: {result['critical_values_poly']}",
    ]
    return _envelope("morse", result), human


def _parse_c_range(text: str) -> tuple[int, int]:
    parts = text.strip().split("..")
    if len(parts) != 2:
        raise InvalidInput('--c-range must look like "a..b", e.g. --c-range=-2..2')
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidInput(f"--c-range bounds must be integers, got {text!r}") from None
    if lo > hi:
        raise InvalidInput(f"--c-range lower bound {lo} exceeds upper bound {hi}")
    return lo, hi


def _cmd_scan(args) -> tuple[dict, list[str]]:
    h = parse_poly(args.poly)
    lo, hi = _parse_c_range(args.c_range)
    results = scan_A_h(h, lo, hi, prime_bound=args.prime_bound)
    rows = [
        {
            "c": res.c,
            "in_A_h": res.in_A_h,
            "quad_tag": res.quad_tag,
            "verdict": res.certificate.verdict.value if res.certificate else None,
            "reason": res.reason,
        }
        for res in results
    ]
    members = [res for res in results if res.in_A_h]
    pairs = [list(pair) for pair in disjointness_filter(members)]
    result = {"h": h.render(), "rows": rows, "disjoint_pairs": pairs}
    human = _aligned(rows, ["c", "in_A_h", "quad_tag", "verdict", "reason"])
    if pairs:
        human.append(
            "disjoint pairs: " + " ".join(f"({a},{b})" for a, b in pairs)
        )
    return _envelope("scan", result), human


# -- argument parsing and dispatch ----------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="berger-rank",
        description="Certified rank verdicts for Jacobians of the curves "
        "f(x) = t g(y) along prime-power towers k(t^(1/p^r)).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
        return p

    p = add("poly-disc", _cmd_poly_disc, "discriminant of a polynomial")
    p.add_argument("poly", help='polynomial text, e.g. "x^4-x-1"')

    p = add("galois", _cmd_galois, "certify the Galois group from cycle types")
    p.add_argument("poly", help="polynomial text")
    p.add_argument(
        "--prime-bound",
        type=int,
        default=DEFAULT_PRIME_BOUND,
        help=f"sample Frobenius classes at primes up to this bound "
        f"(default {DEFAULT_PRIME_BOUND})",
    )

    p = add("genus", _cmd_genus, "genus of the curve for degrees M, N")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = add("dims", _cmd_dims, "Jacobian dimensions at one tower layer Q")
    p.add_argument("m", type=int)
    p.add_argument("q", type=int)

    p = add("decomp", _cmd_decomp, "new-part dimension table for layers p^0..p^R")
    p.add_argument("m", type=int)
    p.add_argument("p", type=int)
    p.add_argument("r", type=int)

    for name, func, needs_r in (
        ("rank", _cmd_rank, True),
        ("rank-table", _cmd_rank_table, False),
    ):
        p = add(
            name,
            func,
            "certified rank verdict" if needs_r else "verdicts for r = 0..max-r",
        )
        p.add_argument("-f", required=True, help="polynomial f(x)")
        p.add_argument("-g", required=True, help="polynomial g(y)")
        p.add_argument("-p", type=int, required=True, help="tower prime")
        if needs_r:
            p.add_argument("-r", type=int, required=True, help="layer exponent")
        else:
            p.add_argument("--max-r", type=int, required=True, help="last exponent")
        p.add_argument(
            "--prime-bound", type=int, default=DEFAULT_PRIME_BOUND,
            help="certification sampling bound",
        )

    p = add("morse", _cmd_morse, "Morse test for a polynomial")
    p.add_argument("poly", help="polynomial text")

    p = add("scan", _cmd_scan, "membership of h - c in A(h) for c in a range")
    p.add_argument("poly", help="polynomial text")
    p.add_argument(
        "--c-range", required=True, help='integer range "a..b" (use --c-range=-2..2)'
    )
    p.add_argument(
        "--prime-bound", type=int, default=DEFAULT_PRIME_BOUND,
        help="certification sampling bound",
    )

    return parser


def run(argv: list[str]) -> int:
    """Parse argv, dispatch, print the output, and return the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    envelope, human = args.func(args)
    if args.json:
        print(json.dumps(envelope, indent=2))
    else:
        for line in human:
            print(line)
        for note in envelope["notes"]:
            print(f"note: {note}")
        for text in envelope["warnings"]:
            print(f"warning: {text}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    # Computed discriminants and resultants outgrow any input cap, so while
    # the CLI runs it prints integers of any length: the interpreter's
    # int-to-str digit limit (Python >= 3.10.7) is lifted, then restored.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            code = run(sys.argv[1:] if argv is None else argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader of stdout has gone (``berger-rank ... | head -1``).
        # Point stdout at devnull so the interpreter's last flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InternalCheckError, AssertionError) as exc:
        print(
            f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr
        )
        return 2
    except BergerRankError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
