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

The payload under ``result`` is documented per command in the README.
``_json_text`` writes the envelope with the bytes of ``json.dumps(envelope,
indent=2)``, without importing json: that import alone would add 2-3 ms to
every call's start-up.  The human-readable mode prints the same numeric
content as aligned text.  All error text goes to stderr.

Exit codes: 0 success, 1 rejected input (syntax errors, bad degrees, shared
variables, composite or unproved tower prime, oversized input), 2 internal
consistency failure (a bug, never expected on valid releases).  ``main()``
without an argv owns the process, so it freezes the garbage collector
before it returns: the exit-time collections then have nothing to walk.

Arguments are declared once, in the command table ``_COMMANDS``.  A
well-formed argv (the command name first, exact flag names, values that do
not look like options) is read from it directly by ``_fast_parse``, into the
namespace argparse would build.  Anything else, including ``--help``,
abbreviated flags and every usage error, goes to the argparse parser that
``_build_parser`` builds from the same table, so help text and error
messages are argparse's.  Building that parser costs more than most
commands, which is why a well-formed call never builds it.
"""

from __future__ import annotations

import gc
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .errors import (
    BergerRankError,
    FactorizationIncomplete,
    InternalCheckError,
    InvalidInput,
)
from .exact_poly import (
    UniPoly,
    _squarefree_split,
    discriminant,
    parse_poly,
)
from .galois_cert import (
    DEFAULT_PRIME_BOUND,
    WITNESSES,
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


# -- JSON serialization ----------------------------------------------------------


def _json_value(obj):
    """Recursively convert library values to JSON-native ones.

    Integral rationals become ints, other rationals "p/q" strings,
    polynomials their canonical rendering.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return int(obj)
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, UniPoly):
        return obj.render()
    if isinstance(obj, GaloisCertificate):
        return _certificate_payload(obj)
    if isinstance(obj, (list, tuple)):
        return [_json_value(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _json_value(v) for k, v in obj.items()}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class _Escapes(dict):
    """The str.translate table of JSON's ASCII escapes: printable ASCII as
    itself, the short escapes, \\uXXXX for every other character and a
    surrogate pair for one beyond the BMP."""

    def __missing__(self, code: int) -> str:
        if code < 0x10000:
            return f"\\u{code:04x}"
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"


_ESCAPES = _Escapes({code: chr(code) for code in range(0x20, 0x7F)})
_ESCAPES.update((ord(c), "\\" + e) for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt'))


def _json_text(obj, indent: str = "") -> str:
    """The text ``json.dumps(obj, indent=2)`` writes, for the types an
    envelope holds: dicts with str keys, lists, tuples, str, int, bool and
    None; ``indent`` is that of the line ``obj`` starts on."""
    if isinstance(obj, str):
        return f'"{obj.translate(_ESCAPES)}"'
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)  # as json writes an int subclass too
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        brackets, items = "[]", [_json_text(v, inner) for v in obj]
    elif isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("cannot serialize a key that is not str")
        brackets = "{}"
        items = [f"{_json_text(k)}: {_json_text(v, inner)}" for k, v in obj.items()]
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not items:
        return brackets
    body = f",\n{inner}".join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def _certificate_payload(cert: GaloisCertificate) -> dict:
    payload = {
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
    if cert.witness is not None:  # keyed by its kind, only when there is one
        kind, values = cert.witness.kind, cert.witness.values
        names = WITNESSES[kind][2]
        payload[kind] = {key: _json_value(v) for key, v in zip(names, values)}
    return payload


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


def _key_lines(payload: dict, keys: list[str]) -> list[str]:
    """One "key: value" line per key, a bool as yes or no and None as "-";
    bools are told by identity, since a disc of 1 == True prints 1."""
    lines = []
    for key in keys:
        value = payload[key]
        if value is True or value is False:
            value = "yes" if value else "no"
        lines.append(f"{key}: {'-' if value is None else value}")
    return lines


def _witness_texts(payload: dict) -> list[tuple[str, str, str]]:
    """The kind, the formula and "name = value, ..." of the witness that a
    certificate payload holds, if any."""
    return [
        (kind, form, ", ".join(f"{n} = {payload[kind][k]}" for k, n in names.items()))
        for kind, (_, form, names) in WITNESSES.items()
        if kind in payload
    ]


def _human_certificate(payload: dict) -> list[str]:
    lines = _key_lines(payload, ["polynomial", "disc", "disc_is_square", "verdict"])
    for kind, form, values in _witness_texts(payload):
        lines.append(f"{kind}: {form}, {values}")
    lines.append("observations:")
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
        if key == "certificate":  # a witness is the reason a side fails
            parts += [
                f"{kind}={form.removeprefix('f = ')} with {values}"
                for kind, form, values in _witness_texts(value)
            ]
            continue
        if key in ("argument", "reason"):
            continue
        parts.append(f"{key}={value}")
    return ", ".join(parts)


def _human_verdict(payload: dict) -> list[str]:
    lines = [
        *_key_lines(payload, ["kind", "rank"]),
        f"layer: p={payload['p']} r={payload['r']} q={payload['q']}",
        f"m: {payload['m']}  n: {payload['n']}  c2: {payload['c2']}",
        *_key_lines(payload, ["trace_Kd_zero", "trace_geometric_zero"]),
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
            tag, factors = _squarefree_split(disc.numerator * disc.denominator)
            result["squarefree_part"] = tag
            result["factors"] = {str(p): e for p, e in sorted(factors.items())}
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
    result = {
        "m": args.m,
        "q": args.q,
        "dim_superelliptic": dim_superelliptic(args.m, args.q),
        "dim_new_part": dim_new_part(args.m, args.q),
    }
    human = _key_lines(result, ["dim_superelliptic", "dim_new_part"])
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
    notes: list[str] = []
    for v in verdicts:
        for note in v.notes:
            if note not in notes:
                notes.append(note)
    human = _aligned(payloads, ["r", "q", "kind", "rank", "c2"])
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
    human = _key_lines(result, list(result)[1:])  # every key but h
    return _envelope("morse", result), human


# A scan lists the disjoint pairs among its rows, so its output and memory
# grow with the square of the width: 1,000 rows give at most 499,500 pairs.
_MAX_C_ROWS = 1000


def _shown_bound(value: int, typed: str) -> str:
    """A --c-range bound as a message prints it: the value up to 20 digits
    (2^64 has 20), else its sign and digit count, so the line stays short."""
    digits = len(typed.strip().lstrip("+-").replace("_", "").lstrip("0"))
    if digits <= 20:
        return str(value)
    return f"{'-' if value < 0 else ''}({digits} digits)"


def _parse_c_range(text: str) -> tuple[int, int]:
    parts = text.strip().split("..")
    if len(parts) != 2:
        raise InvalidInput('--c-range must look like "a..b", e.g. --c-range=-2..2')
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        # two bounds of 20 digits with their signs fit in 44 characters
        shown = repr(text) if len(text) <= 44 else f"{len(text)} characters"
        raise InvalidInput(f"--c-range bounds must be integers, got {shown}") from None
    if lo > hi:
        raise InvalidInput(
            f"--c-range lower bound {_shown_bound(lo, parts[0])} exceeds "
            f"upper bound {_shown_bound(hi, parts[1])}"
        )
    if hi - lo >= _MAX_C_ROWS:
        width = hi - lo + 1 if hi - lo < 2**64 else "over 2^64"  # keep the line short
        raise InvalidInput(
            f"--c-range spans {width} values of c, above the cap of {_MAX_C_ROWS}"
        )
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

# One entry per command, in the order --help lists them: name -> (handler,
# help text, arguments).  An argument is (name, type, default, help); a name
# without a leading "-" is a positional, and the default _REQUIRED marks an
# option that must be given.  Every command also takes a bare --json.  Both
# _fast_parse and _build_parser read this table.
_REQUIRED = object()
_POLY = ("poly", str, _REQUIRED, "polynomial text")
_PRIME_BOUND = (
    "--prime-bound", int, DEFAULT_PRIME_BOUND, "certification sampling bound"
)
_SIDES = (
    ("-f", str, _REQUIRED, "polynomial f(x)"),
    ("-g", str, _REQUIRED, "polynomial g(y)"),
    ("-p", int, _REQUIRED, "tower prime"),
)
_COMMANDS = {
    "poly-disc": (_cmd_poly_disc, "discriminant of a polynomial", (
        ("poly", str, _REQUIRED, 'polynomial text, e.g. "x^4-x-1"'),
    )),
    "galois": (_cmd_galois, "certify the Galois group from cycle types", (
        _POLY,
        ("--prime-bound", int, DEFAULT_PRIME_BOUND,
         f"sample Frobenius classes at primes up to this bound "
         f"(default {DEFAULT_PRIME_BOUND})"),
    )),
    "genus": (_cmd_genus, "genus of the curve for degrees M, N", (
        ("m", int, _REQUIRED, None), ("n", int, _REQUIRED, None),
    )),
    "dims": (_cmd_dims, "Jacobian dimensions at one tower layer Q", (
        ("m", int, _REQUIRED, None), ("q", int, _REQUIRED, None),
    )),
    "decomp": (_cmd_decomp, "new-part dimension table for layers p^0..p^R", (
        ("m", int, _REQUIRED, None), ("p", int, _REQUIRED, None),
        ("r", int, _REQUIRED, None),
    )),
    "rank": (_cmd_rank, "certified rank verdict", (
        *_SIDES, ("-r", int, _REQUIRED, "layer exponent"), _PRIME_BOUND,
    )),
    "rank-table": (_cmd_rank_table, "verdicts for r = 0..max-r", (
        *_SIDES, ("--max-r", int, _REQUIRED, "last exponent"), _PRIME_BOUND,
    )),
    "morse": (_cmd_morse, "Morse test for a polynomial", (_POLY,)),
    "scan": (_cmd_scan, "membership of h - c in A(h) for c in a range", (
        _POLY,
        ("--c-range", str, _REQUIRED, 'integer range "a..b" (use --c-range=-2..2)'),
        _PRIME_BOUND,
    )),
}


def _is_value(token: str) -> bool:
    """True if argparse reads ``token`` as a value on every Python version:
    it does not start with "-", or it is a plain negative integer."""
    return not token.startswith("-") or (
        token[1:].isdigit() and token[1:].isascii()
    )


def _dest(name: str) -> str:
    """The namespace attribute argparse stores an argument under."""
    return name.lstrip("-").replace("-", "_")


def _fast_parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse builds for a well-formed ``argv``, or None.

    Accepted: the command name first; exact flag names, as ``--opt value``
    (also ``-f value``) or ``--opt=value``; a bare ``--json``; separate
    values that start with "-" only as plain negative integers; exactly the
    command's positionals and every required option, each once; int values
    that int() reads.  Anything else (help, abbreviations, ``--``, ``-p7``,
    usage errors) returns None and is left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, arguments = _COMMANDS[argv[0]]
    options = {spec[0]: spec for spec in arguments if spec[0].startswith("-")}
    positionals = [spec for spec in arguments if not spec[0].startswith("-")]
    given: list[tuple[tuple, str]] = []
    words: list[str] = []
    as_json = False
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--json":
            as_json = True
        elif _is_value(token):
            words.append(token)
        else:
            # a long flag may carry its value after "="
            long_flag = token.startswith("--")
            flag, eq, value = token.partition("=") if long_flag else (token, "", "")
            if flag not in options:
                return None
            if not eq:
                value = next(tokens, None)
                if value is None or not _is_value(value):
                    return None
            elif value == "--":  # argparse drops a "--" argument
                return None
            given.append((options.pop(flag), value))
    if len(words) != len(positionals) or any(
        spec[2] is _REQUIRED for spec in options.values()
    ):
        return None
    values = {"command": argv[0], "json": as_json, "func": func}
    for name, _, default, _ in options.values():  # the options not given
        values[_dest(name)] = default
    try:
        for (name, kind, _, _), value in [*zip(positionals, words), *given]:
            values[_dest(name)] = kind(value)
    except ValueError:
        return None
    return SimpleNamespace(**values)


def _build_parser():
    """The argparse tree of ``_COMMANDS``, for help and usage errors."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse exits with status 2 on usage errors; this CLI reserves 2
        for internal failures, so usage problems are remapped to exit 1."""

        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(1)

    parser = _Parser(
        prog="berger-rank",
        description="Certified rank verdicts for Jacobians of the curves "
        "f(x) = t g(y) along prime-power towers k(t^(1/p^r)).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
        for flag, kind, default, arg_help in arguments:
            if not flag.startswith("-"):
                p.add_argument(flag, type=kind, help=arg_help)
            elif default is _REQUIRED:
                p.add_argument(flag, type=kind, required=True, help=arg_help)
            else:
                p.add_argument(flag, type=kind, default=default, help=arg_help)
    return parser


def run(argv: list[str]) -> int:
    """Parse argv, dispatch, print the output, and return the exit code."""
    args = _fast_parse(argv)
    if args is None:
        parser = _build_parser()
        args = parser.parse_args(argv)
        # some Python versions drop the value of "--opt=--", leaving []
        if [] in vars(args).values():
            parser.error("an option value may not be '--'")
    envelope, human = args.func(args)
    if args.json:
        print(_json_text(envelope))
    else:
        for line in human:
            print(line)
        for note in envelope["notes"]:
            print(f"note: {note}")
        for text in envelope["warnings"]:
            print(f"warning: {text}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run the CLI on ``argv``, or own the process and run it on sys.argv:
    the process exits once this returns, so the collector is frozen first."""
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
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
