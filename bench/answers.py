"""Answer summaries and the answer check of the benchmark.

A *summary* is the verdict-level part of an answer: what must not change
when a later version only makes certification cheaper.  Certificate
observations and rule firings are left out of summaries on purpose (a
shorter certificate is not a wrong answer); they enter the payload digest,
which is reported but never gated.

The check combines three kinds of evidence:

* self-consistency: every certificate deep-replays to its own verdict;
* independent arithmetic done here, not by the library: the ExactRank
  formula, h(root) = c for rational-root scan rows, and a Sylvester-matrix
  discriminant for the quadratic tag;
* stored answers: every other summary must equal the one recorded in
  ``pool.json`` when the pool was generated.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from fractions import Fraction

from berger_rank import (
    CycleTypeObservation,
    GaloisCertificate,
    GaloisVerdict,
    RuleFiring,
    parse_poly,
    replay_certificate,
)

PROVEN_GALOIS = ("ProvenSymmetric", "ProvenAlternating")
PROVEN_RANK = ("ExactRank", "UpperBoundPlusConstant")
ROOT_REASON = "reducible: rational root "


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(canonical(part).encode())
        h.update(b"\n")
    return h.hexdigest()


# -- payloads and summaries -------------------------------------------------------


def cert_payload(cert: GaloisCertificate) -> dict:
    disc = cert.disc
    return {
        "polynomial": cert.polynomial.render(),
        "disc": str(disc.numerator) if disc.denominator == 1 else str(disc),
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


def cert_from_payload(payload: dict) -> GaloisCertificate:
    """Rebuild a certificate from its JSON form (the CLI's and ours agree)."""
    return GaloisCertificate(
        polynomial=parse_poly(payload["polynomial"]),
        disc=Fraction(str(payload["disc"])),
        disc_is_square=payload["disc_is_square"],
        observations=tuple(
            CycleTypeObservation(ob["p"], tuple(ob["pattern"]))
            for ob in payload["observations"]
        ),
        rules_fired=tuple(
            RuleFiring(r["rule"], tuple(r["primes"]), r["detail"])
            for r in payload["rules_fired"]
        ),
        verdict=GaloisVerdict(payload["verdict"]),
    )


def morse_summary(report) -> dict:
    return {
        "is_morse": report.is_morse,
        "derivative_squarefree": report.derivative_squarefree,
        "critical_value_disc_squarefree": report.critical_value_disc_squarefree,
    }


def scan_row_summary(row) -> dict:
    """Summary of a ScanResult or of a CLI scan row (same keys)."""
    if isinstance(row, dict):
        return {k: row[k] for k in ("c", "in_A_h", "quad_tag", "verdict", "reason")}
    return {
        "c": row.c,
        "in_A_h": row.in_A_h,
        "quad_tag": row.quad_tag,
        "verdict": row.certificate.verdict.value if row.certificate else None,
        "reason": row.reason,
    }


def _rank_summary(payload: dict) -> dict:
    keep = ("kind", "rank", "m", "n", "p", "r", "q", "c2", "trace_geometric_zero")
    out = {k: payload[k] for k in keep}
    out["hypotheses"] = [[h["name"], h["status"]] for h in payload["hypotheses"]]
    return out


def cli_summary(command: str, result: dict) -> dict:
    if command == "rank":
        return _rank_summary(result)
    if command == "rank-table":
        return {"rows": [_rank_summary(row) for row in result["rows"]]}
    if command == "galois":
        return {"verdict": result["verdict"]}
    if command == "poly-disc":
        keep = ("discriminant", "squarefree_part", "factors")
        return {k: result[k] for k in keep}
    if command == "morse":
        keep = (
            "is_morse",
            "derivative_squarefree",
            "critical_value_disc_squarefree",
            "critical_values_poly",
        )
        return {k: result[k] for k in keep}
    if command == "scan":
        return {
            "rows": [scan_row_summary(row) for row in result["rows"]],
            "disjoint_pairs": result["disjoint_pairs"],
        }
    return result  # dims, decomp: the whole result is the answer


def cli_certificates(command: str, result: dict) -> list[dict]:
    """Every certificate payload embedded in a CLI result."""
    if command == "galois":
        return [result]
    if command == "rank":
        payloads = [result]
    elif command == "rank-table":
        payloads = result["rows"]
    else:
        return []
    return [
        h["evidence"]["certificate"]
        for pl in payloads
        for h in pl["hypotheses"]
        if isinstance(h["evidence"], dict) and "certificate" in h["evidence"]
    ]


def cli_verdicts(command: str, result: dict) -> list[str]:
    """Verdict strings of a CLI result, for the decided ratio."""
    if command == "rank":
        return [result["kind"]]
    if command == "rank-table":
        return [row["kind"] for row in result["rows"]]
    if command == "galois":
        return [result["verdict"]]
    if command == "scan":
        return ["in_A_h" if row["in_A_h"] else "no" for row in result["rows"]]
    return []


def is_decided(verdict: str) -> bool:
    return verdict in PROVEN_GALOIS or verdict in PROVEN_RANK or verdict == "in_A_h"


# -- independent arithmetic -------------------------------------------------------


def expected_rank(m: int, n: int, q: int) -> int:
    return (m - 1) * (n - 1) + math.gcd(math.gcd(m, n), q) - 1


def evaluate(coeffs: list[int], x: Fraction) -> Fraction:
    """Horner evaluation of an ascending integer coefficient list."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def sylvester_discriminant(coeffs: list[int]) -> Fraction:
    """disc(f) = (-1)^(m(m-1)/2) Res(f, f') / lc(f), via the Sylvester matrix."""
    m = len(coeffs) - 1
    if m == 1:
        return Fraction(1)
    deriv = [k * coeffs[k] for k in range(1, m + 1)]
    f_desc, d_desc = coeffs[::-1], deriv[::-1]
    size = 2 * m - 1
    rows = [[0] * i + f_desc + [0] * (size - m - 1 - i) for i in range(m - 1)]
    rows += [[0] * i + d_desc + [0] * (size - m - i) for i in range(m)]
    res = _bareiss_det(rows)
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    return Fraction(sign * res, coeffs[-1])


def is_rational_square(q: Fraction) -> bool:
    return (
        q >= 0
        and math.isqrt(q.numerator) ** 2 == q.numerator
        and math.isqrt(q.denominator) ** 2 == q.denominator
    )


# -- certificate checks -----------------------------------------------------------


def replay_problem(cert: GaloisCertificate) -> str | None:
    """None when the certificate deep-replays to its own verdict."""
    try:
        verdict = replay_certificate(cert, deep=True)
    except Exception as exc:  # any error is a failed replay, reported by name
        return f"deep replay raised {type(exc).__name__}: {exc}"
    if verdict is not cert.verdict:
        return f"deep replay gives {verdict.value}, certificate says {cert.verdict.value}"
    return None


def proof_prefix_ratio(cert: GaloisCertificate) -> float:
    """Shortest observation prefix that replays to the same proven verdict,
    over the number of observations; Inconclusive counts in full."""
    obs = cert.observations
    if cert.verdict is GaloisVerdict.INCONCLUSIVE or not obs:
        return 1.0
    for k in range(1, len(obs) + 1):
        if replay_certificate(replace(cert, observations=obs[:k])) is cert.verdict:
            return k / len(obs)
    return 1.0


def galois_problems(variant: dict, workload: str, cert: GaloisCertificate) -> list[str]:
    problems = []
    bad = replay_problem(cert)
    if bad:
        problems.append(bad)
    verdict = cert.verdict.value
    if workload == "galois-unprovable" and verdict in PROVEN_GALOIS:
        problems.append(f"soundness: {variant['text']} certified {verdict}")
    if variant.get("family") == "trinomial" and verdict == "ProvenAlternating":
        problems.append(f"soundness: {variant['text']} certified alternating")
    if {"verdict": verdict} != variant["expect"]:
        problems.append(f"verdict {verdict}, expected {variant['expect']['verdict']}")
    return problems


def scan_row_problems(coeffs: list[int], row: dict, expect: dict | None) -> list[str]:
    """Rational-root rows are checked by arithmetic, other rows by the store."""
    if not row["reason"].startswith(ROOT_REASON):
        if row != expect:
            return [f"scan row {row} differs from stored {expect}"]
        return []
    c = row["c"]
    root = Fraction(row["reason"][len(ROOT_REASON):])
    problems = []
    if row["in_A_h"]:
        problems.append(f"c = {c}: reducible row marked in_A_h")
    if evaluate(coeffs, root) != c:
        problems.append(f"c = {c}: h({root}) != c")
    shifted = [coeffs[0] - c] + coeffs[1:]
    tag = row["quad_tag"]
    if tag is None:
        if expect is None or expect["quad_tag"] is not None:
            problems.append(f"c = {c}: quadratic tag missing")
    elif not is_rational_square(tag * sylvester_discriminant(shifted)):
        problems.append(f"c = {c}: quad_tag {tag} times disc is not a square")
    return problems


def rank_problems(result_rows: list[dict]) -> list[str]:
    problems = []
    for row in result_rows:
        if row["kind"] == "ExactRank":
            want = expected_rank(row["m"], row["n"], row["q"])
            if row["rank"] != want:
                problems.append(
                    f"ExactRank {row['rank']} at (m, n, q) = "
                    f"({row['m']}, {row['n']}, {row['q']}), formula gives {want}"
                )
    return problems
