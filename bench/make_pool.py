"""Generate ``pool.json``: the benchmark's inputs with their stored answers.

Each workload is a list of slots (see inputs.py): a base polynomial or CLI
command, the substitutions x -> s*x + k that give its variants, and the
answer the library gives at the commit this script runs on.  The script
checks that every variant gets the base's answer, so one stored answer
serves the whole slot.  Regenerate the pool only when answers are meant to
change:

    PYTHONPATH=src python3 bench/make_pool.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

from berger_rank import (
    UniPoly,
    certify_galois,
    discriminant,
    is_morse,
    parse_poly,
    scan_A_h,
)
from berger_rank.cli import main as cli_main

from answers import ROOT_REASON, cli_summary, morse_summary, scan_row_summary
from inputs import render, substitute, variant

POOL_SEED = 20261017
SUBSTITUTIONS = [(s, k) for s in (1, -1) for k in (0, 1, -1, 2, -2, 3, -3)]
PROVABLE_SLOTS = (
    *(("trinomial", m) for m in range(6, 15)),
    *(("dense", m) for m in range(5, 15)),
    ("trinomial", 25), ("trinomial", 40),
)
UNPROVABLE_SLOTS = (
    ("square", 8), ("square", 10), ("square", 12), ("square", 14), ("square", 16),
    ("radical", 7), ("radical", 9), ("radical", 11), ("radical", 13), ("radical", 16),
    ("chebyshev", 7), ("chebyshev", 9), ("chebyshev", 12), ("chebyshev", 15),
    ("cyclotomic", 8), ("cyclotomic", 10), ("cyclotomic", 12), ("cyclotomic", 16),
)
SCAN_DEGREES = (5, 6, 7, 8, 9)
SCAN_WIDTH = 7
CLI_COMMANDS = ("rank", "rank-table", "galois", "poly-disc", "morse", "decomp", "dims", "scan")
# Every workload has an odd number of slots (21, 55, 17 and 25).  A round holds
# one input of each slot and inputs of one slot cost the same, so with an even
# count the median latency would fall on the gap between two slots' costs and
# jump with noise; with an odd count it falls on one slot's own inputs.  A round
# costs about 3 s at the reference speed of refclock.py.
UNPROVABLE_BASES = {"square": 3, "radical": 3, "chebyshev": 3, "cyclotomic": 4}
SCAN_BASES = {5: 4, 6: 3, 7: 4, 8: 3, 9: 3}
CLI_BASES = dict.fromkeys(CLI_COMMANDS, 3) | {"scan": 4}
TOWER_PRIMES = (2, 3, 5, 7, 11, 13)

X = UniPoly.variable("x")


def _ints(f: UniPoly) -> list[int]:
    assert all(c.denominator == 1 for c in f.coeffs)
    return [int(c) for c in f.coeffs]


def _dense(rng: random.Random, m: int, bound: int) -> list[int]:
    """Squarefree degree-m integer polynomial with every coefficient nonzero."""
    while True:
        coeffs = [rng.choice([-1, 1]) * rng.randint(1, bound) for _ in range(m)]
        coeffs.append(rng.randint(1, 3))
        if discriminant(UniPoly(coeffs)) != 0:
            return coeffs


def _subs(base: list[int], key=tuple) -> list[list[int]]:
    """The substitutions that give pairwise distinct variants of ``base``."""
    seen, subs = set(), []
    for s, k in SUBSTITUTIONS:
        mark = key(substitute(base, s, k))
        if mark not in seen:
            seen.add(mark)
            subs.append([s, k])
    return subs


def _poly(entry: dict) -> UniPoly:
    f = parse_poly(entry["text"])
    assert _ints(f) == entry["coeffs"]
    return f


def _galois_slot(base: list[int], family: str) -> dict:
    slot = {"base": base, "family": family, "subs": _subs(base)}
    verdicts = {certify_galois(_poly(variant(slot, sub))).verdict.value for sub in slot["subs"]}
    if len(verdicts) != 1:
        raise SystemExit(f"variants of {render(base)} disagree: {verdicts}")
    slot["expect"] = {"verdict": verdicts.pop()}
    return slot


# -- galois-provable ----------------------------------------------------------------


def provable_slots(rng: random.Random) -> list[dict]:
    """x^m - x - 1 (Sym(m), Osada) and dense polynomials that the default
    bound proves Sym or Alt."""
    slots = []
    for family, m in PROVABLE_SLOTS:
        if family == "trinomial":
            slot = _galois_slot(_ints(parse_poly(f"x^{m} - x - 1")), family)
            if slot["expect"]["verdict"] != "ProvenSymmetric":
                raise SystemExit(f"x^{m} - x - 1 is {slot['expect']}, expected ProvenSymmetric")
        else:
            while True:
                base = _dense(rng, m, 9)
                if certify_galois(UniPoly(base)).verdict.value != "Inconclusive":
                    break
            slot = _galois_slot(base, family)
        slots.append(slot)
    return slots


# -- galois-unprovable --------------------------------------------------------------


def _chebyshev(n: int) -> UniPoly:
    prev, cur = UniPoly.constant(1), X
    for _ in range(n - 1):
        prev, cur = cur, 2 * X * cur - prev
    return cur


def _cyclotomic(n: int) -> UniPoly:
    out = X ** n - 1
    for d in range(1, n):
        if n % d == 0:
            out = out // _cyclotomic(d)
    return out


def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _unprovable_base(rng: random.Random, family: str, degree: int, i: int) -> UniPoly:
    if family == "square":  # f(x^2): group inside C2 wr Sym(deg f)
        while True:
            coeffs = [0] * (degree + 1)
            coeffs[::2] = _dense(rng, degree // 2, 5)
            g = UniPoly(coeffs)
            if discriminant(g) != 0:
                return g
    if family == "radical":  # x^n - a: affine group of order <= n phi(n)
        return X ** degree - rng.choice([a for a in range(-60, 61) if a not in (0, 1)])
    if family == "chebyshev":  # T_n - c: dihedral; c != +-1 keeps it squarefree
        return _chebyshev(degree) - rng.choice([c for c in range(-13, 14) if c not in (-1, 1)])
    orders = [n for n in range(2, 100) if _euler_phi(n) == degree]  # cyclotomic: abelian
    return _cyclotomic(orders[i % len(orders)])


def unprovable_slots(rng: random.Random) -> list[dict]:
    """Soundness families whose group is never Sym or Alt."""
    slots, taken = [], set()
    for family, degree in UNPROVABLE_SLOTS:
        for i in range(UNPROVABLE_BASES[family]):
            # no variant may repeat one of another slot, so a round stays cold;
            # Phi_n(-x) = Phi_2n(x) for odd n, so a cyclotomic base moves on to
            # the next n, and degree 10 (n = 11, 22 only) keeps a single base
            for attempt in range(i, i + 20):
                f = _unprovable_base(rng, family, degree, attempt)
                variants = {tuple(substitute(_ints(f), s, k)) for s, k in SUBSTITUTIONS}
                if not variants & taken:
                    break
            else:
                continue
            taken |= variants
            assert f.degree == degree and discriminant(f) != 0
            slot = _galois_slot(_ints(f), family)
            if slot["expect"]["verdict"] != "Inconclusive":
                raise SystemExit(f"soundness failure while building the pool: {f} is {slot['expect']}")
            slots.append(slot)
    return slots


# -- family-scan --------------------------------------------------------------------


def _scan_base(rng: random.Random, m: int) -> list[int]:
    """Sparse paper-style x^m + a x^k + b x + e, or a dense small-coefficient h."""
    if rng.random() < 0.5:
        coeffs = [0] * (m + 1)
        coeffs[m], coeffs[1] = 1, rng.choice([-3, -2, -1, 1, 2, 3])
        coeffs[rng.randint(2, m - 1)] = rng.choice([-6, -5, -4, -3, -2, 2, 3, 4, 5, 6])
        coeffs[0] = rng.randint(-20, 20)
        return coeffs
    return _dense(rng, m, 6)


def _scan_answer(entry: dict) -> dict:
    h = _poly(entry)
    rows = [scan_row_summary(r) for r in scan_A_h(h, entry["lo"], entry["hi"], jobs=1)]
    return {"morse": morse_summary(is_morse(h)), "rows": rows}


def _same_rows(a: list[dict], b: list[dict]) -> bool:
    """Row lists agree, up to the value of a rational root."""
    def key(row):
        root = row["reason"].startswith(ROOT_REASON)
        return dict(row, reason=ROOT_REASON if root else row["reason"])

    return [key(r) for r in a] == [key(r) for r in b]


def scan_slots(rng: random.Random) -> list[dict]:
    slots, taken = [], set()
    for m in SCAN_DEGREES:
        for _ in range(SCAN_BASES[m]):
            while True:  # h - c must never repeat across slots either
                base = _scan_base(rng, m)
                variants = {tuple(substitute(base, s, k)[1:]) for s, k in SUBSTITUTIONS}
                if not variants & taken:
                    break
            taken |= variants
            # the range always holds c = h(0), so one row has a rational root
            lo = base[0] - rng.randint(0, SCAN_WIDTH - 1)
            slot = {"base": base, "lo": lo, "hi": lo + SCAN_WIDTH - 1}
            slot["subs"] = _subs(base, key=lambda cs: tuple(cs[1:]))  # h - c never repeats
            answers = [_scan_answer(variant(slot, sub)) for sub in slot["subs"]]
            for other in answers[1:]:
                if other["morse"] != answers[0]["morse"] or not _same_rows(other["rows"], answers[0]["rows"]):
                    raise SystemExit(f"scan variants of {render(base)} disagree")
            slot["expect"] = answers[0]
            slots.append(slot)
    return slots


# -- rank-cli -----------------------------------------------------------------------


def _rank_pair(rng: random.Random) -> tuple[list[int], str]:
    """(f, g text) with deg f 4-9, deg g 2-8 over the CM, two-large and other routes."""
    route = rng.random()
    if route < 0.4:
        m, n = rng.randint(4, 9), rng.randint(2, 8)
        a = rng.choice([a for a in range(-9, 10) if a != 0])
        return _dense(rng, m, 9), render([-a] + [0] * (n - 1) + [1], "y")
    if route < 0.8:
        m = rng.randint(5, 9)
        n = rng.randint(4, m - 1)
    else:
        m = rng.randint(4, 7)
        n = rng.randint(m, 8)
    return _dense(rng, m, 9), render(_dense(rng, n, 9), "y")


def _cli_slot(rng: random.Random, command: str) -> dict:
    p = rng.choice(TOWER_PRIMES)
    slot = {"base": None, "subs": [list(sub) for sub in SUBSTITUTIONS]}
    if command in ("rank", "rank-table"):
        f, g = _rank_pair(rng)
        tail = ["-r", str(rng.randint(0, 4))] if command == "rank" else ["--max-r", str(rng.randint(1, 4))]
        slot.update(base=f, argv=[command, "-f", "{poly}", "-g", g, "-p", str(p)] + tail)
    elif command in ("galois", "poly-disc", "morse"):
        slot.update(base=_dense(rng, rng.randint(4, 9), 9), argv=[command, "{poly}"])
        if command == "morse":  # x -> -x can flip the sign of the printed D(t)
            slot["subs"] = [[s, k] for s, k in slot["subs"] if s == 1]
    elif command == "decomp":
        slot["argv"] = [command, str(rng.randint(4, 9)), str(p), str(rng.randint(1, 4))]
    elif command == "dims":
        slot["argv"] = [command, str(rng.randint(4, 9)), str(p ** rng.randint(1, 4))]
    else:
        base = _scan_base(rng, rng.randint(4, 9))
        lo = base[0] - rng.randint(0, 4)
        slot.update(base=base, argv=[command, "{poly}", f"--c-range={lo}..{lo + rng.randint(0, 4)}"])
    slot["argv"].append("--json")
    return slot


def run_cli_in_process(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"pool command {argv} exited {code}")
    return json.loads(out.getvalue())


def cli_slots(rng: random.Random) -> list[dict]:
    slots = []
    for command in CLI_COMMANDS:
        for _ in range(CLI_BASES[command]):
            slot = _cli_slot(rng, command)
            summaries = [
                cli_summary(command, run_cli_in_process(variant(slot, sub)["argv"])["result"])
                for sub in slot["subs"]
            ]
            for other in summaries[1:]:
                same = (
                    _same_rows(other["rows"], summaries[0]["rows"])
                    and other["disjoint_pairs"] == summaries[0]["disjoint_pairs"]
                    if command == "scan"
                    else other == summaries[0]
                )
                if not same:
                    raise SystemExit(f"variants of {slot['argv']} disagree:\n{summaries[0]}\n{other}")
            slot["expect"] = summaries[0]
            slots.append(slot)
    return slots


def main() -> int:
    rng = random.Random(POOL_SEED)
    pool = {
        "galois-provable": provable_slots(rng),
        "galois-unprovable": unprovable_slots(rng),
        "family-scan": scan_slots(rng),
        "rank-cli": cli_slots(rng),
    }
    path = Path(__file__).resolve().parent / "pool.json"
    path.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
