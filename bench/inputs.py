"""Seeded inputs drawn from ``pool.json``.

A workload is a list of *slots*.  A slot holds one base polynomial (or CLI
command), its stored answer, and a list of substitutions ``x -> s*x + k``
with s = +-1.  Such a substitution keeps the splitting field, hence the
Galois group, the discriminant and every factor-degree pattern mod p, so all
variants of a slot have the same answer, while their coefficients differ.

They do not all cost the same: the library's arithmetic is faster on sparse
polynomials, so an unshifted base such as x^16 + 2, a cyclotomic polynomial
or x^m - x - 1 certifies 2 to 8 times faster than its shifts, and shifts by
different k differ by up to 1.6x, while the two signs of one k cost within
about 10% of each other.  So round r of every run shifts every slot by the
same k = SHIFTS[r % 7], and the seed picks only the sign s for each slot and
the order of the inputs in each round: every run of n rounds holds the same
mix of costs, whatever the seed.  A round holds one variant of every slot.
"""

from __future__ import annotations

import itertools
import random
from math import comb


def substitute(coeffs: list[int], s: int, k: int) -> list[int]:
    """Ascending coefficients of f(s*x + k) for ascending coefficients of f."""
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        for j in range(i + 1):  # (s x + k)^i = sum C(i, j) s^j x^j k^(i-j)
            out[j] += c * comb(i, j) * s ** j * k ** (i - j)
    return out


def render(coeffs: list[int], var: str = "x") -> str:
    """Text that ``parse_poly`` reads back as the same polynomial."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        power = "" if i == 0 else var if i == 1 else f"{var}^{i}"
        body = str(mag) if not power else power if mag == 1 else f"{mag}*{power}"
        if not terms:
            terms.append(f"-{body}" if c < 0 else body)
        else:
            terms.append(f"{'-' if c < 0 else '+'} {body}")
    return " ".join(terms) or "0"


def variant(slot: dict, sub: list[int]) -> dict:
    """The concrete input of ``slot`` under substitution ``sub = [s, k]``."""
    out = {key: value for key, value in slot.items() if key not in ("subs", "base")}
    if slot.get("base") is not None:
        coeffs = substitute(slot["base"], *sub)
        text = render(coeffs, slot.get("var", "x"))
        out["coeffs"] = coeffs
        out["text"] = text
        if "argv" in slot:
            out["argv"] = [text if arg == "{poly}" else arg for arg in slot["argv"]]
    return out


SHIFTS = (0, 1, -1, 2, -2, 3, -3)


def rounds(slots: list[dict], rng: random.Random):
    """Endless rounds for one workload, round r shifted by SHIFTS[r % 7];
    consecutive rounds repeat no input."""
    for r in itertools.count():
        k = SHIFTS[r % len(SHIFTS)]
        round_ = [
            variant(slot, rng.choice([sub for sub in slot["subs"] if sub[1] == k]))
            for slot in slots
        ]
        rng.shuffle(round_)
        yield round_
