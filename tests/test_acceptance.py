"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the lines
as they print).  Each criterion is a separate test so the verbose listing
itself shows one PASS/FAIL row per criterion.  Timing uses the best of three
repeats of the full computation; nothing is cached between repeats, so
every repeat does the whole computation.
"""

import random
import time
from fractions import Fraction
from math import gcd

from berger_rank import (
    GaloisVerdict,
    Status,
    UniPoly,
    VerdictKind,
    berger_genus,
    c2,
    certify_galois,
    dim_new_part,
    dim_superelliptic,
    discriminant,
    factor_int,
    int_squarefree_part,
    is_morse,
    parse_poly,
    rank_verdict,
    replay_certificate,
    resultant,
)


def _best_of_3(fn):
    best = float("inf")
    result = None
    for _ in range(3):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _line(num, label, ok, seconds=None, bound=None):
    timing = ""
    if seconds is not None:
        timing = f"  [{seconds * 1000:.2f} ms"
        if bound is not None:
            timing += f" < {bound * 1000:g} ms"
        timing += "]"
    print(f"criterion {num:>2} {'PASS' if ok else 'FAIL'}: {label}{timing}")


def test_criterion_01_discriminant_anchors():
    f1 = parse_poly("x^4 - x - 1")
    f2 = parse_poly("x^4 - x + 2")
    d1, t1 = _best_of_3(lambda: discriminant(f1))
    d2, t2 = _best_of_3(lambda: discriminant(f2))
    sf = int_squarefree_part(2021)
    fac = factor_int(2021)
    ok = (
        d1 == -283
        and d2 == 2021
        and sf == 2021
        and set(fac) == {43, 47}
        and t1 < 0.001
        and t2 < 0.001
    )
    _line(1, "discriminant anchors", ok, max(t1, t2), 0.001)
    assert d1 == -283 and d2 == 2021
    assert sf == 2021 and set(fac) == {43, 47}
    assert t1 < 0.001 and t2 < 0.001, (t1, t2)


def test_criterion_02_quartic_certificate_at_tiny_bound():
    f = parse_poly("x^4 - x + 2")
    cert, took = _best_of_3(lambda: certify_galois(f, prime_bound=5))
    obs = {(ob.p, ob.pattern) for ob in cert.observations}
    want = {(2, (1, 1, 2)), (3, (4,)), (5, (1, 3))}
    ok = cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC and obs == want and took < 0.010
    _line(2, "quartic certificate at bound 5", ok, took, 0.010)
    assert cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC
    assert obs == want
    assert took < 0.010, took


def test_criterion_03_quartic_exclusion_battery():
    f = parse_poly("x^4 - x - 1")
    g = parse_poly("y^2 - 1")

    def battery():
        out = [rank_verdict(f, g, 283, 1)]
        for p in (3, 5, 7, 11, 281):
            out.append(rank_verdict(f, g, p, 1))
        return out

    verdicts, took = _best_of_3(battery)
    excluded, *odd = verdicts
    st = {h.name: h.status for h in excluded.hypotheses}
    ok = (
        excluded.kind is VerdictKind.INCONCLUSIVE
        and st["quadratic-disjoint"] is Status.FAILS
        and st["unramified"] is Status.UNKNOWN
        and all(v.kind is VerdictKind.EXACT_RANK and v.rank == 3 for v in odd)
        and took < 0.1
    )
    _line(3, "quartic exclusion battery", ok, took, 0.1)
    assert excluded.kind is VerdictKind.INCONCLUSIVE
    assert st["quadratic-disjoint"] is Status.FAILS
    assert st["unramified"] is Status.UNKNOWN
    for v in odd:
        assert v.kind is VerdictKind.EXACT_RANK and v.rank == 3
    assert took < 0.1, took


def test_criterion_04_hyperelliptic_tower_table():
    g = parse_poly("y^2 - 1")

    def table():
        out = []
        for genus in (2, 3, 4):
            m = 2 * genus + 1
            f = parse_poly(f"x^{m} - x - 1")
            for p in (2, 3, 5, 7):
                for r in range(5):
                    out.append((genus, rank_verdict(f, g, p, r)))
        return out

    rows, took = _best_of_3(table)
    ok = (
        len(rows) == 60
        and all(
            v.kind is VerdictKind.EXACT_RANK and v.rank == 2 * genus
            for genus, v in rows
        )
        and took < 5.0
    )
    _line(4, "hyperelliptic tower table (60 checks)", ok, took, 5.0)
    assert len(rows) == 60
    for genus, v in rows:
        assert v.kind is VerdictKind.EXACT_RANK and v.rank == 2 * genus, (genus, v)
    assert took < 5.0, took


def test_criterion_05_cubic_side_tower_table():
    g = parse_poly("y^3 - 1")
    layers = ((3, 1), (3, 2), (5, 1), (5, 2))  # q = 3, 9, 5, 25

    def table():
        out = []
        for m in (5, 7, 9):
            f = parse_poly(f"x^{m} - x - 1")
            for p, r in layers:
                out.append((m, p ** r, rank_verdict(f, g, p, r)))
        return out

    rows, took = _best_of_3(table)
    ok = took < 5.0
    by_key = {}
    for m, q, v in rows:
        expected = (m - 1) * 2 + gcd(gcd(m, 3), q) - 1
        ok = ok and v.kind is VerdictKind.EXACT_RANK and v.rank == expected
        by_key[(m, q)] = v.rank
    ok = ok and by_key[(9, 3)] == 18
    _line(5, "cubic-side tower table", ok, took, 5.0)
    for m, q, v in rows:
        expected = (m - 1) * 2 + gcd(gcd(m, 3), q) - 1
        assert v.kind is VerdictKind.EXACT_RANK and v.rank == expected, (m, q)
    assert by_key[(9, 3)] == 18
    assert took < 5.0, took


def test_criterion_06_even_degree_constant_note():
    v = rank_verdict(parse_poly("x^6 - x - 1"), parse_poly("y^2 - 1"), 3, 1)
    noted = any("2g_X+gcd(q,2)-1" in note for note in v.notes)
    ok = v.kind is VerdictKind.EXACT_RANK and v.rank == 5 and noted
    _line(6, "even-degree constant note", ok)
    assert v.kind is VerdictKind.EXACT_RANK and v.rank == 5
    assert noted, v.notes


def test_criterion_07_dimension_sums():
    def sweep():
        count = 0
        for m in range(2, 31):
            for p in (2, 3, 5, 7, 11, 13):
                for r in range(6):
                    total = sum(dim_new_part(m, p ** i) for i in range(1, r + 1))
                    assert total == dim_superelliptic(m, p ** r), (m, p, r)
                    count += 1
        return count

    count, took = _best_of_3(sweep)
    ok = count == 29 * 6 * 6 and took < 1.0
    _line(7, f"dimension sums ({count} checks)", ok, took, 1.0)
    assert count == 29 * 6 * 6
    assert took < 1.0, took


def test_criterion_08_parity_and_periodicity():
    def sweep():
        for m in range(2, 51):
            for n in range(2, 51):
                value = berger_genus(m, n)  # raises ParityBug on any defect
                assert isinstance(value, int) and value >= 0
        for m in range(2, 21):
            for n in range(2, 21):
                step = gcd(m, n)
                for d in range(1, 101):
                    assert c2(m, n, d) == c2(m, n, d + step)
        return True

    _, took = _best_of_3(sweep)
    ok = took < 1.0
    _line(8, "genus parity and layer-constant periodicity", ok, took, 1.0)
    assert took < 1.0, took


def test_criterion_09_morse_suite():
    def suite():
        family = all(is_morse(parse_poly(f"x^{m} - x")).is_morse for m in range(2, 10))
        cusp = is_morse(parse_poly("x^3")).is_morse
        collision = is_morse(parse_poly("x^4 - 2x^2")).is_morse
        return family, cusp, collision

    (family, cusp, collision), took = _best_of_3(suite)
    ok = family and not cusp and not collision and took < 0.1
    _line(9, "morse suite", ok, took, 0.1)
    assert family and not cusp and not collision
    assert took < 0.1, took


def test_criterion_10_finite_field_oracle():
    from test_modp_factor import _irreducibles, _monics, _oracle_factor, _osquarefree

    from berger_rank import PrimePoly, degree_pattern

    def sweep():
        count = 0
        for p in (2, 3, 5):
            table = _irreducibles(p, 4)
            for deg in range(1, 5):
                for coeffs in _monics(p, deg):
                    if not _osquarefree(coeffs, p):
                        continue
                    expected = tuple(
                        sorted(len(irr) - 1 for irr, _ in _oracle_factor(coeffs, p, table))
                    )
                    assert degree_pattern(PrimePoly(p, coeffs)) == expected
                    count += 1
        return count

    count, took = _best_of_3(sweep)
    ok = count > 500 and took < 10.0
    _line(10, f"finite-field oracle ({count} polynomials)", ok, took, 10.0)
    assert count > 500
    assert took < 10.0, took


def test_criterion_11_resultant_laws():
    rng = random.Random(20260819)

    def rand_poly(max_deg=4):
        deg = rng.randint(1, max_deg)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)]
        lead = 0
        while lead == 0:
            lead = rng.randint(-9, 9)
        return UniPoly(tuple(coeffs) + (lead,))

    def laws():
        for _ in range(500):
            a, b, m = rand_poly(), rand_poly(), rand_poly(2)
            sign = (-1) ** (a.degree * b.degree)
            assert resultant(a, b) == sign * resultant(b, a)
            assert resultant(a * m, b) == resultant(a, b) * resultant(m, b)
        for _ in range(50):
            roots = rng.sample(range(-9, 10), rng.randint(2, 5))
            f = UniPoly((1,))
            expected = Fraction(1)
            for root in roots:
                f = f * UniPoly((Fraction(-root), Fraction(1)))
            for i in range(len(roots)):
                for j in range(i + 1, len(roots)):
                    expected *= (roots[i] - roots[j]) ** 2
            assert discriminant(f) == expected
        return True

    _, took = _best_of_3(laws)
    ok = took < 2.0
    _line(11, "resultant sign-swap, multiplicativity, root products", ok, took, 2.0)
    assert took < 2.0, took


def test_criterion_12_certificate_replay_audit():
    # its own certificates, so the criterion passes alone and in any order:
    # the quartic at bound 5 and every decided Galois certificate behind a
    # quartic, two hyperelliptic and one cubic-side rank verdict
    g2, g3 = parse_poly("y^2 - 1"), parse_poly("y^3 - 1")
    verdicts = [rank_verdict(parse_poly("x^4 - x - 1"), g2, 3, 1)]
    for m, g in ((5, g2), (7, g2), (9, g3)):
        verdicts.append(rank_verdict(parse_poly(f"x^{m} - x - 1"), g, 5, 1))
    certs = [certify_galois(parse_poly("x^4 - x + 2"), prime_bound=5)]
    for v in verdicts:
        for h in v.hypotheses:
            cert = h.evidence.get("certificate")
            if cert is not None and cert.verdict is not GaloisVerdict.INCONCLUSIVE:
                certs.append(cert)
    assert len(certs) >= 5  # at least one per rank verdict
    replayed = 0
    for cert in certs:
        assert replay_certificate(cert) is cert.verdict, cert.polynomial
        replayed += 1
    for cert in certs[:3]:
        assert replay_certificate(cert, deep=True) is cert.verdict
    ok = replayed == len(certs)
    _line(12, f"certificate replay audit ({replayed} certificates)", ok)
    assert ok
