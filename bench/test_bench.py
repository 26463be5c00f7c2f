"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import berger_rank
from berger_rank import galois_cert, modp_factor, parse_poly

import answers
import refclock
import run
import spans


def _span(sid, name, start, end, parent):
    return [sid, name, start, end, parent, 0, None, None]


def test_self_time_subtracts_direct_children_only():
    trace = [
        _span(0, "a", 0.0, 10.0, -1),
        _span(1, "b", 1.0, 4.0, 0),
        _span(2, "c", 2.0, 3.0, 1),
        _span(3, "b", 5.0, 9.0, 0),
        _span(4, "a", 11.0, 12.0, -1),
    ]
    assert spans.self_times(trace) == [3.0, 2.0, 1.0, 4.0, 1.0]
    agg = spans.aggregate(trace)
    assert agg["a"]["calls"] == 2 and agg["a"]["self_s"] == 4.0
    assert agg["b"]["self_s"] == 6.0 and agg["b"]["total_s"] == 7.0
    assert spans.top_level_seconds(trace) == 11.0
    index = {s[spans.ID]: s for s in trace}
    assert spans.has_ancestor(index, trace[2], ("a",))
    assert not spans.has_ancestor(index, trace[1], ("c",))


def test_wrapper_sees_calls_through_from_import_bindings():
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        # galois_cert calls degree_pattern through its own `from .modp_factor
        # import degree_pattern` binding, not through modp_factor
        assert galois_cert.degree_pattern is modp_factor.degree_pattern
        assert galois_cert.degree_pattern.__wrapped__ is not None
        tracer.input_id = 7
        berger_rank.certify_galois(parse_poly("x^5 - x - 1"), 23)
    finally:
        undo()
    assert not hasattr(galois_cert.degree_pattern, "__wrapped__")
    by_id = {s[spans.ID]: s for s in tracer.spans}
    patterns = [s for s in tracer.spans if s[spans.NAME] == "modp_factor.degree_pattern"]
    assert len(patterns) == 8  # good primes up to 23
    assert {by_id[s[spans.PARENT]][spans.NAME] for s in patterns} == {
        "galois_cert.sample_cycle_types"
    }
    assert {s[spans.INPUT] for s in tracer.spans} == {7}
    top = [s for s in tracer.spans if s[spans.PARENT] < 0]
    assert [s[spans.NAME] for s in top] == ["galois_cert.certify_galois"]
    assert top[0][spans.HIT] is False


def test_check_rejects_a_tampered_certificate():
    cert = berger_rank.certify_galois(parse_poly("x^6 - x - 1"))
    variant = {"text": "x^6 - x - 1", "family": "trinomial", "expect": {"verdict": cert.verdict.value}}
    assert answers.galois_problems(variant, "galois-provable", cert) == []
    obs = list(cert.observations)
    obs[3] = replace(obs[3], pattern=(1, 1, 1, 1, 2))
    tampered = replace(cert, observations=tuple(obs))
    assert any("deep replay" in p for p in answers.galois_problems(variant, "galois-provable", tampered))
    assert answers.galois_problems(variant, "galois-unprovable", cert)  # Sym there is unsound


def test_check_rejects_a_wrong_rank():
    row = {"kind": "ExactRank", "rank": 12, "m": 5, "n": 2, "q": 9}
    assert answers.expected_rank(5, 2, 9) == 4
    assert answers.rank_problems([row])
    assert answers.rank_problems([dict(row, rank=4)]) == []
    assert answers.rank_problems([dict(row, kind="Inconclusive", rank=None)]) == []


def test_scan_row_check_uses_independent_arithmetic():
    coeffs = [0, -1, 0, 0, 0, 0, 0, 1]  # x^7 - x
    disc = answers.sylvester_discriminant(coeffs)
    assert disc == berger_rank.discriminant(parse_poly("x^7 - x"))
    tag = berger_rank.int_squarefree_part(int(disc))
    good = {"c": 0, "in_A_h": False, "quad_tag": tag, "verdict": None,
            "reason": "reducible: rational root 0"}
    assert answers.scan_row_problems(coeffs, good, good) == []
    assert answers.scan_row_problems(coeffs, dict(good, c=1), None)  # h(0) != 1
    assert answers.scan_row_problems(coeffs, dict(good, quad_tag=-tag), good)


def test_certificate_round_trips_through_json():
    cert = berger_rank.certify_galois(parse_poly("x^5 + 20*x + 16"))
    again = answers.cert_from_payload(json.loads(json.dumps(answers.cert_payload(cert))))
    assert again == cert
    assert 0 < answers.proof_prefix_ratio(cert) <= 1


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 61)]
    pct, value = run.tail(samples)
    assert pct == 83 and value == 50.0
    assert sum(s > value for s in samples) >= 10
    assert run.tail(samples[:15])[0] == 50


def test_reference_kernel_is_fixed_work():
    assert refclock.kernel() == refclock.kernel()
    assert refclock.kernel_slowdown() > 0


def test_outcome_divides_times_by_the_slowdown():
    rec = {"input": 0, "latency_s": 0.14, "busy_s": 0.14, "slowdown": 1.4, "units": 1,
           "failed_units": 0, "verdicts": [], "summary": None, "problems": []}
    outcome = run.Outcome([{"records": [rec, dict(rec, input=1, latency_s=0.1, busy_s=0.1,
                                                    slowdown=1.0)], "peak_rss_kb": 1024}])
    assert [round(x, 12) for x in outcome.latencies] == [0.1, 0.1]
    assert abs(outcome.busy - 0.2) < 1e-12


def test_measure_runs_the_requested_number_of_rounds():
    calls = []

    def fake_round(round_, first, check):
        calls.append((first, check))
        return {"records": []}

    source = iter([[1, 2], [3, 4], [5, 6], [7, 8]])
    measured = run.measure(fake_round, source, count=3)
    assert [r["round"] for r in measured] == [[1, 2], [3, 4], [5, 6]]
    assert calls == [(0, True), (2, True), (4, True)]
    assert set(run.ROUND_S) == set(run.WORKLOADS)


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
