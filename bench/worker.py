"""One fresh benchmark worker: the library calls of one round.

Reads a job from stdin and writes one JSON result to stdout::

    job = {"workload": ..., "round": [variant, ...], "first_input": int,
           "trace": bool, "check": bool}

Every input of a round is distinct, so every certification in a worker is
cold.  The reference kernel (refclock.py) is timed before the first call and
after every call; each record carries the mean slowdown of the two timings
around its call.  With ``trace`` the calls run under spans; with ``check`` every answer
is checked after the timed loop.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import berger_rank as br

import answers
import refclock
from spans import Tracer, install


# Calls go through the package namespace so that, in a traced worker, they
# reach the wrappers that spans.install bound there.


def _run_galois(text: str):
    poly = br.parse_poly(text)
    t0 = time.perf_counter()
    cert = br.certify_galois(poly)
    return cert, time.perf_counter() - t0, 0.0


def _run_scan(variant: dict):
    h = br.parse_poly(variant["text"])
    t0 = time.perf_counter()
    report = br.is_morse(h)
    t1 = time.perf_counter()
    rows = br.scan_A_h(h, variant["lo"], variant["hi"], jobs=1)
    return (report, rows), time.perf_counter() - t1, t1 - t0


def _certificates(workload: str, out) -> list:
    if workload == "family-scan":
        return [row.certificate for row in out[1] if row.certificate is not None]
    return [out]


def _galois_record(record: dict, variant: dict, workload: str, cert, check: bool) -> None:
    summary = {"verdict": cert.verdict.value}
    record.update(summary=summary, verdicts=[cert.verdict.value], units=1)
    record["payload_sha256"] = answers.digest([answers.cert_payload(cert)])
    if check:
        record["problems"] = answers.galois_problems(variant, workload, cert)
        record["failed_units"] = int(bool(record["problems"]))


def _scan_record(record: dict, variant: dict, out, check: bool) -> None:
    report, rows = out
    summaries = [answers.scan_row_summary(row) for row in rows]
    summary = {"morse": answers.morse_summary(report), "rows": summaries}
    record.update(
        summary=summary,
        verdicts=["in_A_h" if row.in_A_h else "no" for row in rows],
        units=len(rows),
        scan=[1, len(rows), sum(row.in_A_h for row in rows)],
    )
    record["payload_sha256"] = answers.digest(
        dict(s, certificate=answers.cert_payload(row.certificate) if row.certificate else None)
        for s, row in zip(summaries, rows)
    )
    if not check:
        return
    problems = []
    expect = variant["expect"]
    if summary["morse"] != expect["morse"]:
        problems.append(f"morse {summary['morse']} differs from stored {expect['morse']}")
    stored = {row["c"]: row for row in expect["rows"]}
    if [row["c"] for row in summaries] != list(stored):
        problems.append("scan rows do not cover the requested range")
    whole_family = bool(problems)
    failed_rows = 0
    for s, row in zip(summaries, rows):
        row_problems = answers.scan_row_problems(variant["coeffs"], s, stored.get(s["c"]))
        if row.certificate is not None:
            bad = answers.replay_problem(row.certificate)
            if bad:
                row_problems.append(f"c = {row.c}: {bad}")
        problems += row_problems
        failed_rows += bool(row_problems)
    record["problems"] = problems
    record["failed_units"] = len(rows) if whole_family else failed_rows


def main() -> int:
    job = json.load(sys.stdin)
    workload, check = job["workload"], job["check"]
    tracer = Tracer() if job["trace"] else None
    undo = install(tracer) if tracer else None

    outcomes = []  # (input id, variant, output or exception, latency, morse time)
    slowdowns = [refclock.kernel_slowdown()]
    for input_id, variant in enumerate(job["round"], start=job["first_input"]):
        if tracer:
            tracer.input_id = input_id
        started = time.perf_counter()
        try:
            if workload == "family-scan":
                out, latency, extra = _run_scan(variant)
            else:
                out, latency, extra = _run_galois(variant["text"])
        except Exception as exc:  # counted as a failed input, run goes on
            out, latency, extra = exc, time.perf_counter() - started, 0.0
        outcomes.append((input_id, variant, out, latency, extra))
        slowdowns.append(refclock.kernel_slowdown())
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if undo:
        undo()

    records = []
    certs = []
    for i, (iid, variant, out, latency, extra) in enumerate(outcomes):
        record = {
            "input": iid, "latency_s": latency, "busy_s": latency + extra,
            "slowdown": (slowdowns[i] + slowdowns[i + 1]) / 2, "problems": [],
            "failed_units": 0, "stdout_bytes": 0, "rank_verdicts": 0, "scan": [0, 0, 0],
        }
        if isinstance(out, Exception):
            units = (variant["hi"] - variant["lo"] + 1) if workload == "family-scan" else 1
            record.update(summary=None, verdicts=[], units=units, payload_sha256=None)
            record.update(problems=[f"raised {type(out).__name__}: {out}"], failed_units=units)
        elif workload == "family-scan":
            _scan_record(record, variant, out, check)
        else:
            _galois_record(record, variant, workload, out, check)
        if not isinstance(out, Exception):
            certs += _certificates(workload, out)
        records.append(record)

    result = {
        "records": records,
        "peak_rss_kb": peak_rss_kb,
        "cert_stats": [
            [len(c.observations), answers.proof_prefix_ratio(c)] for c in certs
        ] if tracer else [],
        "spans": tracer.spans if tracer else [],
    }
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
