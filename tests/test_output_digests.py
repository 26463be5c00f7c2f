"""Output digests: one SHA-256 per group of benchmark-pool outputs, checked
against the committed ``tests/output_digests.json``.

A change meant to keep every output byte-identical keeps this test green.
A change that moves an output on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_output_digests.py

and says which group moved and why.  The inputs are every variant of every
slot of ``bench/pool.json``, built by ``bench/inputs.py``; nothing is
written under ``bench/``.  The groups:

* ``galois``: the certificate of each ``galois-provable`` and
  ``galois-unprovable`` variant, as ``cli._certificate_payload`` writes it,
  witness included;
* ``family-scan``: the Morse report and the scan rows of each variant, each
  row with its certificate payload;
* ``rank-cli``: the exit code, stdout and stderr of each argv through
  ``cli.main``.
"""

import hashlib
import io
import json
import runpy
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import berger_rank.cli as cli
from berger_rank import certify_galois, is_morse, parse_poly, scan_A_h

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("output_digests.json")


def _variants(workload: str):
    # run_path compiles the module in memory, so no bytecode lands in bench/
    variant = runpy.run_path(str(ROOT / "bench" / "inputs.py"))["variant"]
    pool = json.loads((ROOT / "bench" / "pool.json").read_text())
    for slot in pool[workload]:
        for sub in slot["subs"]:
            yield variant(slot, sub)


def _galois():
    for workload in ("galois-provable", "galois-unprovable"):
        for v in _variants(workload):
            cert = certify_galois(parse_poly(v["text"]))
            yield cli._json_text(cli._certificate_payload(cert))


def _family_scan():
    for v in _variants("family-scan"):
        h = parse_poly(v["text"])
        report = is_morse(h)
        morse = {
            "is_morse": report.is_morse,
            "derivative_squarefree": report.derivative_squarefree,
            "critical_value_disc_squarefree": report.critical_value_disc_squarefree,
            "critical_values_poly": report.critical_values_poly.render(),
        }
        rows = [
            {
                "c": row.c,
                "in_A_h": row.in_A_h,
                "quad_tag": row.quad_tag,
                "reason": row.reason,
                "certificate": row.certificate and cli._certificate_payload(row.certificate),
            }
            for row in scan_A_h(h, v["lo"], v["hi"])
        ]
        yield cli._json_text({"morse": morse, "rows": rows})


def _rank_cli():
    for v in _variants("rank-cli"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(v["argv"])
        yield f"{code}\n{out.getvalue()}{err.getvalue()}"


GROUPS = {"galois": _galois, "family-scan": _family_scan, "rank-cli": _rank_cli}


def digest(group: str) -> dict:
    h, count = hashlib.sha256(), 0
    for text in GROUPS[group]():
        h.update(text.encode() + b"\n")
        count += 1
    return {"outputs": count, "sha256": h.hexdigest()}


@pytest.mark.parametrize("group", list(GROUPS))
def test_outputs_match_the_committed_digests(group):
    assert digest(group) == json.loads(DIGESTS.read_text())[group]


if __name__ == "__main__":
    digests = {group: digest(group) for group in GROUPS}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(json.dumps(digests, indent=2))
