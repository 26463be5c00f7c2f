"""Layered verdict benchmark for berger-rank.

    python3 bench/run.py --workload galois-provable --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (the library is imported from
``src/``).  This process is the single coordinator: it draws the inputs from the
seed, starts fresh worker processes one at a time (library workers for the
first three workloads, one CLI process per command for ``rank-cli``),
checks every answer outside the timed region, and prints one ``name = value
unit`` line per metric followed by a JSON result as the last line.

Every time is taken beside reference work that belongs to the benchmark and
reported divided by the reference's slowdown (see refclock.py), which takes
the shared machine's drifting speed out of the figures; unscaled wall times
are printed on comment lines.  With ``--trace 0`` the result holds the
end-to-end metrics, measured with tracing off.  With ``--trace 1`` the
measured rounds run once more under spans (see spans.py) and the result
holds the per-layer metrics; spans and metrics are also written to
``.bench_out/trace-<workload>-seed<n>.json`` for ``bench/diff.py``.
See bench/README.md for the workloads and the predictions they test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import refclock
import spans as sp
from inputs import rounds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("galois-provable", "galois-unprovable", "family-scan", "rank-cli")

END_TO_END = (
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_EXACT = ("parse_poly", "discriminant", "resultant", "integer_model", "factor_int", "int_squarefree_part")
PER_LAYER = (
    *(
        (f"exact_poly.{fn}.{kind}", unit)
        for fn in _EXACT
        for kind, unit in (("calls", "calls/input"), ("self_s", "s/input"))
    ),
    ("exact_poly.factoring_incomplete_ratio", "ratio"),
    ("exact_poly.factoring.share", "ratio"),
    ("modp_factor.reduce_mod_p.self_s", "s/input"),
    ("modp_factor.degree_pattern.calls", "calls/input"),
    ("modp_factor.degree_pattern.self_s", "s/input"),
    ("modp_factor.degree_pattern.share", "ratio"),
    ("galois_cert.certify_galois.calls", "calls/input"),
    ("galois_cert.certify_galois.self_s", "s/input"),
    ("galois_cert.sample_cycle_types.self_s", "s/input"),
    ("galois_cert.primes_sampled", "primes/cert"),
    ("galois_cert.proof_prefix_ratio", "ratio"),
    ("galois_cert.cache_hit_ratio", "ratio"),
    ("morse_scan.scan_A_h.calls", "calls/input"),
    ("morse_scan.scan_A_h.self_s", "s/input"),
    ("morse_scan.is_morse.self_s", "s/input"),
    ("morse_scan.rows", "rows/scan"),
    ("morse_scan.in_A_h_ratio", "ratio"),
    ("rank_engine.rank_verdict.calls", "calls/input"),
    ("rank_engine.rank_verdict.self_s", "s/input"),
    ("rank_engine.rank_table.calls", "calls/input"),
    ("rank_engine.rank_table.self_s", "s/input"),
    ("rank_engine.discriminants_per_verdict", "calls/verdict"),
    ("jacobian_invariants.decomposition_table.self_s", "s/input"),
    ("jacobian_invariants.c2.calls", "calls/input"),
    ("cli.main.self_s", "s/input"),
    ("cli.stdout_bytes", "bytes/input"),
    ("cli.setup_share_of_p50", "ratio"),
    ("trace_overhead_ratio", "ratio"),
    ("verdicts.decided_ratio", "ratio"),
    ("verdicts.failed_ratio", "ratio"),
)

SETUP_SAMPLES = 9

# Mean busy time of one of the first three rounds (shifts 0, 1 and -1, see
# inputs.py) at reference speed, measured at the seed commit.  A run holds
# round(seconds / ROUND_S) whole rounds, a number fixed by the arguments
# alone, so every run of a workload measures the same work and every
# percentile rests on the same number of samples.
ROUND_S = {"galois-provable": 3.3, "galois-unprovable": 2.6, "family-scan": 2.8, "rank-cli": 2.7}
IMPORT_CODE = "import berger_rank, berger_rank.cli"
CHILD_TIMEOUT_S = 150


# -- child processes --------------------------------------------------------------


def run_child(cmd: list[str], env: dict, stdin: str | None = None, capture: bool = True):
    """Run a child to completion; return (returncode, stdout, stderr).

    The wait blocks in waitpid: subprocess's own timeout polls with sleeps of
    up to 50 ms, which would show up in every measured time.  A timer kills
    a child that outlives CHILD_TIMEOUT_S instead.
    """
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    proc = subprocess.Popen(
        cmd, env=env, text=True, stdout=pipe, stderr=pipe,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out, err = proc.communicate(stdin)
    finally:
        watchdog.cancel()
    return proc.returncode, out, err


def start_time(env: dict, code: str = "pass") -> float:
    """Wall seconds of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    returncode, _, _ = run_child([sys.executable, "-c", code], env, capture=False)
    elapsed = time.perf_counter() - t0
    if returncode != 0:
        raise RuntimeError(f"{code!r} exited {returncode}")
    return elapsed


# -- environment ------------------------------------------------------------------


def pinned_env() -> dict:
    """Children import from src/, hash with a fixed seed, run serially, and
    keep a bytecode cache as an installed package does."""
    unset = ("BERGER_RANK_JOBS", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def describe_env() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted(SRC.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "PYTHONHASHSEED": "0",
    }


class SetupProbe:
    """Fresh-interpreter start times importing the package and its CLI, each
    bracketed by two bare interpreter starts and divided by their slowdown
    (see refclock.py).  One sample is taken before every round, so the
    samples spread over the whole run; the medians are reported."""

    def __init__(self, env: dict):
        self.env = env
        self.imports: list[float] = []
        self.wall_imports: list[float] = []
        self.bare: list[float] = []
        start_time(env, IMPORT_CODE)  # writes the bytecode cache, as an installed package has

    def sample(self) -> None:
        before = start_time(self.env)
        imports = start_time(self.env, IMPORT_CODE)
        after = start_time(self.env)
        self.imports.append(imports / ((before + after) / 2 / refclock.START_S))
        self.wall_imports.append(imports)
        self.bare += [before, after]

    def medians(self) -> tuple[float, float, float]:
        """Scaled import time, and unscaled import and bare start times."""
        while len(self.imports) < SETUP_SAMPLES:
            self.sample()
        return tuple(map(statistics.median, (self.imports, self.wall_imports, self.bare)))


# -- rounds -----------------------------------------------------------------------


def run_worker(job: dict, env: dict) -> dict:
    returncode, out, err = run_child([sys.executable, str(BENCH / "worker.py")], env, json.dumps(job))
    if returncode != 0:
        raise RuntimeError(f"worker exited {returncode}:\n{err}")
    return json.loads(out)


def library_round(workload: str, round_: list, first: int, env: dict, trace: bool, check: bool) -> dict:
    """One round in one fresh worker process."""
    res = run_worker(
        {"workload": workload, "round": round_, "first_input": first, "trace": trace, "check": check},
        env,
    )
    res["span_lists"] = [res.pop("spans")]
    res["span_slowdowns"] = [statistics.median(rec["slowdown"] for rec in res["records"])]
    return res


def cli_round(round_: list, first: int, env: dict, trace: bool, check: bool) -> dict:
    """One round of commands, each in its own fresh CLI process and
    bracketed by bare interpreter starts (see refclock.py)."""
    records, span_lists = [], []
    before = start_time(env)
    for input_id, entry in enumerate(round_, start=first):
        if trace:
            cmd = [sys.executable, str(BENCH / "cli_boot.py"), str(input_id)]
        else:
            cmd = [sys.executable, "-m", "berger_rank.cli"]
        t0 = time.perf_counter()
        returncode, stdout, stderr = run_child(cmd + entry["argv"], env)
        latency = time.perf_counter() - t0
        after = start_time(env)
        stderr, _, spans = stderr.partition(sp.SPAN_MARKER)
        span_lists.append(json.loads(spans) if spans else [])
        rec = cli_record(entry, input_id, latency, returncode, stdout, stderr, check, trace)
        rec["slowdown"] = (before + after) / 2 / refclock.START_S
        before = after
        records.append(rec)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    cert_stats = [stat for rec in records for stat in rec.pop("cert_stats")]
    return {"records": records, "peak_rss_kb": peak_rss_kb, "span_lists": span_lists,
            "span_slowdowns": [rec["slowdown"] for rec in records], "cert_stats": cert_stats}


def cli_record(entry, input_id, latency, returncode, stdout, stderr, check, trace) -> dict:
    """The per-input record of one CLI command, in the worker's record format."""
    import answers

    rec = {
        "input": input_id, "latency_s": latency, "busy_s": latency, "units": 1,
        "verdicts": [], "summary": None, "payload_sha256": answers.digest([stdout]),
        "problems": check_cli(entry, returncode, stdout, stderr) if check else [],
        "stdout_bytes": len(stdout.encode()), "scan": [0, 0, 0], "rank_verdicts": 0,
        "cert_stats": [],
    }
    rec["failed_units"] = int(bool(rec["problems"]))
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError):
        return rec
    command = entry["argv"][0]
    rec["verdicts"] = answers.cli_verdicts(command, result)
    rec["summary"] = answers.cli_summary(command, result)
    if command == "scan":
        rec["scan"] = [1, len(result["rows"]), sum(row["in_A_h"] for row in result["rows"])]
    elif command in ("rank", "rank-table"):
        rec["rank_verdicts"] = len(rec["verdicts"])
    if trace:
        certs = map(answers.cert_from_payload, answers.cli_certificates(command, result))
        rec["cert_stats"] = [[len(c.observations), answers.proof_prefix_ratio(c)] for c in certs]
    return rec


def check_cli(entry, returncode, stdout, stderr) -> list[str]:
    import answers

    if returncode != 0:
        return [f"{entry['argv']} exited {returncode}: {stderr.strip()}"]
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError) as exc:
        return [f"{entry['argv']} printed no JSON envelope: {exc}"]
    command = entry["argv"][0]
    problems = []
    if command == "scan":
        stored = {row["c"]: row for row in entry["expect"]["rows"]}
        for row in result["rows"]:
            summary = answers.scan_row_summary(row)
            problems += answers.scan_row_problems(entry["coeffs"], summary, stored.get(row["c"]))
        if [row["c"] for row in result["rows"]] != list(stored):
            problems.append("scan rows do not cover the requested range")
        if result["disjoint_pairs"] != entry["expect"]["disjoint_pairs"]:
            problems.append("disjoint pairs differ from the stored answer")
    else:
        summary = answers.cli_summary(command, result)
        if summary != entry["expect"]:
            problems.append(f"{entry['argv']}: {summary} differs from stored {entry['expect']}")
    if command in ("rank", "rank-table"):
        problems += answers.rank_problems(result["rows"] if command == "rank-table" else [result])
    for payload in answers.cli_certificates(command, result):
        bad = answers.replay_problem(answers.cert_from_payload(payload))
        if bad:
            problems.append(f"{entry['argv']}: {bad}")
    return problems


def measure(run_round, round_source, count=None, probe=None, check=True) -> list[dict]:
    """Run ``count`` rounds (None: every given round), each in fresh
    processes.  With ``probe`` a setup sample is taken before every round;
    with ``check`` every answer is checked.  Returns one result per round.
    """
    results, first = [], 0
    for round_ in round_source:
        if count is not None and len(results) >= count:
            break
        if probe:
            probe.sample()
        result = run_round(round_, first, check=check)
        result["round"] = round_
        results.append(result)
        first += len(round_)
    return results


# -- metrics ----------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least 10 samples beyond it
    (nearest rank; p50 when there are fewer than 20 samples)."""
    n = len(samples)
    pct = max(50, min(99, int(100 * (1 - 10 / n)))) if n else 50
    ordered = sorted(samples)
    rank = max(1, -(-pct * n // 100))
    return pct, ordered[rank - 1]


class Outcome:
    """Per-input results of one pass over some rounds, merged."""

    def __init__(self, rounds_measured: list[dict]):
        self.rounds = rounds_measured
        self.records = [rec for r in rounds_measured for rec in r["records"]]
        self.latencies = [rec["latency_s"] / rec["slowdown"] for rec in self.records]
        self.busy = sum(rec["busy_s"] / rec["slowdown"] for rec in self.records)
        self.wall_latencies = [rec["latency_s"] for rec in self.records]
        self.slowdowns = [rec["slowdown"] for rec in self.records]
        self.units = sum(rec["units"] for rec in self.records)
        self.failed = sum(rec["failed_units"] for rec in self.records)
        self.verdicts = [v for rec in self.records for v in rec["verdicts"]]
        self.summaries = {rec["input"]: rec["summary"] for rec in self.records}
        self.problems = [p for rec in self.records for p in rec["problems"]]
        self.peak_rss_mb = max((r["peak_rss_kb"] for r in rounds_measured), default=0) / 1024
        self.tail_pct, self.tail_s = tail(self.latencies)

    def metrics(self, setup_s: float) -> dict:
        return {
            "setup_s": setup_s,
            "verdicts_per_s": self.units / self.busy,
            "latency_p50_ms": 1000 * statistics.median(self.latencies),
            "latency_tail_ms": 1000 * self.tail_s,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def decided_ratio(self) -> float:
        import answers

        return sum(map(answers.is_decided, self.verdicts)) / max(1, len(self.verdicts))

    def digest(self) -> str:
        import answers

        return answers.digest(rec["payload_sha256"] for rec in self.records)


def layer_metrics(traced: Outcome) -> dict:
    """Per-layer metrics from a traced pass, per input, with self times
    divided by the slowdown measured beside each span list."""
    span_lists = [spans for r in traced.rounds for spans in r["span_lists"]]
    slowdowns = [x for r in traced.rounds for x in r["span_slowdowns"]]
    cert_stats = [stat for r in traced.rounds for stat in r["cert_stats"]]
    scan_calls, scan_rows, scan_members = (sum(rec["scan"][i] for rec in traced.records) for i in range(3))
    agg: dict[str, dict] = {}
    incomplete = certify_hits = rank_discs = 0
    for spans, slowdown in zip(span_lists, slowdowns):
        for name, row in sp.aggregate(spans).items():
            acc = agg.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += row["calls"]
            acc["self_s"] += row["self_s"] / slowdown
        index = {s[sp.ID]: s for s in spans}
        for s in spans:
            if s[sp.NAME] in ("exact_poly.factor_int", "exact_poly.int_squarefree_part"):
                incomplete += s[sp.ERROR] == "FactorizationIncomplete"
            certify_hits += bool(s[sp.HIT])
            if s[sp.NAME] == "exact_poly.discriminant":
                rank_discs += sp.has_ancestor(
                    index, s, ("rank_engine.rank_verdict", "rank_engine.rank_table")
                )
    total = sum(sp.top_level_seconds(spans) / x for spans, x in zip(span_lists, slowdowns))

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name, unit in PER_LAYER:
        if unit == "calls/input":
            m[name] = calls(name.rpartition(".")[0]) / traced.units
        elif unit == "s/input":
            m[name] = self_s(name.rpartition(".")[0]) / traced.units
    factoring = ("exact_poly.factor_int", "exact_poly.int_squarefree_part")
    m["exact_poly.factoring_incomplete_ratio"] = ratio(incomplete, sum(map(calls, factoring)))
    m["exact_poly.factoring.share"] = ratio(sum(map(self_s, factoring)), total)
    m["modp_factor.degree_pattern.share"] = ratio(self_s("modp_factor.degree_pattern"), total)
    m["galois_cert.primes_sampled"] = ratio(sum(n for n, _ in cert_stats), len(cert_stats))
    m["galois_cert.proof_prefix_ratio"] = ratio(sum(r for _, r in cert_stats), len(cert_stats))
    m["galois_cert.cache_hit_ratio"] = ratio(certify_hits, calls("galois_cert.certify_galois"))
    m["morse_scan.rows"] = ratio(scan_rows, scan_calls)
    m["morse_scan.in_A_h_ratio"] = ratio(scan_members, scan_rows)
    m["rank_engine.discriminants_per_verdict"] = ratio(
        rank_discs, sum(rec["rank_verdicts"] for rec in traced.records)
    )
    m["cli.stdout_bytes"] = sum(rec["stdout_bytes"] for rec in traced.records) / traced.units
    return m


# -- main -------------------------------------------------------------------------


def traced_metrics(args, run_round, outcome: Outcome, setup_s: float, env_info: dict) -> dict:
    """Run the measured rounds once more under spans; per-layer metrics."""
    rounds_done = [r["round"] for r in outcome.rounds]
    traced = Outcome(measure(run_round(trace=True), rounds_done, check=False))
    mismatched = [i for i, s in traced.summaries.items() if outcome.summaries[i] != s]
    for i in mismatched[:20]:
        print(f"# FAILED: input {i} answers differently under tracing")
    outcome.failed += len(mismatched)

    metrics = layer_metrics(traced)
    e2e = outcome.metrics(setup_s)
    metrics["cli.setup_share_of_p50"] = setup_s / (e2e["latency_p50_ms"] / 1000)
    metrics["trace_overhead_ratio"] = traced.busy / outcome.busy - 1
    metrics["verdicts.decided_ratio"] = outcome.decided_ratio()
    metrics["verdicts.failed_ratio"] = outcome.failed / max(1, outcome.units)
    metrics = {name: metrics[name] for name, _ in PER_LAYER}

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "env": env_info,
        "end_to_end": e2e, "metrics": metrics,
        "spans": [spans for r in traced.rounds for spans in r["span_lists"]],
    }))
    print(f"# spans and per-layer metrics written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "berger_rank" / "__init__.py").is_file():
        print(f"error: no berger_rank sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = pinned_env()
    pool = json.loads((BENCH / "pool.json").read_text())[args.workload]

    def run_round(trace):
        if args.workload == "rank-cli":
            return lambda round_, first, check: cli_round(round_, first, env, trace, check)
        return lambda round_, first, check: library_round(
            args.workload, round_, first, env, trace, check
        )

    probe = SetupProbe(env)
    source = rounds(pool, random.Random(args.seed))
    count = max(1, round(args.seconds / ROUND_S[args.workload]))
    outcome = Outcome(measure(run_round(trace=False), source, count, probe))
    setup_s, wall_setup_s, bare_s = probe.medians()

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    env_info = describe_env()
    print("# env " + ", ".join(f"{k} {v}" for k, v in env_info.items()))
    print(f"# setup: import {1000 * setup_s:.1f} ms scaled, {1000 * wall_setup_s:.1f} ms "
          f"unscaled, bare interpreter {1000 * bare_s:.1f} ms unscaled (medians of "
          f"{len(probe.imports)} starts taken between rounds)")
    print(f"# {outcome.units} verdicts from {len(outcome.latencies)} calls in "
          f"{len(outcome.rounds)} rounds, each in fresh processes; "
          f"latency_tail_ms is p{outcome.tail_pct} of {len(outcome.latencies)} samples")
    print(f"# times are divided by the reference slowdown (median {statistics.median(outcome.slowdowns):.3f} "
          f"here); unscaled wall p50 {1000 * statistics.median(outcome.wall_latencies):.2f} ms")
    print(f"# decided_ratio {outcome.decided_ratio():.6g}, "
          f"failed_ratio {outcome.failed / max(1, outcome.units):.6g}")
    print(f"# payload_sha256 {outcome.digest()}")
    for problem in outcome.problems[:20]:
        print(f"# FAILED: {problem}")

    if args.trace:
        metrics = traced_metrics(args, run_round, outcome, setup_s, env_info)
        units = dict(PER_LAYER)
    else:
        metrics, units = outcome.metrics(setup_s), dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.units,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
