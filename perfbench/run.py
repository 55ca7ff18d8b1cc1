#!/usr/bin/env python3
"""End-to-end scenario benchmark: build, run one workload, report.

    python3 perfbench/run.py --workload cluster_n12 --seed 3 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
`perf_scenarios` binary (perfbench/CMakeLists.txt) into .bench_build/;
later calls only re-check the build. The binary runs the workload in one
process and prints a JSON report; this script checks it and prints, as its
last stdout line, one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are BENCHMARK.json's end_to_end
set, with --trace 1 its per_layer set, each with its unit. Times are in
reference seconds: host seconds scaled by a fixed reference loop timed
around each interval (see perf_scenarios.cpp); the unscaled figures are
printed too.

Before that line it prints `behaviour_identical: ...`, the comparison of the
first simulated day with the fingerprint recorded for that seed in
perfbench/fingerprint.json (informational; it never fails a run). Pass
--record-fingerprint to store the current fingerprint for the seed.

Exit status is non-zero, with no result line, when the build or the binary
fails.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perf_scenarios"
FINGERPRINTS = HERE / "fingerprint.json"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("cluster_n12", "diamond", "openwhisk_day")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# One run must end well inside 180 s, builds excepted.
DRIVER_TIMEOUT_S = 170


def log(*parts: object) -> None:
    print(*parts, file=sys.stderr, flush=True)


def build_jobs() -> int:
    return max(1, min(4, os.cpu_count() or 1))


def build() -> None:
    """Configure once, then build the binary (a no-op when current)."""
    # Written at the end of a successful configure only.
    if not (BUILD_DIR / "CMakeFiles" / "TargetDirectories.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "perf_scenarios",
         "-j", str(build_jobs())],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_binary(args: argparse.Namespace) -> dict:
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=DRIVER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"perf_scenarios exited with {proc.returncode}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError("perf_scenarios printed no report")
    return json.loads(lines[-1])


def metric_specs(trace: int) -> list[dict]:
    spec = json.loads(SPEC.read_text())
    return spec["per_layer" if trace else "end_to_end"]


def select_metrics(report: dict, trace: int) -> tuple[dict, list[str]]:
    """The metrics BENCHMARK.json names for this mode, plus any problems."""
    problems = []
    measured = report["metrics"]
    selected = {}
    for m in metric_specs(trace):
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if not NAME_RE.match(name):
            problems.append(f"metric name {name!r} is not [A-Za-z0-9_.-]")
        if got is None:
            problems.append(f"metric {name} missing from the report")
            continue
        if got["unit"] != unit:
            problems.append(f"metric {name} has unit {got['unit']}, "
                            f"expected {unit}")
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number")
            continue
        selected[name] = {"value": value, "unit": unit}
    return selected, problems


def compare_fingerprint(workload: str, fp: dict) -> str:
    """'true' / 'false (...)' / 'unknown (...)' against the recorded one."""
    if not FINGERPRINTS.exists():
        return "unknown (no perfbench/fingerprint.json)"
    recorded = json.loads(FINGERPRINTS.read_text()).get(workload, {})
    ref = recorded.get(str(fp["seed"]))
    if ref is None:
        return f"unknown (no fingerprint recorded for seed {fp['seed']})"
    diffs = [k for k in sorted(set(ref) | set(fp)) if ref.get(k) != fp.get(k)]
    return "true" if not diffs else "false (differs in " + ", ".join(diffs) + ")"


def record_fingerprint(workload: str, fp: dict) -> None:
    data = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    data.setdefault(workload, {})[str(fp["seed"])] = fp
    for w in data:
        data[w] = dict(sorted(data[w].items(), key=lambda kv: int(kv[0])))
    FINGERPRINTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-fingerprint", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        build()
        report = run_binary(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1

    metrics, problems = select_metrics(report, args.trace)
    checks = report["checks"]
    for what in checks["failures"]:
        log(f"check failed: {what}")
    for what in problems:
        log(f"report problem: {what}")
    fp = report["fingerprint"]
    if args.record_fingerprint:
        record_fingerprint(args.workload, fp)
    print(f"workload: {args.workload} seed {args.seed}: {report['days']} days"
          f" x {report['passes']} passes, {report['setups']} set-ups")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    host = report["host"]
    print(f"host seconds, unscaled: reference loop {host['ref_loop_s']:.4g},"
          f" setup {host['setup_s']:.4g}, run_wall {host['run_wall_s']:.4g}")
    print(f"trace_hash: {fp['trace_hash']}")
    print(f"behaviour_identical: {compare_fingerprint(args.workload, fp)}")
    result = {
        "correct": bool(checks["passed"]) and not problems,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
