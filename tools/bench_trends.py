#!/usr/bin/env python3
"""Run a benchmark set and aggregate its JSON lines.

Each bench binary prints one machine-readable line per configuration,
prefixed "JSON ". This driver runs the binaries of the chosen set,
collects those lines, and writes one aggregate document (default
BENCH_<set>.json at the repo root) so CI can diff the trajectory
run-over-run. The document names what produced it: the scale, the
host's CPU count (nproc), the build type from the build directory's
CMakeCache.txt, and the git commit of this checkout (suffixed
"-dirty" for uncommitted edits other than BENCH_*.json, null outside a
git checkout). Only compare documents that agree on all four.

Sets:
    decode   decode_throughput
             + micro_bench (TNT-memo sweep)      -> BENCH_decode.json
    cluster  reconcile_throughput                -> BENCH_cluster.json
    net      collect_throughput                  -> BENCH_net.json
    durability  recovery_time                    -> BENCH_durability.json
    observability  selftrace_overhead            -> BENCH_observability.json

micro_bench is a google-benchmark binary, not a "JSON "-line one: it is
run with --benchmark_format=json filtered to the TNT-memo sweep, and
its entries are normalized into the same record stream.

Usage:
    tools/bench_trends.py [--set decode] [--build-dir build]
                          [--out BENCH_decode.json] [--scale 0.25]

Only the standard library is used. Exit status is non-zero if a bench
binary is missing, fails, emits no JSON lines or a malformed one, the
aggregate cannot be written, or any configuration diverged from its
serial reference.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_SETS = {
    "decode": ["decode_throughput", "micro_bench"],
    "cluster": ["reconcile_throughput"],
    "net": ["collect_throughput"],
    "durability": ["recovery_time"],
    "observability": ["selftrace_overhead"],
}

# Binaries in GOOGLE_BENCHMARK_BENCHES speak google-benchmark's
# --benchmark_format=json instead of "JSON " lines; the filter keeps
# the driver's runtime bounded to the sweep CI actually tracks.
GOOGLE_BENCHMARK_BENCHES = {
    "micro_bench": "BM_TntMemoDecode",
}


class BenchOutputError(Exception):
    """A bench emitted a JSON line this driver cannot parse."""


def build_type(build_dir):
    """CMAKE_BUILD_TYPE as cached in `build_dir` ("" if unset)."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def git_sha():
    """HEAD of the checkout this script lives in, suffixed "-dirty" when
    tracked files other than the BENCH_*.json outputs differ from it;
    None outside a git checkout."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    git = ["git", "-C", root]
    try:
        head = subprocess.run(git + ["rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode != 0:
            return None
        diff = subprocess.run(
            git + ["diff", "--quiet", "HEAD", "--",
                   ":(exclude)BENCH_*.json"],
            capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return head.stdout.strip() + ("-dirty" if diff.returncode else "")


def run_bench(path, scale):
    env = dict(os.environ)
    if scale is not None:
        env["EXIST_BENCH_SCALE"] = str(scale)
    proc = subprocess.run(
        [path], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    lines = []
    for lineno, line in enumerate(proc.stdout.splitlines(), start=1):
        if not line.startswith("JSON "):
            continue
        payload = line[len("JSON "):]
        try:
            record = json.loads(payload)
        except json.JSONDecodeError as e:
            raise BenchOutputError(
                f"{os.path.basename(path)}: malformed JSON on output "
                f"line {lineno}: {e}\n  {payload!r}") from e
        if not isinstance(record, dict):
            raise BenchOutputError(
                f"{os.path.basename(path)}: JSON line {lineno} is a "
                f"{type(record).__name__}, expected an object")
        lines.append(record)
    return proc.returncode, lines, proc.stdout


def run_google_benchmark(path, bench_filter):
    """Run a google-benchmark binary and normalize its JSON report."""
    proc = subprocess.run(
        [path, f"--benchmark_filter={bench_filter}",
         "--benchmark_format=json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return proc.returncode, [], proc.stdout + proc.stderr
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        raise BenchOutputError(
            f"{os.path.basename(path)}: malformed google-benchmark "
            f"JSON: {e}") from e
    records = []
    for entry in report.get("benchmarks", []):
        name = entry.get("name", "")
        record = {
            "bench": os.path.basename(path),
            "name": name,
            "real_time_ns": entry.get("real_time"),
            "items_per_second": entry.get("items_per_second"),
        }
        # "BM_TntMemoDecode/8" -> tnt_memo_bits=8.
        if "/" in name:
            arg = name.rsplit("/", 1)[1]
            if arg.isdigit():
                record["tnt_memo_bits"] = int(arg)
        if "memo_hit%" in entry:
            record["memo_hit_pct"] = entry["memo_hit%"]
        records.append(record)
    return 0, records, proc.stdout


def summarize(records):
    """Pull the headline numbers out of the raw per-config records."""
    summary = {}
    cache = [r for r in records
             if r.get("bench") == "decode_throughput"
             and r.get("mode") == "cache"]
    if cache:
        best = max(cache, key=lambda r: r.get("speedup", 0.0))
        summary["decode_cache"] = {
            "best_speedup": best.get("speedup"),
            "best_app": best.get("app"),
            "speedups": {r.get("app"): r.get("speedup") for r in cache},
            "memo_hit_pct": {r.get("app"): r.get("memo_hit_pct")
                             for r in cache},
            "all_identical": all(r.get("identical") for r in cache),
        }
    memo = [r for r in records
            if r.get("bench") == "micro_bench"
            and "tnt_memo_bits" in r]
    if memo:
        best = max(memo, key=lambda r: r.get("items_per_second") or 0.0)
        summary["tnt_memo"] = {
            "best_branches_per_sec": best.get("items_per_second"),
            "best_bits": best.get("tnt_memo_bits"),
            "branches_per_sec_by_bits": {
                str(r.get("tnt_memo_bits")): r.get("items_per_second")
                for r in memo},
        }
    tp = [r for r in records
          if r.get("bench") == "decode_throughput"
          and r.get("mode") == "parallel"]
    if tp:
        best = max(tp, key=lambda r: r.get("speedup", 0.0))
        summary["decode_throughput"] = {
            "best_speedup": best.get("speedup"),
            "best_threads": best.get("threads"),
            "segments_per_sec": best.get("segments_per_sec"),
            "all_identical": all(r.get("identical") for r in tp),
        }
    rec = [r for r in records
           if r.get("bench") == "reconcile_throughput"
           and r.get("mode") == "sharded"]
    if rec:
        best = max(rec, key=lambda r: r.get("requests_per_sec", 0.0))
        summary["reconcile_throughput"] = {
            "best_requests_per_sec": best.get("requests_per_sec"),
            "best_shards": best.get("shards"),
            "best_speedup_vs_serial": best.get("speedup"),
            "p99_latency_us_at_best": best.get("p99_latency_us"),
            "all_identical": all(r.get("identical") for r in rec),
        }
    st = [r for r in records
          if r.get("bench") == "selftrace_overhead"
          and r.get("mode") == "decode"]
    if st:
        worst = max(st, key=lambda r: r.get("overhead_pct", 0.0))
        emit = [r for r in records
                if r.get("bench") == "selftrace_overhead"
                and r.get("mode") == "emit"]
        summary["selftrace_overhead"] = {
            "worst_overhead_pct": worst.get("overhead_pct"),
            "gate_pct": worst.get("gate_pct"),
            "all_pass": all(r.get("pass") for r in st),
            "emit_ns_per_event":
                emit[0].get("ns_per_event") if emit else None,
        }
    col = [r for r in records
           if r.get("bench") == "collect_throughput"]
    if col:
        worst = max(col, key=lambda r: r.get("loss", 0.0))
        summary["collect_throughput"] = {
            "transfers_per_sec_at_worst_loss":
                worst.get("transfers_per_sec"),
            "worst_loss": worst.get("loss"),
            "goodput_at_worst_loss": worst.get("goodput"),
            "retransmits_at_worst_loss": worst.get("retransmits"),
            "degraded_total": sum(r.get("degraded", 0) for r in col),
            "all_identical": all(r.get("identical") for r in col),
        }
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--set", dest="bench_set", default="decode",
                    choices=sorted(BENCH_SETS),
                    help="benchmark set to run (default: decode)")
    ap.add_argument("--build-dir", default="build",
                    help="CMake build directory (default: build)")
    ap.add_argument("--out", default=None,
                    help="aggregate output path "
                         "(default: BENCH_<set>.json)")
    ap.add_argument("--scale", default=None,
                    help="EXIST_BENCH_SCALE for quick runs, e.g. 0.25")
    args = ap.parse_args()

    benches = BENCH_SETS[args.bench_set]
    out_path = args.out or f"BENCH_{args.bench_set}.json"

    records = []
    for name in benches:
        path = os.path.join(args.build_dir, "bench", name)
        if not os.path.exists(path):
            print(f"bench binary not found: {path} "
                  f"(build the project first)", file=sys.stderr)
            return 1
        print(f"running {name} ...", flush=True)
        try:
            if name in GOOGLE_BENCHMARK_BENCHES:
                rc, lines, output = run_google_benchmark(
                    path, GOOGLE_BENCHMARK_BENCHES[name])
            else:
                rc, lines, output = run_bench(path, args.scale)
        except BenchOutputError as e:
            print(f"bench output error: {e}", file=sys.stderr)
            return 1
        if rc != 0:
            sys.stderr.write(output)
            print(f"{name} failed with exit {rc}", file=sys.stderr)
            return rc
        if not lines:
            print(f"{name} emitted no JSON lines", file=sys.stderr)
            return 1
        records.extend(lines)
        print(f"  {len(lines)} configurations")

    doc = {
        "benches": benches,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "build_type": build_type(args.build_dir),
        "git_sha": git_sha(),
        "records": records,
        "summary": summarize(records),
    }
    try:
        with open(out_path, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
    except OSError as e:
        print(f"cannot write {out_path}: {e}", file=sys.stderr)
        return 1
    print(f"wrote {out_path}: {len(records)} records")
    for bench, s in doc["summary"].items():
        print(f"  {bench}: {s}")
    if not all(s.get("all_identical", True)
               for s in doc["summary"].values()):
        print("a configuration diverged from its reference!",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
