#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. It builds `existctl` and the
benchmark's in-process programs (perfbench/CMakeLists.txt, Release, into
$CARGO_TARGET_DIR or .bench_build), runs one workload for about S
seconds and prints, as its last stdout line, one JSON object
{"correct", "attempted", "failed", "metrics"}. The line before it is the
run record (machine, build, source identity, seed, sample counts).

--trace 0 reports the end-to-end metrics from an untraced run;
--trace 1 a separate traced run that times each module's calls.
Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave the source tree as it was
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
START = time.perf_counter()
# A run keeps measuring past --seconds until it holds enough samples
# for its tail percentile, but never beyond this many seconds.
HARD_LIMIT_S = 140.0
MB = 1048576.0

TRACE_APPS = {"trace_search": "Search1", "trace_lbm": "lbm"}
# Highest tail percentile each workload reports; its sample floor
# leaves at least stats.MIN_BEYOND samples above it.
TAIL_CAP = {"trace_search": 75, "trace_lbm": 90, "reconcile_wal": 90}
MIN_SAMPLES = {"trace_search": 40, "trace_lbm": 100, "reconcile_wal": 144}

END_TO_END = ("setup_s", "request_p50_ms", "request_tail_ms",
              "throughput_rps", "peak_rss_mb", "wall_accuracy_pct")
UNITS = {
    "setup_s": "s", "request_p50_ms": "ms", "request_tail_ms": "ms",
    "throughput_rps": "1/s", "peak_rss_mb": "MB", "wall_accuracy_pct": "%",
    "os.oracle_s": "s", "os.ns_per_branch": "ns", "hwtrace.self_s": "s",
    "analysis.truth_self_s": "s", "decode.s": "s",
    "decode.mbranches_per_s": "Mbranch/s", "decode.memo_hit_pct": "%",
    "analysis.report_s": "s", "tools.residual_s": "s",
    "os.branches": "count", "os.context_switches": "count",
    "hwtrace.trace_mb": "MB", "core.msr_writes": "count",
    "decode.segments": "count", "decode.coverage_pct": "%",
    "core.overhead_pct": "%",
    "cluster.plan_s": "s",
    "analysis.session_s": "s", "cluster.collect_s": "s",
    "cluster.publish_s": "s", "durability.wal_s": "s",
    "durability.snapshot_s": "s", "durability.snapshot_mb": "MB",
    "durability.replay_s": "s", "cluster.restore_s": "s",
    "durability.recover_s": "s", "durability.traced_rps": "1/s",
    "agent.retransmit_pct": "%", "cluster.commit_wait_pct": "%",
    "durability.wal_mb": "MB", "net.wire_mb": "MB",
}
PER_LAYER = tuple(k for k in UNITS if k not in END_TO_END)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def elapsed():
    return time.perf_counter() - START


def log(msg):
    print(f"[perfbench {elapsed():7.2f}s] {msg}", file=sys.stderr,
          flush=True)


# --- Build --------------------------------------------------------------


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(targets):
    """Configure once, then build `targets` (serialised by a lock so
    concurrent runs in one checkout do not race the build tree)."""
    for needed in ("CMakeLists.txt", "src", "tools/existctl.cc"):
        if not (ROOT / needed).exists():
            raise BenchError(f"{ROOT} is not a source tree: no {needed}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = out / "CMakeCache.txt"
        if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH}\n" \
                not in cache.read_text():
            shutil.rmtree(out / "CMakeFiles", ignore_errors=True)
            cache.unlink()
        steps = []
        if not cache.exists():
            steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(out), "-j", jobs,
                      "--target", *targets])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                raise BenchError("build failed: " + " ".join(cmd))
    return out


def build_type(out):
    m = re.search(r"^CMAKE_BUILD_TYPE:STRING=(.*)$",
                  (out / "CMakeCache.txt").read_text(), re.M)
    return m.group(1) if m else ""


def source_identity():
    """The git commit when the tree is a repository, and always a
    content hash of the sources the benchmark builds and runs."""
    sha = None
    try:
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = got.stdout.split()
        # Only this tree's own repository names its commit.
        if got.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "bench", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return sha, h.hexdigest()


# --- Trace workloads ----------------------------------------------------


def trace_periods(app, seed):
    """Four periods near 200 ms, symmetric about it, in seeded order."""
    rng = random.Random(f"{app}/{seed}")
    a, b = rng.sample(range(2, 16), 2)
    periods = [200 - a, 200 - b, 200 + b, 200 + a]
    rng.shuffle(periods)
    return periods


def invoke(existctl, app, period):
    """One `existctl trace` invocation: (wall s, max-RSS KB, rc, stdout)."""
    cmd = [str(existctl), "trace", app, "--report", "--threads", "1",
           "--period-ms", str(period)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, cwd=ROOT)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode, out


def printed(stdout, label):
    m = re.search(rf"^{label}\s+(\S+)$", stdout.decode(errors="replace"),
                  re.M)
    return m.group(1) if m else None


class TraceChecks:
    """Per-input checks of `existctl trace` output."""

    def __init__(self):
        self.reference = {}
        self.failed = 0
        self.mismatches = []

    def request(self, period, rc, out):
        """Count one invocation; False when it failed."""
        ok = rc == 0 and b"EXIST behaviour report" in out
        if ok and period in self.reference:
            ok = out == self.reference[period]
        elif ok:
            self.reference[period] = out
        if not ok:
            self.failed += 1
        return ok

    def exact(self, period, values, cli_out=None):
        """The CLI's printed, rounded values must match the exact
        in-process ones for the same input."""
        out = cli_out if cli_out is not None else self.reference.get(period)
        if out is None:
            self.mismatches.append(f"{period}: no successful invocation")
            return
        want = {"coverage": f"{100 * values['coverage']:.1f}%",
                "Wall accuracy": f"{100 * values['wall_accuracy']:.1f}%",
                "instructions retired": str(values["insns"])}
        for label, value in want.items():
            got = printed(out, label)
            if got != value:
                self.mismatches.append(
                    f"{period}: {label} printed {got}, exact {value}")
        if "report" in values and \
                not out.endswith(values["report"].encode()):
            self.mismatches.append(f"{period}: behaviour report differs")


def layers(tools, app, periods, mode):
    cmd = [str(tools / "perfbench_layers"), "--app", app, "--periods",
           ",".join(str(p) for p in periods), "--mode", mode]
    got = subprocess.run(cmd, capture_output=True, cwd=ROOT)
    if got.returncode != 0:
        raise BenchError(f"perfbench_layers failed: {got.stderr[-500:]}")
    return [json.loads(line) for line in got.stdout.decode().splitlines()]


def run_trace(workload, args, tools):
    app = TRACE_APPS[workload]
    existctl = tools / "exist" / "tools" / "existctl"
    checks = TraceChecks()
    record = {}

    # Set-up, three times: derive the inputs from the seed, then one
    # full untimed invocation. The first sample runs from process start.
    setup = []
    periods = []
    for k in range(3):
        t0 = START if k == 0 else time.perf_counter()
        periods = trace_periods(app, args.seed)
        _, _, rc, out = invoke(existctl, app, periods[k])
        checks.request(periods[k], rc, out)
        setup.append(time.perf_counter() - t0)
    record["periods_ms"] = periods

    walls, rss, traced = [], [], []
    attempted = 0
    t_window = time.perf_counter()
    deadline = t_window + args.seconds
    i = 0
    # The traced run reports no tail; it only needs each input once.
    floor = len(periods) if args.trace else MIN_SAMPLES[workload]
    while elapsed() < HARD_LIMIT_S and (
            time.perf_counter() < deadline or len(walls) < floor):
        period = periods[i % len(periods)]
        i += 1
        wall, maxrss, rc, out = invoke(existctl, app, period)
        attempted += 1
        if not checks.request(period, rc, out):
            continue
        walls.append(wall)
        rss.append(maxrss)
        if args.trace:
            # Back to back with the invocation: the same input, split
            # into its module calls in process.
            got = layers(tools, app, [period], "layers")[0]
            checks.exact(period, got, out)
            traced.append(got)
    window = time.perf_counter() - t_window
    record["window_s"] = window
    record["samples"] = len(walls)
    record["setup_samples"] = len(setup)

    if args.trace:
        distinct = list({s["period_ms"]: s for s in reversed(traced)}.values())
        metrics = layer_metrics(traced, distinct)
        metrics["analysis.report_s"] = med(traced, "report_s")
        metrics["tools.residual_s"] = stats.median(
            [w - s["truth_s"] - s["decode_s"] - s["report_s"]
             for w, s in zip(walls, traced)]) if traced else 0
        return metrics, record, attempted, checks.failed, checks.mismatches

    exact = layers(tools, app, periods, "virtual")
    for values in exact:
        checks.exact(values["period_ms"], values)
    t = stats.tail(walls, TAIL_CAP[workload]) if walls else None
    record["tail"] = t
    metrics = {
        "setup_s": stats.median(setup),
        "request_p50_ms": 1e3 * stats.median(walls) if walls else 0,
        "request_tail_ms": 1e3 * t["value"] if t else 0,
        "throughput_rps": len(walls) / window,
        "peak_rss_mb": stats.median(rss) / 1024.0 if rss else 0,
        "wall_accuracy_pct": 100 * mean(v["wall_accuracy"] for v in exact),
    }
    return metrics, record, attempted, checks.failed, checks.mismatches


# --- reconcile_wal ------------------------------------------------------

STREAM_KINDS = [(app, anomaly) for app in ("Search2", "Cache", "Prediction")
                for anomaly in (True, False)]
STREAM_REPEATS = 8  # 6 kinds x 8 = 48 requests per epoch
EPOCH_STREAMS = 24  # distinct epoch orders; epochs cycle through them


def reconcile_streams(seed):
    """EPOCH_STREAMS epoch streams of 48 manifests each: every
    (app, anomaly) kind eight times, in a seeded order per epoch, so a
    run's request mix is fixed and its order varies across epochs."""
    rng = random.Random(f"reconcile_wal/{seed}")
    streams = []
    for _ in range(EPOCH_STREAMS):
        kinds = STREAM_KINDS * STREAM_REPEATS
        rng.shuffle(kinds)
        streams.append([f"app={app}{' anomaly=true' if anomaly else ''} "
                        "period_ms=30 budget_mb=64 net=true loss=0.05"
                        for app, anomaly in kinds])
    return streams


def run_reconcile(args, tools):
    streams = reconcile_streams(args.seed)
    min_epochs = 1 if args.trace else \
        -(-MIN_SAMPLES["reconcile_wal"] // len(streams[0]))
    wal_root = build_dir() / f"wal-{os.getpid()}"
    shutil.rmtree(wal_root, ignore_errors=True)
    cmd = [str(tools / "perfbench_reconcile"), "--dir", str(wal_root),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--min-epochs", str(min_epochs)]
    stdin = "\n\n".join("\n".join(stream) for stream in streams)
    try:
        got = subprocess.run(cmd, input=stdin.encode(),
                             capture_output=True, cwd=ROOT,
                             timeout=HARD_LIMIT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("perfbench_reconcile did not finish in time")
    finally:
        shutil.rmtree(wal_root, ignore_errors=True)
    if got.returncode != 0:
        raise BenchError("perfbench_reconcile failed: "
                         + got.stderr.decode(errors="replace")[-800:])
    d = json.loads(got.stdout.decode().splitlines()[-1])
    record = {k: d[k] for k in ("epochs", "requests_per_epoch",
                                "stream_s")}
    record["recover_samples"] = len(d["recover_s"])
    record["samples"] = len(d["latency_s"])
    record["setup_samples"] = len(d["setup_s"])
    completed = d["attempted"] - d["failed"]
    mismatches = [f"{d['mismatches']} report mismatches"] \
        if d["mismatches"] else []

    if not args.trace:
        t = stats.tail(d["latency_s"], TAIL_CAP["reconcile_wal"])
        record["tail"] = t
        metrics = {
            "setup_s": stats.median(d["setup_s"]),
            "request_p50_ms": 1e3 * stats.median(d["latency_s"]),
            "request_tail_ms": 1e3 * t["value"] if t else 0,
            "throughput_rps": completed / d["stream_s"],
            "peak_rss_mb": d["peak_rss_mb"],
            "wall_accuracy_pct": 100 * d["wall_accuracy"],
        }
    else:
        keys = ("oracle_s", "exist_s", "truth_s", "decode_s",
                "truth_branches", "decoded_branches", "context_switches",
                "trace_bytes", "msr_writes", "segments", "memo_hits",
                "memo_misses", "slowdown", "coverage")
        samples = [dict(zip(keys, row))
                   for row in zip(*(d[k] for k in keys))]
        metrics = layer_metrics(samples)
        metrics.update({
            "cluster.plan_s": stats.median(d["plan_s"]),
            "analysis.session_s": stats.median(d["session_s"]),
            "cluster.collect_s": stats.median(d["collect_s"]),
            "cluster.publish_s": stats.median(d["publish_s"]),
            "durability.wal_s": stats.median(d["wal_s"]),
            "durability.snapshot_s": stats.median(d["snapshot_s"]),
            "durability.snapshot_mb": stats.median(d["snapshot_mb"]),
            "durability.replay_s": stats.median(d["replay_s"]),
            "cluster.restore_s": stats.median(d["restore_s"]),
            "durability.recover_s": stats.median(d["recover_s"]),
            "durability.traced_rps": completed / d["stream_s"],
            "agent.retransmit_pct":
                100 * d["retransmits"] / max(1, d["batches_sent"]),
            "cluster.commit_wait_pct":
                100 * d["reordered"] / max(1, d["commits"]),
            "durability.wal_mb":
                d["wal_bytes"] / MB / max(1, d["stream_requests"]),
            "net.wire_mb":
                d["wire_bytes"] / MB / max(1, d["stream_requests"]),
        })
        record["redriven_requests"] = len(d["plan_s"])
        record["sessions_split"] = len(samples)
    return metrics, record, d["attempted"], d["failed"], mismatches


# --- Shared -------------------------------------------------------------


def mean(values):
    values = list(values)
    return sum(values) / len(values)


def med(samples, key):
    return stats.median([s[key] for s in samples]) if samples else 0


def layer_metrics(samples, counted=None):
    """Per-module medians over traced sessions (trace inputs or
    re-driven reconcile sessions); every per-layer metric, zero where
    the workload does not run the layer. Exact counts and virtual-time
    values come from `counted` (default: all samples), which must hold
    each distinct input once so their medians repeat per seed."""
    metrics = {name: 0.0 for name in PER_LAYER}
    if not samples:
        return metrics
    counted = counted or samples
    metrics.update({
        "os.oracle_s": med(samples, "oracle_s"),
        "os.ns_per_branch": stats.median(
            [1e9 * s["oracle_s"] / max(1, s["truth_branches"])
             for s in samples]),
        "hwtrace.self_s": stats.median(
            [s["exist_s"] - s["oracle_s"] for s in samples]),
        "analysis.truth_self_s": stats.median(
            [s["truth_s"] - s["exist_s"] for s in samples]),
        "decode.s": med(samples, "decode_s"),
        "decode.mbranches_per_s": stats.median(
            [s["decoded_branches"] / s["decode_s"] / 1e6
             for s in samples if s["decode_s"] > 0] or [0]),
        "decode.memo_hit_pct": stats.median(
            [100 * s["memo_hits"] / max(1, s["memo_hits"] + s["memo_misses"])
             for s in counted]),
        "os.branches": med(counted, "truth_branches"),
        "os.context_switches": med(counted, "context_switches"),
        "hwtrace.trace_mb": med(counted, "trace_bytes") / MB,
        "core.msr_writes": med(counted, "msr_writes"),
        "decode.segments": med(counted, "segments"),
        "decode.coverage_pct": 100 * med(counted, "coverage"),
        "core.overhead_pct": stats.median(
            [100 * (s["slowdown"] - 1) for s in counted]),
    })
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted([*TRACE_APPS, "reconcile_wal"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        tools = build(["existctl", "perfbench_layers", "perfbench_reconcile"])
        global START
        START = time.perf_counter()  # set-up starts after the build
        if args.workload in TRACE_APPS:
            metrics, record, attempted, failed, mismatches = run_trace(
                args.workload, args, tools)
        else:
            metrics, record, attempted, failed, mismatches = run_reconcile(
                args, tools)
        sha, source = source_identity()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    for m in mismatches:
        log(f"check failed: {m}")
    names = PER_LAYER if args.trace else END_TO_END
    record.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "build_type": build_type(tools), "git_sha": sha,
        "source_sha256": source, "attempted": attempted, "failed": failed,
        "failure_share": stats.failure_share(failed, max(1, attempted)),
        "checks_failed": len(mismatches),
    })
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not mismatches and failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": UNITS[n]}
                    for n in names},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
