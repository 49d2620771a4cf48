#!/usr/bin/env python3
"""Build the ladder benchmark from source and run one workload.

    python3 ladderbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ladderbench/run.py --smoke

Run from the repository root. The first call configures and builds the
runtime libraries and the benchmark under .bench_build/ (about a minute on
4 cores); later calls only re-check the build. The benchmark's own output
is passed through; an environment stamp line is added before the last line,
which is the JSON result {"correct", "attempted", "failed", "metrics"}.
--smoke runs every workload once at a tiny size, with and without tracing,
and checks each reports the metrics BENCHMARK.json names.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ladderbench")
BINARY = os.path.join(BUILD, "ladderbench")
BUILD_TYPE = "RelWithDebInfo"
CHILD_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("runtime sources (src/) not found next to the benchmark; run "
             "from a full checkout of the repository")
    jobs = str(max(1, min(4, nproc())))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    if not os.path.isfile(BINARY):
        fail("build produced no benchmark binary")


def source_digest():
    """sha256 over src/ and the benchmark sources (the checkout may not be a
    git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return res.stdout.strip() if res.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def cpu_isa():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    for isa in ("avx512f", "avx2", "avx", "sse2"):
                        if isa in flags:
                            return isa
    except OSError:
        pass
    return "unknown"


def cpu_times():
    """Aggregate (steal, total) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload, seed, seconds, trace, smoke=False):
    """Runs the binary once; returns (exit code, stdout lines, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans_dir, f"{workload}-seed{seed}.jsonl")]
    load_before = os.getloadavg()
    cpu_before = cpu_times()
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {CHILD_TIMEOUT_S} s", 1)
    lines = res.stdout.splitlines()
    cpu_after = cpu_times()
    steal_pct = None
    if cpu_before and cpu_after and cpu_after[1] > cpu_before[1]:
        # Share of CPU time the hypervisor gave to other guests during the
        # run: the main source of run-to-run noise on a shared host.
        steal_pct = round(100.0 * (cpu_after[0] - cpu_before[0]) /
                          (cpu_after[1] - cpu_before[1]), 2)
    stamp = {
        "nproc": nproc(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "cpu_steal_pct": steal_pct,
        "build_type": BUILD_TYPE,
        "cpu_isa": cpu_isa(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "seed": seed,
    }
    lines.insert(max(0, len(lines) - 1), "# env " + json.dumps(stamp))
    result = None
    if lines and lines[-1].startswith("{"):
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is not None:
        missing = [m for m in expected_metrics(trace) or []
                   if m not in result["metrics"]]
        if missing:
            print(f"run.py: {workload} did not report {missing}",
                  file=sys.stderr)
            return 1, lines, None
    return res.returncode, lines, result


def smoke(workloads):
    bad = 0
    for w in workloads:
        for trace in (0, 1):
            t0 = time.time()
            code, _, result = run_one(w, 1, 0.3, trace, smoke=True)
            ok = code == 0 and result is not None and result["correct"]
            bad += not ok
            print(f"smoke {w:18s} trace={trace} "
                  f"{'ok' if ok else 'FAILED'} ({time.time() - t0:.1f} s)")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    build()
    workloads = ["ladder_coarse", "t2_7_fine_local", "t2_7_fine_remote",
                 "t2_7_skewed_steal"]
    if args.smoke:
        sys.exit(smoke(workloads))
    if args.workload not in workloads:
        fail(f"--workload must be one of {workloads}")
    code, lines, result = run_one(args.workload, args.seed, args.seconds,
                                  args.trace)
    if result is None:
        for line in lines:
            print(line, file=sys.stderr)
        fail(f"{args.workload} printed no result", 1)
    print("\n".join(lines))
    sys.exit(code)


if __name__ == "__main__":
    main()
