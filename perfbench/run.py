#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds the daemon and the load
generator from source (release profile, into .bench_build), records a
host fingerprint, pins itself to one vCPU (the generator and the daemons
it spawns inherit that), runs perfbench/bench.exe, and prints the generator's
report followed by the fingerprint.  The last line of stdout is the
result object: {"correct", "attempted", "failed", "metrics"}.  A copy of
each result, with its fingerprint, is appended to
.bench_results/results.jsonl.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
RESULTS_DIR = ".bench_results"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SOURCES = ("dune-project", "bin/hercules.ml", "lib", "perfbench/bench.ml")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def checkout_env(work):
    """Keep the build and the run inside the checkout: no shared dune
    cache, temporary files under the work directory."""
    tmp = os.path.abspath(os.path.join(work, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)


def build(env):
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "./bin/hercules.exe", "./perfbench/bench.exe"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def fsync_latency_us(directory, n=200):
    """Raw fsync latency of the disk holding the databases."""
    path = os.path.join(directory, "fsync_probe")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    times = []
    try:
        for _ in range(n):
            os.write(fd, b"x" * 256)
            t0 = time.perf_counter()
            os.fsync(fd)
            times.append((time.perf_counter() - t0) * 1e6)
    finally:
        os.close(fd)
        os.unlink(path)
    q = statistics.quantiles(times, n=10)
    return {"p50": round(statistics.median(times), 1), "p90": round(q[8], 1)}


def host_fingerprint(work):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_at_start": list(os.getloadavg()),
        "fsync_us_checkout_disk": fsync_latency_us(work),
    }


def pin_one_cpu():
    """Pin this process, and so the generator and every daemon it spawns,
    to one vCPU: the closed loop runs one request at a time, and the
    host-speed reference the generator times between iterations then
    measures the vCPU that did the work."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_bench(args, work, env):
    cmd = [os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--hercules", os.path.join(BUILD_DIR, "default", "bin", "hercules.exe"),
           "--work", work]
    # a session of its own, so a timeout can stop the daemons it spawned too
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True, env=env)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    try:
        # daemons left behind by a crash share the process group
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if proc.returncode != 0:
        sys.stdout.write(out)
        sys.stderr.write(err)
        fail(f"bench.exe exited with {proc.returncode}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [s for s in SOURCES if not os.path.exists(s)]
    if missing:
        fail("not at the root of a repository checkout (missing: "
             + ", ".join(missing) + ")")
    work = os.path.join(".bench_work", str(os.getpid()))
    os.makedirs(work)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    try:
        env = checkout_env(work)
        build(env)
        host = host_fingerprint(work)
        host["pinned_cpu"] = pin_one_cpu()
        out = run_bench(args, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print("host " + json.dumps(host))
    with open(os.path.join(RESULTS_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "host": host, "result": result}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
