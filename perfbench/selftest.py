#!/usr/bin/env python3
"""The benchmark's own tests: determinism and replay fidelity.

    python3 perfbench/selftest.py [--seed N]

Run it from the root of a checkout.  For every workload it makes two
runs with the same seed at each trace level, on the windows the
benchmark measures (--seconds 1 gives the minimum of three untraced
windows; a traced run always measures one), and checks that

  * every count-type metric (unit count or bytes) is identical across
    the two runs: one client and a fixed operation count leave nothing
    to chance;
  * the in-process replay appended exactly as many journal entries, and
    compacted exactly as often, as the daemon did on the same stream
    (replay.appends_diff = replay.compactions_diff = 0), which is what
    shows the replay measures the same program;
  * every run reports correct outputs and no failed request.

Exits 0 when all checks hold, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_UNITS = ("count", "B")


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} trace={trace}: run.py exited {out.returncode}")
    return json.loads(out.stdout.strip().split("\n")[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    problems = []
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for w in workloads:
        for trace in (0, 1):
            a = run(w, args.seed, trace)
            b = run(w, args.seed, trace)
            for r in (a, b):
                if not r["correct"] or r["failed"]:
                    problems.append(f"{w} trace={trace}: correct={r['correct']} "
                                    f"failed={r['failed']}")
            exact = [k for k, m in a["metrics"].items() if m["unit"] in EXACT_UNITS]
            for k in exact:
                if a["metrics"][k]["value"] != b["metrics"][k]["value"]:
                    problems.append(f"{w} trace={trace}: {k} differs between same-seed "
                                    f"runs: {a['metrics'][k]['value']} vs "
                                    f"{b['metrics'][k]['value']}")
            if trace:
                for k in ("replay.appends_diff", "replay.compactions_diff"):
                    if a["metrics"][k]["value"] != 0:
                        problems.append(f"{w}: {k} = {a['metrics'][k]['value']}, "
                                        "the replay diverged from the daemon")
            print(f"{w} trace={trace}: {len(exact)} count metrics compared", flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
