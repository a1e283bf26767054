#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks that
each run passes its output checks and emits every metric BENCHMARK.json
names, with its unit (run.py refuses a result that does not). Then checks
that one injected bad input (a mislabeled image, a tampered frame labeled
clean) counts as exactly one failed operation, and that the exact counts
repeat for a seed. Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalog", "admission", "fabric", "dataplane")


def run(workload, trace, *extra, seed=7):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
        + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("FAIL %s trace=%d: run.py exited %d" % (workload, trace, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    for workload in WORKLOADS:
        for trace in (0, 1):
            info, result = run(workload, trace)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   "%s trace=%d: %d ops, none failed, all metrics named %s" %
                   (workload, trace, result["attempted"], info["errors"] or ""))

    for workload in ("admission", "dataplane"):
        info, result = run(workload, 0, "--inject-fault")
        expect(result["failed"] == 1 and not result["correct"],
               "%s: one injected bad input is exactly one failed op (got %d: %s)" %
               (workload, result["failed"], info["errors"]))

    first, _ = run("fabric", 0)
    second, _ = run("fabric", 0)
    expect(first["detail"]["checkpoint_digest_low32"] ==
           second["detail"]["checkpoint_digest_low32"],
           "fabric: delivered digest repeats for a seed")
    counts = ("core.scan_cache.hits", "core.scan_cache.misses",
              "core.scan_cache.targeted_invalidations", "pon.dba_cycles",
              "pon.delivered_frames")
    _, a = run("admission", 1)
    _, b = run("admission", 1)
    expect(all(a["metrics"][c]["value"] == b["metrics"][c]["value"] for c in counts),
           "exact counts repeat for a seed: " +
           ", ".join("%s=%g" % (c, a["metrics"][c]["value"]) for c in counts))


if __name__ == "__main__":
    main()
