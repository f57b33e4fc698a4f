"""Self-test of the benchmark: exact counts, baseline shares, metric names.

    python3 perfbench/selftest.py [--seeds 1 2]

For each workload seed it runs every workload once traced and deriv-d3m2
once untraced, through run.py, and checks:

- every invocation passes (fail_frac = 0);
- the printed metric names are exactly BENCHMARK.json's end_to_end
  (untraced) and per_layer (traced) names, so no target is missing;
- counts that must repeat exactly: 262 local_green_flat and 128
  complex_decompose calls on deriv-d3m2, 3 local_green_flat calls on
  verify-S243, and draw_efficiency 0.375 on sample-9x9 (each sample is
  drawn 8 times where 3 are needed);
- the ROADMAP baseline table, within its +-15 %: local_green_flat is 99 %
  of decompose at S=243, and _component_batch is 12.8 s of the 16.0 s
  one-thread sample run on the 9x9 torus (compared as a share of process
  CPU time, because the workload's two sampler threads overlap in wall
  time).

Exits 1 and names each failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT = {
    "deriv-d3m2": {
        "projector.local_green_flat.calls": 262,
        "decomposition.complex_decompose.calls": 128,
    },
    "verify-S243": {"projector.local_green_flat.calls": 3},
    "sample-9x9": {"sampling.draw_efficiency": 0.375},
}
BASELINE = {
    "verify-S243": ("share.local_green_flat_in_decompose", 0.99),
    "sample-9x9": ("share.component_batch_cpu", 12.8 / 16.0),
}
BASELINE_TOL = 0.15


def bench(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "run.py exited %d" % proc.returncode
    print("\n".join(lines[1:-1]))
    return json.loads(lines[-1]), None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}

    problems = []
    runs = [(w["name"], 1) for w in spec["workloads"]] + [("deriv-d3m2", 0)]
    for seed in args.seeds:
        for workload, trace in runs:
            tag = "%s seed=%d trace=%d" % (workload, seed, trace)
            out, err = bench(workload, seed, trace)
            if err:
                problems.append("%s: %s" % (tag, err))
                continue
            metrics = out["metrics"]
            if not out["correct"] or out["failed"]:
                problems.append("%s: %d of %d invocations failed" % (tag, out["failed"], out["attempted"]))
            if set(metrics) != names[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: missing %s, extra %s" % (
                    tag, sorted(names[trace] - set(metrics)), sorted(set(metrics) - names[trace])))
            if not trace:
                continue
            for name, want in EXACT.get(workload, {}).items():
                got = metrics.get(name, {}).get("value")
                if got != want:
                    problems.append("%s: %s = %r, expected exactly %r" % (tag, name, got, want))
            if workload in BASELINE:
                name, ref = BASELINE[workload]
                got = metrics.get(name, {}).get("value")
                ok = got is not None and abs(got - ref) <= BASELINE_TOL * ref
                print("%s: %s = %s, ROADMAP baseline %.3f +-15%%: %s"
                      % (tag, name, got, ref, "ok" if ok else "OUTSIDE"))
                if not ok:
                    problems.append("%s: %s = %r outside %.3f +-15%%" % (tag, name, got, ref))
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
