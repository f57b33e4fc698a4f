"""frdlat benchmark: end-to-end and per-layer metrics of the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-S243 --seed 1 --seconds 30 --trace 0

With --trace 0 it prints, per workload:

- wall_s: median wall time of one `frdlat.cli.main([...])` invocation
  (read config, compute, write artifacts, return the exit code), run back
  to back in one fresh process after one cheap untimed warm-up (see
  workloads.py);
- setup_s: median time for a fresh interpreter to import `frdlat.cli` and
  parse the workload config, over 2 * SETUP_PROBES interpreters, half
  before and half after the worker so the median spans the run;
- peak_rss_mb: peak resident memory (1e6 bytes) of that process;
- fail_frac: failed invocations over invocations attempted, on the
  summary line and as the result's `failed`/`attempted`.  It is 0 when
  the program is correct, so it is not a bounded end-to-end metric.

With --trace 1 a separate process alternates untraced and traced
invocations and prints the per-layer metrics of the traced ones (see
tracer.py), plus trace.overhead_frac.  Spans go to
.perfbench_out/<run>/spans.json.

Every child process runs with min(workload.blas_threads, nproc) BLAS
threads (see workloads.py), and the sample workload's pool with
min(2, nproc) threads.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The program is imported from
the checkout's src/; without it the benchmark exits 2 and prints no
result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import LAYERS
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 4  # timed interpreters before the worker, and again after it
CHILD_TIMEOUT_S = 170
PROBE = (
    "import sys, frdlat.cli, frdlat.config\n"
    "with open(sys.argv[1], encoding='utf-8') as fh:\n"
    "    frdlat.config.parse_config(fh.read())\n"
)

# Functions whose calls, total_s and self_s are per-layer metrics.
FUNCS = (
    "cli.main",
    "config.parse_config",
    "projector.local_green_flat",
    "projector.assemble_stiffness",
    "decomposition.decompose",
    "decomposition.complex_decompose",
    "elliptic.symbol_flat",
    "spectral.multiplier_to_kernel",
    "verification.check_sum",
    "verification.check_finite_range",
    "verification.check_psd",
    "verification.check_symmetry",
    "verification.decay_table",
    "verification.envelope_report",
    "sampling.build_sampler",
    "sampling._component_batch",
    "sampling._correlation_batch",
    "analyticity.contour_derivatives",
    "analyticity.fd_derivative",
    "analyticity.derivative_bound_check",
    "output.write_kernel_csv",
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(blas_threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def run_child(args, env):
    try:
        proc = subprocess.run(args, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("%s timed out after %d s" % (args[1], CHILD_TIMEOUT_S)) from exc
    if proc.returncode != 0:
        raise BenchError("%s exited %d:\n%s" % (args[1], proc.returncode, proc.stderr[-4000:]))
    return proc


def setup_times(config_path, env, warm_up):
    """Wall times of SETUP_PROBES fresh interpreters that import frdlat.cli
    and parse the config.  With warm_up, an untimed first one fills the
    bytecode and file caches."""
    times = []
    for i in range(SETUP_PROBES + warm_up):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", PROBE, config_path], env)
        if i >= warm_up:
            times.append(time.perf_counter() - t0)
    return times


def run_worker(workload, config_path, warmup_path, work_dir, seconds, trace, env):
    result_path = os.path.join(work_dir, "result.json")
    args = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
            "--workload", workload, "--config", config_path,
            "--warmup-config", warmup_path, "--work-dir", work_dir,
            "--seconds", str(seconds), "--trace", str(trace), "--result", result_path]
    if trace:
        args += ["--spans", os.path.join(work_dir, "spans.json")]
    proc = run_child(args, env)
    sys.stderr.write(proc.stderr)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if os.path.realpath(result["frdlat"]) != os.path.realpath(os.path.join(SRC, "frdlat")):
        raise BenchError("imported frdlat from %s, not the checkout" % result["frdlat"])
    return result


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(result, setup):
    timed = [r["wall_s"] for r in result["invocations"] if r["kind"] == "timed"]
    return {
        "wall_s": metric(statistics.median(timed), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }, len(timed)


def per_layer(result, workload):
    """Medians over the traced invocations; targets that no longer exist
    are returned in `missing` instead of as zeros."""
    traced = result["traced"]
    wrapped = set(result["wrapped"])
    broken = set(result["broken_hooks"])
    out = {}
    missing = []

    def med(fn):
        return statistics.median(fn(t) for t in traced)

    for name in FUNCS:
        if name not in wrapped:
            missing.append(name)
            continue
        for key, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s")):
            out["%s.%s" % (name, key)] = metric(
                med(lambda t: t["layers"].get(name, {}).get(key, 0)), unit)

    def counter(name, source, unit, needs):
        if needs not in wrapped or needs in broken:
            missing.append(name)
        else:
            out[name] = metric(med(lambda t: t[source].get(name, 0)), unit)

    counter("projector.local_green_flat.rhs", "counters", "count", "projector.local_green_flat")
    counter("sampling.fields_drawn", "counters", "count", "sampling._component_batch")
    counter("decomposition.result_mb", "maxima", "MB", "decomposition.decompose")
    if "sampling.fields_drawn" in out:
        # Fields needed (one per sample and scale) over fields drawn; 0 on
        # workloads that draw none.
        drawn = out["sampling.fields_drawn"]["value"]
        out["sampling.draw_efficiency"] = metric(
            workload.samples * (workload.N + 1) / drawn if drawn else 0.0, "ratio")
    else:
        missing.append("sampling.draw_efficiency")
    out["output.bytes_written"] = metric(med(lambda t: t["bytes"]), "bytes")
    for layer in LAYERS:
        out["%s.errors" % layer] = metric(med(lambda t: t["errors"].get(layer, 0)), "count")

    plain = [r["wall_s"] for r in result["invocations"] if r["kind"] == "plain"]
    out["trace.overhead_frac"] = metric(
        med(lambda t: t["wall_s"]) / statistics.median(plain) - 1.0, "ratio")

    # local_green_flat runs in the main thread, so its share is of wall
    # time; _component_batch runs in the sampler pool, where wall spans
    # overlap, so its share is of the invocation's process CPU time.
    if {"projector.local_green_flat", "decomposition.decompose"} <= wrapped:
        out["share.local_green_flat_in_decompose"] = metric(med(
            lambda t: t["lgf_in_decompose_s"]
            / t["layers"]["decomposition.decompose"]["total_s"]), "ratio")
    else:
        missing.append("share.local_green_flat_in_decompose")
    if "sampling._component_batch" in wrapped:
        out["share.component_batch_cpu"] = metric(med(
            lambda t: t["layers"].get("sampling._component_batch", {}).get("cpu_s", 0.0)
            / t["cpu_s"]), "ratio")
    else:
        missing.append("share.component_batch_cpu")
    return out, missing


def main(argv=None):
    ap = argparse.ArgumentParser(description="frdlat benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "frdlat", "cli.py")):
        print("no frdlat package under %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    env = child_env(min(workload.blas_threads, nproc))
    work_dir = os.path.join(OUT, "%s-seed%d-trace%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    os.makedirs(work_dir)
    config_path = os.path.join(work_dir, "config.json")
    warmup_path = os.path.join(work_dir, "warmup.json")
    for path, warmup in ((config_path, False), (warmup_path, True)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(workload.config_text(args.seed, warmup))

    try:
        setup = [] if args.trace else setup_times(config_path, env, warm_up=True)
        result = run_worker(args.workload, config_path, warmup_path, work_dir,
                            args.seconds, args.trace, env)
        if not args.trace:
            setup += setup_times(config_path, env, warm_up=False)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1

    invocations = result["invocations"]
    failed = [r for r in invocations if r["error"]]
    env_record = dict(result["env"], workload=args.workload, workload_seed=args.seed,
                      seconds=args.seconds,
                      sampler_threads=min(workload.threads, nproc) if workload.threads else None)
    print(json.dumps({"env": env_record}))
    for r in failed:
        print("failed %s invocation: %s" % (r["kind"], r["error"]))
    fail_frac = len(failed) / len(invocations)
    if args.trace:
        metrics, missing = per_layer(result, workload)
        print("%s seed=%d traced invocations=%d missing=%s fail_frac=%.3g"
              % (args.workload, args.seed, len(result["traced"]), missing or "none", fail_frac))
    else:
        metrics, n_timed = end_to_end(result, setup)
        print("%s seed=%d wall_s=%.4f s (median of %d invocations) setup_s=%.4f s "
              "(median of %d) peak_rss_mb=%.1f MB fail_frac=%.3g (%d/%d)" % (
                  args.workload, args.seed, metrics["wall_s"]["value"], n_timed,
                  metrics["setup_s"]["value"], len(setup), metrics["peak_rss_mb"]["value"],
                  fail_frac, len(failed), len(invocations)))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
