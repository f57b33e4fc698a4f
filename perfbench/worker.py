"""One benchmark process: runs a workload through `frdlat.cli.main`.

Started by run.py in a fresh interpreter with the checkout's `src` on
PYTHONPATH.  After one untimed warm-up it calls `cli.main` back to back
(a closed loop with one caller) for about --seconds in whole invocations,
and writes what it measured to --result as JSON.  With --trace 1 it alternates an
untraced and a traced invocation, so the tracing overhead is measured in
the same process, and it writes the traced spans to --spans.

An invocation fails when `main` returns nonzero or raises, when an
expected artifact is missing or a report names a failed check, or when
the artifact directory's digest differs from the first timed one's.
"""

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy
import scipy
from frdlat import cli

from tracer import Tracer
from workloads import WORKLOADS


def tree_digest(root):
    """sha256 over the sorted relative paths and bytes of a directory,
    and the total bytes of its files."""
    h = hashlib.sha256()
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            total += len(data)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total


def artifact_problem(workload, out_dir):
    """Name of the first missing artifact or failed report check, or None."""
    for name in workload.artifacts():
        if not os.path.isfile(os.path.join(out_dir, name)):
            return "missing %s" % name
    with open(os.path.join(out_dir, workload.report), encoding="utf-8") as fh:
        checks = json.load(fh).get("checks", {})
    failed = sorted(k for k, v in checks.items() if v is not True)
    return "failed checks %s" % ",".join(failed) if failed else None


def blas_threads():
    """Thread count of every OpenBLAS library loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment(nproc):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": nproc,
        "machine": platform.machine(),
    }


def another(start, seconds, durations):
    """Whether to start one more invocation: yes while it is expected to
    end nearer to `seconds` after `start` than the run is now, so a run
    measures about `seconds` in whole invocations."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * statistics.median(durations) < seconds


class Runner:
    def __init__(self, workload, config_path, warmup_path, work_dir, nproc):
        self.workload = workload
        self.config_path = config_path
        self.warmup_path = warmup_path
        self.work_dir = work_dir
        self.nproc = nproc
        self.reference = None
        self.invocations = []

    def invoke(self, kind):
        """One `cli.main` call into a fresh artifact directory.  The
        warm-up is judged by its exit status alone."""
        warmup = kind == "warmup"
        out = os.path.join(self.work_dir, "inv%04d" % len(self.invocations))
        os.mkdir(out)
        config = self.warmup_path if warmup else self.config_path
        argv = self.workload.argv(config, out, self.nproc)
        gc.collect()
        error = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:
            rc, error = None, "%s: %s" % (type(exc).__name__, exc)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        digest, nbytes = tree_digest(out)
        if error is None and rc != 0:
            error = "exit code %r" % rc
        if not warmup:
            if self.reference is None:
                self.reference = digest
            if error is None:
                error = artifact_problem(self.workload, out)
            if error is None and digest != self.reference:
                error = "artifact digest differs from the first timed invocation"
        shutil.rmtree(out)
        row = {"kind": kind, "wall_s": wall, "cpu_s": cpu, "error": error, "bytes": nbytes}
        self.invocations.append(row)
        return row


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--warmup-config", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    runner = Runner(WORKLOADS[args.workload], args.config, args.warmup_config,
                    args.work_dir, nproc)
    result = {"frdlat": os.path.dirname(cli.__file__), "env": environment(nproc)}
    runner.invoke("warmup")

    layers = []
    if args.trace:
        tracer = Tracer()
        spans = []
        start = time.perf_counter()
        pairs = []
        while True:
            t0 = time.perf_counter()
            runner.invoke("plain")
            tracer.reset()
            tracer.install()
            try:
                row = runner.invoke("traced")
            finally:
                tracer.uninstall()
            layers.append({
                "wall_s": row["wall_s"],
                "cpu_s": row["cpu_s"],
                "bytes": row["bytes"],
                "layers": tracer.summary(),
                "errors": dict(tracer.errors),
                "counters": dict(tracer.counters),
                "maxima": dict(tracer.maxima),
                "lgf_in_decompose_s": tracer.nested_total(
                    "projector.local_green_flat", "decomposition.decompose"),
            })
            spans.append([list(s) for s in tracer.spans])
            pairs.append(time.perf_counter() - t0)
            if not another(start, args.seconds, pairs):
                break
        result["wrapped"] = tracer.wrapped
        result["broken_hooks"] = sorted(tracer.broken)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "name", "start", "end", "parent", "thread",
                                      "thread_cpu"],
                           "invocations": spans}, fh)
    else:
        start = time.perf_counter()
        walls = []
        while True:
            walls.append(runner.invoke("timed")["wall_s"])
            if not another(start, args.seconds, walls):
                break

    result["invocations"] = runner.invocations
    result["traced"] = layers
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
