"""Command line driver: decompose, verify, sample, deriv.

Every run reads one JSON config, writes artifacts into an existing
output directory, and exits 0 only if all enabled checks pass.  Failing
checks are named on standard error.  Outputs are byte-identical across
runs and thread counts for a fixed config and seed.
"""

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from .analyticity import (
    contour_derivatives,
    derivative_bound_check,
    derivative_sum_residual,
    fd_agreement,
    fd_derivative,
    radius_agreement,
)
from .config import parse_config
from .decomposition import decompose
from .errors import InsufficientScales, ParseError, ValidationError
from .lattice import oracle_fits
from .output import (
    decay_csv_text,
    envelope_csv_text,
    open_artifact,
    samples_csv_writer,
    write_json,
    write_kernel_csv,
    write_text,
)
from .sampling import build_sampler, covariance_deviation, run_sampling_suite
from .spectral import Kernel, multiplier_to_kernel
from .verification import (
    brute_force_green,
    check_symmetry,
    decay_table,
    diagnostics,
    envelope_report,
    green_equation_residual,
)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

ORACLE_TOL = 1e-10
GREEN_TOL = 1e-10
SYMMETRY_TOL = 1e-10
CONTRACTION_TOL = 1.0 + 1e-12
FD_TOL = 1e-5
RADIUS_TOL = 1e-8
DERIV_SUM_TOL = 1e-10
RATIO_LIMIT = 10.0
SE_LIMIT = 5.0

EPILOG = """\
exit codes:
  0  run completed and every enabled check passed
  1  run completed but at least one check failed (named on stderr)
  2  usage or configuration error
  3  I/O error (unreadable config, missing output directory)
  4  numerical or domain error (schedule, factorization, quadrature), or
     any other unexpected error; the exception type is named on stderr
"""


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frdlat",
        description="Finite range decomposition of lattice Green functions.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("decompose", "build scale kernels and diagnostics"),
        ("verify", "decompose plus oracle, Green-equation, decay, envelope checks"),
        ("sample", "draw scale fields and test empirical covariances"),
        ("deriv", "contour coefficient derivatives with convergence checks"),
    ):
        p = sub.add_parser(name, help=help_text, epilog=EPILOG,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", required=True, metavar="PATH", help="JSON run configuration")
        p.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
        if name == "sample":
            p.add_argument("--threads", type=int, default=os.cpu_count() or 1, metavar="K",
                           help="worker thread bound, capped at the core count")
            p.add_argument("--seed", type=int, metavar="U64",
                           help="stream seed (overrides config)")
            p.add_argument("--samples", type=int, metavar="N",
                           help="sample count (overrides config)")
    return parser


class CheckSet:
    def __init__(self):
        self.rows = []

    def add(self, name, passed, detail=""):
        self.rows.append((name, bool(passed), detail))

    def within(self, name, value, bound, unit=""):
        """Add the row `value <= bound` and return value for the report."""
        self.add(name, value <= bound, "%.3g%s > %.3g%s" % (value, unit, bound, unit))
        return value

    def as_dict(self):
        return {name: passed for name, passed, _ in self.rows}

    def failures(self):
        return [(name, detail) for name, passed, detail in self.rows if not passed]


def _report_failures(checks: CheckSet) -> int:
    failures = checks.failures()
    for name, detail in failures:
        msg = "check failed: %s" % name
        if detail:
            msg += " (%s)" % detail
        print(msg, file=sys.stderr)
    return EXIT_CHECK if failures else EXIT_OK


def _decompose_step(cfg, out_dir):
    """Decompose, write kernel_k*.csv and diagnostics.json, and check the
    diagnostics against the config tolerances."""
    result = decompose(cfg.A, cfg.geometry, cfg.schedule)
    diag = diagnostics(result)
    for k in range(1, result.n_scales + 1):
        write_kernel_csv(os.path.join(out_dir, "kernel_k%d.csv" % k), result.kernel(k))
    write_json(os.path.join(out_dir, "diagnostics.json"), diag)

    tols = cfg.tolerances
    checks = CheckSet()
    checks.within("sum_residual", diag["sum_residual"], tols["sum"])
    for k, res in enumerate(diag["range_residual"], start=1):
        if res is None:
            checks.add("range_residual_k%d" % k, True, "far region empty")
        else:
            checks.within("range_residual_k%d" % k, res, tols["range"])
    for k, lo in enumerate(diag["min_psd_eig"], start=1):
        checks.add("psd_min_k%d" % k, lo >= -tols["psd"], "%.3g < -%.3g" % (lo, tols["psd"]))
    checks.within("imag_residue", diag["imag_residue"], tols["imag"])
    return result, diag, checks


def run_decompose(cfg, out_dir) -> int:
    return _report_failures(_decompose_step(cfg, out_dir)[-1])


def _alpha_keyed(table):
    return {",".join(str(a) for a in alpha): val for alpha, val in table.items()}


def run_verify(cfg, out_dir) -> int:
    result, diag, checks = _decompose_step(cfg, out_dir)
    report = {"tolerances": dict(cfg.tolerances), "diagnostics": diag}
    if oracle_fits(cfg.geometry):
        oracle = brute_force_green(cfg.A, cfg.geometry)
        spectral = multiplier_to_kernel(result.green_table)
        diff = float(np.max(np.abs(oracle.values - spectral.values)))
        report["oracle"] = {
            "performed": True,
            "max_abs_diff": checks.within("oracle_green", diff, ORACLE_TOL),
        }
    else:
        report["oracle"] = {"performed": False, "max_abs_diff": None}

    report["green_equation"] = checks.within(
        "green_equation", green_equation_residual(result), GREEN_TOL
    )
    report["symmetry"] = checks.within("kernel_symmetry", check_symmetry(result), SYMMETRY_TOL)

    try:
        decay = decay_table(result)
    except InsufficientScales as exc:
        report["decay"] = {"performed": False, "reason": str(exc)}
    else:
        write_text(os.path.join(out_dir, "decay.csv"), decay_csv_text(decay))
        finite = all(np.isfinite(row.sup_norm) for row in decay.rows)
        checks.add("decay_finite", finite, "non-finite sup norm")
        report["decay"] = {
            "performed": True,
            "slopes": _alpha_keyed(decay.slopes),
            "constants": _alpha_keyed(decay.fitted_constants),
        }

    env = envelope_report(result)
    write_text(os.path.join(out_dir, "envelope.csv"), envelope_csv_text(env))
    checks.add(
        "contraction_bound",
        env.contraction_max <= CONTRACTION_TOL,
        "%.17g > 1 + 1e-12" % env.contraction_max,
    )
    finite_consts = all(
        np.isfinite(v) for v in (env.c_product, env.c_tm, env.c_low, env.c_high)
    )
    checks.add("envelope_constants_finite", finite_consts, "non-finite envelope constant")
    report["envelope"] = {
        "c_product": env.c_product,
        "c_tm": env.c_tm,
        "c_low": env.c_low,
        "c_high": env.c_high,
        "t_max": {str(k): v for k, v in env.level_t_max.items()},
        "r_max": {str(k): v for k, v in env.level_r_max.items()},
        "annulus_counts": env.annulus_counts,
    }

    report["checks"] = checks.as_dict()
    write_json(os.path.join(out_dir, "verify_report.json"), report)
    return _report_failures(checks)


def run_sample(cfg, out_dir, threads) -> int:
    g = cfg.geometry
    result = decompose(cfg.A, g, cfg.schedule)
    state = build_sampler(result, cfg.seed)
    n = cfg.samples
    if cfg.write_samples:
        # samples.csv is written from the suite's own draw, batch by batch.
        with open_artifact(os.path.join(out_dir, "samples.csv")) as fh:
            suite = run_sampling_suite(state, n, threads, samples_csv_writer(fh, g))
    else:
        suite = run_sampling_suite(state, n, threads)

    checks = CheckSet()
    report = {"n": n, "seed": cfg.seed, "root_residual": state.root_residual}
    comp = {}
    for k in range(1, state.n_scales + 1):
        est = suite["component"][k]
        dev = covariance_deviation(est, result.kernel(k).values)
        comp[str(k)] = checks.within("covariance_k%d" % k, dev, SE_LIMIT, " SE")
        write_kernel_csv(os.path.join(out_dir, "covariance_k%d.csv" % k), Kernel(g, est.mean))
        write_kernel_csv(os.path.join(out_dir, "covariance_k%d_se.csv" % k), Kernel(g, est.se))
    report["component_deviation"] = comp

    total = suite["total"]
    dev = covariance_deviation(total, multiplier_to_kernel(result.green_table).values)
    report["total_deviation"] = checks.within("covariance_total", dev, SE_LIMIT, " SE")
    write_kernel_csv(os.path.join(out_dir, "covariance_total.csv"), Kernel(g, total.mean))
    write_kernel_csv(os.path.join(out_dir, "covariance_total_se.csv"), Kernel(g, total.se))

    grad = {}
    for k, rep in suite["gradient"].items():
        if rep is None:
            checks.add("gradient_range_k%d" % k, True, "far region empty")
            grad[str(k)] = None
        else:
            checks.within("gradient_range_k%d" % k, rep.max_se_ratio, SE_LIMIT, " SE")
            grad[str(k)] = asdict(rep)
    report["gradient"] = grad

    report["checks"] = checks.as_dict()
    write_json(os.path.join(out_dir, "sample_report.json"), report)
    return _report_failures(checks)


def run_deriv(cfg, out_dir) -> int:
    g, sched, path = cfg.geometry, cfg.schedule, cfg.path
    result = decompose(cfg.A, g, sched)
    order = cfg.derivative["order"]
    r = cfg.derivative["r"]
    n_half = cfg.derivative["nodes"]

    # Orders 1..3 feed the ratio check and order 1 the FD cross-check.
    orders = sorted(set(range(1, max(order, 3) + 1)) | {order})
    ders = contour_derivatives(path, g, sched, orders, r=r, n_half=n_half)
    main_res = ders[order]
    alt = contour_derivatives(path, g, sched, [order], r=0.5 * r, n_half=n_half)[order]
    fd_kernels, fd_green = fd_derivative(path, g, sched)

    checks = CheckSet()
    fd_diff = checks.within("fd_agreement", fd_agreement(ders[1], fd_kernels, fd_green), FD_TOL)
    r_diff = checks.within("radius_invariance", radius_agreement(main_res, alt), RADIUS_TOL)
    sum_res = checks.within(
        "derivative_telescoping", derivative_sum_residual(main_res), DERIV_SUM_TOL
    )
    bound = derivative_bound_check(result, [ders[j] for j in orders if j >= 1])
    checks.within("derivative_ratios", bound.max_ratio, RATIO_LIMIT)

    for k in range(1, result.n_scales + 1):
        write_kernel_csv(os.path.join(out_dir, "deriv_k%d.csv" % k), main_res.kernel(k))
    write_kernel_csv(os.path.join(out_dir, "deriv_green.csv"), main_res.green_kernel)

    report = {
        "order": order,
        "r": r,
        "nodes": main_res.n_nodes,
        "convergence": main_res.convergence,
        "fd_diff": fd_diff,
        "radius_diff": r_diff,
        "sum_residual": sum_res,
        "max_ratio": bound.max_ratio,
        "ratios": [
            {"k": row.k, "order": row.order, "ratio": row.ratio}
            for row in bound.rows
        ],
    }
    report["checks"] = checks.as_dict()
    write_json(os.path.join(out_dir, "deriv_report.json"), report)
    return _report_failures(checks)


RUNNERS = {
    "decompose": run_decompose,
    "verify": run_verify,
    "sample": run_sample,
    "deriv": run_deriv,
}


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print("cannot read config: %s" % exc, file=sys.stderr)
        return EXIT_IO
    try:
        cfg = parse_config(
            text,
            output=args.out,
            seed=getattr(args, "seed", None),
            samples=getattr(args, "samples", None),
        )
    except (ParseError, ValidationError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG

    extra = ()
    if args.command == "sample":
        # Each worker is an OS thread and more workers than cores cannot draw
        # faster, so the pool is capped; outputs do not depend on the count.
        extra = (min(max(1, args.threads), os.cpu_count() or 1),)
    if cfg.output is None:
        print(
            "config error: no output directory (set output in config or pass --out)",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    if not os.path.isdir(cfg.output):
        print("output directory does not exist: %s" % cfg.output, file=sys.stderr)
        return EXIT_IO

    try:
        return RUNNERS[args.command](cfg, cfg.output, *extra)
    except OSError as exc:
        print("I/O error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        # Anything unforeseen exits 4 like the named package errors, never
        # with a traceback and status 1, which means a check failed.
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
