"""Acceptance suite: ten numbered end-to-end criteria.

Each test prints one pass/fail line.  Expensive decompositions are built
once per module and shared; the build time of a shared run is charged to
the first criterion that needs it.
"""

import filecmp
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from frdlat.analyticity import (
    contour_derivatives,
    derivative_bound_check,
    derivative_sum_residual,
    fd_agreement,
    fd_derivative,
    radius_agreement,
)
from frdlat.cli import main
from frdlat.decomposition import (
    build_schedule,
    complex_decompose,
    decompose,
    far_field_constant,
    kernel_sup_norm,
)
from frdlat.elliptic import ComplexEllipticPath, green_symbol, identity_map, validate_map
from frdlat.lattice import TorusGeometry
from frdlat.spectral import multiplier_to_kernel
from frdlat.verification import (
    brute_force_green,
    check_symmetry,
    decay_table,
    diagnostics,
    envelope_report,
)

SEED = 20260823


def spd_map(d, m):
    n = d * m
    rng = np.random.default_rng(SEED)
    B = rng.standard_normal((n, n))
    A = validate_map(B.T @ B + 0.1 * np.eye(n), d, m)
    assert A.c0 >= 0.1
    return A


def criterion(num, name, ok, detail):
    line = "criterion %d (%s): %s [%s]" % (num, name, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def telescoping_run():
    g = TorusGeometry(d=2, m=2, L=5, N=2)
    A = spd_map(2, 2)
    t0 = time.perf_counter()
    res = decompose(A, g, build_schedule(g, override=[3, 5]))
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def wide_run():
    g = TorusGeometry(d=2, m=1, L=17, N=1)
    t0 = time.perf_counter()
    res = decompose(identity_map(2, 1), g, build_schedule(g))
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def decay_run():
    g = TorusGeometry(d=2, m=1, L=3, N=4)
    t0 = time.perf_counter()
    res = decompose(identity_map(2, 1), g, build_schedule(g, override=[3, 5, 9, 17]))
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def path_run():
    g = TorusGeometry(d=2, m=1, L=5, N=2)
    sched = build_schedule(g, override=[3, 5])
    A = identity_map(2, 1)
    path = ComplexEllipticPath.from_direction(A, np.eye(2))
    res = decompose(A, g, sched)
    return res, path, g, sched


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for m, A in ((1, identity_map(2, 1)), (2, spd_map(2, 2))):
        g = TorusGeometry(d=2, m=m, L=3, N=1)
        oracle = brute_force_green(A, g)
        spectral = multiplier_to_kernel(green_symbol(A, g))
        worst = max(worst, float(np.max(np.abs(oracle.values - spectral.values))))
        if m == 1:
            hand = abs(oracle.values[0, 0, 0, 0] - 2.0 / 9.0)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and hand <= 1e-12 and dt < 1.0
    criterion(
        1,
        "oracle equivalence",
        ok,
        "max diff %.3g, hand value gap %.3g, %.2fs" % (worst, hand, dt),
    )


def test_criterion_02_telescoping(telescoping_run):
    res, dt = telescoping_run
    residual = diagnostics(res)["sum_residual"]
    ok = residual <= 1e-12 and dt < 10.0
    criterion(2, "telescoping sum", ok, "residual %.3g, %.2fs" % (residual, dt))


def test_criterion_03_finite_range(telescoping_run, wide_run):
    res, dt_a = telescoping_run
    t0 = time.perf_counter()
    residuals = diagnostics(res)["range_residual"]
    assert diagnostics(res)["ranges"][:2] == [3, 11]
    wide, dt_b = wide_run
    _, raw = far_field_constant(wide.kernel(1), wide.schedule.ranges[0])
    wide_rel = raw / kernel_sup_norm(wide.kernel(1))
    dt = dt_a + dt_b + (time.perf_counter() - t0)
    ok = (
        all(r is not None and r <= 1e-8 for r in residuals)
        and wide_rel <= 1e-8
        and dt < 60.0
    )
    criterion(
        3,
        "finite range",
        ok,
        "residuals %s, wide run %.3g, %.2fs"
        % (["%.3g" % r for r in residuals], wide_rel, dt),
    )


def test_criterion_04_positivity(telescoping_run, wide_run, decay_run, path_run):
    runs = [telescoping_run[0], wide_run[0], decay_run[0], path_run[0]]
    worst = min(min(diagnostics(r)["min_psd_eig"]) for r in runs)
    ok = worst >= -1e-10
    criterion(4, "positive semidefinite multipliers", ok, "min normalized eig %.3g" % worst)


def test_criterion_05_contraction_and_envelopes(telescoping_run, wide_run):
    worst = 0.0
    consts = []
    for res, _ in (telescoping_run, wide_run):
        env = envelope_report(res)
        worst = max(worst, env.contraction_max)
        consts.extend([env.c_product, env.c_tm, env.c_low, env.c_high])
    ok = worst <= 1.0 + 1e-12 and all(np.isfinite(c) for c in consts)
    criterion(
        5,
        "multiplier contraction and envelope constants",
        ok,
        "max norm %.15g, constants %s" % (worst, ["%.3g" % c for c in consts]),
    )


def test_criterion_06_decay_scaling(decay_run):
    res, dt_build = decay_run
    t0 = time.perf_counter()
    report = decay_table(res)
    live = [k for k in range(1, 5) if not res.schedule.is_skipped(k)]
    monotone = True
    slopes_ok = True
    details = []
    for alpha, slope in report.slopes.items():
        order = sum(alpha)
        if order not in (1, 2):
            continue
        sups = [report.sup(k, alpha) for k in live]
        monotone &= all(a >= b for a, b in zip(sups, sups[1:]))
        need = -0.5 * (res.geometry.d - 2 + order) * np.log(2.0)
        slopes_ok &= slope is not None and slope <= need
        details.append("%s: %.3g" % (",".join(map(str, alpha)), slope))
    dt = dt_build + (time.perf_counter() - t0)
    ok = monotone and slopes_ok and dt < 120.0
    criterion(
        6,
        "gradient decay across scales",
        ok,
        "slopes {%s}, monotone %s, %.2fs" % ("; ".join(details), monotone, dt),
    )


def test_criterion_07_symmetry_and_realness(telescoping_run, wide_run, decay_run, path_run):
    runs = [telescoping_run[0], wide_run[0], decay_run[0], path_run[0]]
    sym = max(check_symmetry(r) for r in runs)
    imag = max(diagnostics(r)["imag_residue"] for r in runs)
    ok = sym <= 1e-10 and imag <= 1e-10
    criterion(
        7,
        "kernel symmetry and realness",
        ok,
        "symmetry %.3g, imaginary residue %.3g" % (sym, imag),
    )


def test_criterion_08_coefficient_derivatives(path_run):
    res, path, g, sched = path_run
    t0 = time.perf_counter()
    ders = contour_derivatives(path, g, sched, [0, 1, 2, 3], r=0.5)
    alt = contour_derivatives(path, g, sched, [1], r=0.25)[1]
    fd_kernels, fd_green = fd_derivative(path, g, sched)
    fd_diff = fd_agreement(ders[1], fd_kernels, fd_green)
    r_diff = radius_agreement(ders[1], alt)
    tele = derivative_sum_residual(ders[1])
    bound = derivative_bound_check(res, [ders[1], ders[2], ders[3]])
    dt = time.perf_counter() - t0
    ok = (
        fd_diff <= 1e-5
        and r_diff <= 1e-8
        and tele <= 1e-10
        and bound.max_ratio <= 10.0
        and dt < 300.0
    )
    criterion(
        8,
        "derivatives in the coefficients",
        ok,
        "fd %.3g, radius %.3g, telescoping %.3g, max ratio %.3g, %.2fs"
        % (fd_diff, r_diff, tele, bound.max_ratio, dt),
    )


def test_criterion_09_sampling(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "d": 2,
                "m": 1,
                "L": 3,
                "N": 2,
                "A": [1.0],
                "schedule": [3, 5],
                "samples": 50000,
                "seed": 0,
            }
        )
    )
    outs = []
    for threads in (1, 8):
        out = tmp_path / ("t%d" % threads)
        out.mkdir()
        code = main(
            ["sample", "--config", str(cfg), "--out", str(out), "--threads", str(threads)]
        )
        assert code == 0
        outs.append(str(out))
    names = sorted(os.listdir(outs[0]))
    match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names, shallow=False)
    identical = sorted(os.listdir(outs[1])) == names and not mismatch and not errors
    report = json.loads(Path(outs[0], "sample_report.json").read_text())
    within = all(report["checks"].values())
    devs = list(report["component_deviation"].values()) + [report["total_deviation"]]
    dt = time.perf_counter() - t0
    ok = identical and within and dt < 180.0
    criterion(
        9,
        "sampling agreement and determinism",
        ok,
        "max dev %.3g SE, byte-identical %s, %.2fs" % (max(devs), identical, dt),
    )


def test_criterion_10_complex_branch_consistency(path_run):
    res, path, g, sched = path_run
    cres = complex_decompose(path, 0.0, g, sched)
    worst = 0.0
    for k in range(1, res.n_scales + 1):
        diff = np.max(np.abs(res.table(k).values - cres.table(k).values))
        worst = max(worst, float(diff))
    ok = worst <= 1e-11
    criterion(10, "complex branch agrees at the origin", ok, "max diff %.3g" % worst)
