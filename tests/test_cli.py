import filecmp
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import frdlat
from frdlat import analyticity, cli, decomposition, sampling, spectral
from frdlat.analyticity import contour_derivatives
from frdlat.cli import main
from frdlat.config import parse_config
from frdlat.decomposition import decompose
from frdlat.elliptic import EllipticMap
from frdlat.errors import NotConverged
from frdlat.lattice import TorusGeometry
from frdlat.output import samples_csv_writer
from frdlat.sampling import build_sampler, sample_total
from frdlat.spectral import Kernel

MINIMAL = {"d": 2, "m": 1, "L": 3, "N": 1, "A": [1.0]}


def write_cfg(tmp_path, name="cfg.json", **overrides):
    doc = dict(MINIMAL)
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def outdir(tmp_path, name="out"):
    d = tmp_path / name
    d.mkdir(exist_ok=True)
    return str(d)


def same_tree(a, b):
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def test_decompose_writes_artifacts(tmp_path):
    cfg = write_cfg(tmp_path)
    out = outdir(tmp_path)
    assert main(["decompose", "--config", cfg, "--out", out]) == 0
    for name in ("kernel_k1.csv", "kernel_k2.csv", "diagnostics.json"):
        assert os.path.exists(os.path.join(out, name))
    diag = json.loads(Path(os.path.join(out, "diagnostics.json")).read_text())
    assert diag["sum_residual"] <= 1e-12
    assert diag["schedule"] == [None]


def test_decompose_is_byte_stable(tmp_path):
    cfg = write_cfg(tmp_path)
    a = outdir(tmp_path, "a")
    b = outdir(tmp_path, "b")
    assert main(["decompose", "--config", cfg, "--out", a]) == 0
    assert main(["decompose", "--config", cfg, "--out", b]) == 0
    assert same_tree(a, b)


def test_deriv_is_byte_stable(tmp_path):
    cfg = write_cfg(tmp_path, L=5, N=2, schedule=[3, 5], derivative={"nodes": 16})
    a = outdir(tmp_path, "a")
    b = outdir(tmp_path, "b")
    assert main(["deriv", "--config", cfg, "--out", a]) == 0
    assert main(["deriv", "--config", cfg, "--out", b]) == 0
    assert same_tree(a, b)


def test_deriv_makes_no_contour_call(tmp_path, monkeypatch):
    """deriv reads every order off one series: no contour node, and K0 and
    K1 assembled once per live level (decompose and the finite differences
    assemble from EllipticMaps, the jets from raw tensors)."""
    built = []
    assemble = decomposition.assemble_stiffness

    def counted(A, cube):
        if not isinstance(A, EllipticMap):
            built.append(cube.l)
        return assemble(A, cube)

    def no_contour(*args, **kwargs):
        raise AssertionError("contour call in deriv")

    monkeypatch.setattr(decomposition, "assemble_stiffness", counted)
    monkeypatch.setattr(analyticity, "contour_derivatives", no_contour)
    monkeypatch.setattr(analyticity, "_member", no_contour)
    monkeypatch.setattr(decomposition, "_member", no_contour)
    cfg = write_cfg(tmp_path, L=5, N=2, schedule=[3, 5], derivative={"nodes": 16})
    assert main(["deriv", "--config", cfg, "--out", outdir(tmp_path)]) == 0
    assert sorted(built) == [3, 3, 5, 5]


def test_oversized_direction_exits_numeric(tmp_path, monkeypatch, capsys):
    """A path whose A1 breaks |A1| <= c0/2 fails the jets' family check by
    name."""
    cfg = write_cfg(tmp_path, L=5, N=2, schedule=[3, 5])

    def tripled(text, **overrides):
        parsed = parse_config(text, **overrides)
        object.__setattr__(parsed.path, "A1", 3.0 * parsed.path.A1)
        return parsed

    monkeypatch.setattr(cli, "parse_config", tripled)
    capsys.readouterr()
    assert main(["deriv", "--config", cfg, "--out", outdir(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "OutsideDisc: direction norm" in err
    assert "exceeds c0/2" in err


def test_impossible_tolerance_fails_named_check(tmp_path, capsys):
    cfg = write_cfg(tmp_path, L=5, A=[[2.0, 0.5], [0.5, 1.0]], schedule=[3],
                    tolerances={"sum": 1e-300})
    out = outdir(tmp_path)
    capsys.readouterr()
    assert main(["decompose", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "check failed: sum_residual" in err


def test_verify_minimal_config(tmp_path):
    cfg = write_cfg(tmp_path)
    out = outdir(tmp_path)
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    report = json.loads(Path(os.path.join(out, "verify_report.json")).read_text())
    assert all(report["checks"].values())
    assert report["oracle"]["performed"] is True
    assert report["decay"]["performed"] is False
    assert os.path.exists(os.path.join(out, "envelope.csv"))


def test_verify_with_two_live_scales(tmp_path):
    cfg = write_cfg(tmp_path, L=5, N=2, schedule=[3, 5])
    out = outdir(tmp_path)
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    report = json.loads(Path(os.path.join(out, "verify_report.json")).read_text())
    assert report["decay"]["performed"] is True
    assert report["decay"]["slopes"]["0,0"] < 0.0
    assert os.path.exists(os.path.join(out, "decay.csv"))
    assert report["diagnostics"]["range_residual"][0] is not None
    assert report["green_equation"] <= cli.GREEN_TOL


def test_verify_memory_high_water(tmp_path):
    """The traced peak of one verify at d=2 L=3 N=5 (S=243, default
    schedule, two skipped levels) stays below 17 n-row stacks, an n-row
    stack being one (n - 1, 1, 1) complex stack on the rfftn half grid
    (474,320 bytes).  The result holds about 6: three symbols, the body,
    the Green table and the zero table that the skipped levels share.  No
    scale table is stored: one walk makes each table and its kernel in
    turn, beside the walk's P_k and Q_k and the running sums of the tables
    and of the kernels.  Writing a kernel's CSV there is the high-water,
    at about 16.4 on a first invocation and 15.6 after; envelope_report
    peaks at about 15.0.  Storing every table peaked at about 20.8;
    keeping all kernels as well at about 24.8, and, before that, holding
    every product P_k, a zero table and kernel per skipped level and a
    stack of all kernels at about 31."""
    g = TorusGeometry(d=2, m=1, L=3, N=5)
    stack = (g.half_count - 1) * 16
    assert stack == 474_320
    cfg = write_cfg(tmp_path, L=3, N=5)
    out = outdir(tmp_path)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(["verify", "--config", cfg, "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 17 * stack, "peak %.1f n-row stacks" % (peak / stack)


def test_sample_memory_high_water(tmp_path):
    """The traced peak of one sample run at d=2 L=3 N=3 (S=27, default
    schedule, three scales with a far region) with 256 samples, one batch,
    stays below 8 batch stacks, a batch stack being one (256, 1, 27, 14)
    complex batch of half spectra (1,548,288 bytes).  A batch streams its
    scales and correlates one channel pair at a time: the running total,
    one scale's spectrum, the draw's temporaries or the gradient channels
    and one pair's product and transform.  It measures about 6.2.  Holding
    every scale's spectrum, the gradient channels and each
    (batch, c, c, *site) correlation of the batch at once peaked at
    about 26.9."""
    g = TorusGeometry(d=2, m=1, L=3, N=3)
    stack = 256 * g.half_count * 16
    assert stack == 1_548_288
    cfg = write_cfg(tmp_path, L=3, N=3, samples=256)
    out = outdir(tmp_path)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(["sample", "--config", cfg, "--out", out, "--threads", "1"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 8 * stack, "peak %.1f batch stacks" % (peak / stack)


def test_sample_too_large_for_the_budget_exits_numeric(tmp_path, capsys, monkeypatch):
    """A budget below one sample per batch exits 4 naming SampleTooLarge,
    before any draw."""
    def no_draw(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(sampling, "_component_batch", no_draw)
    monkeypatch.setattr(sampling, "BATCH_BYTES", 1)
    capsys.readouterr()
    assert main(["sample", "--config", write_cfg(tmp_path), "--out", outdir(tmp_path)]) == 4
    assert "SampleTooLarge: " in capsys.readouterr().err


D3M2 = {"d": 3, "m": 2, "L": 3, "N": 2, "schedule": [3, 5], "samples": 300, "write_samples": True,
        "derivative": {"order": 2, "nodes": 16},
        "A": [[2.0, 0.5, 0.0, 0.0, 0.0, 0.3], [0.5, 2.0, 0.5, 0.0, 0.0, 0.0],
              [0.0, 0.5, 2.0, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 2.0, 0.5, 0.0],
              [0.0, 0.0, 0.0, 0.5, 2.0, 0.5], [0.3, 0.0, 0.0, 0.0, 0.5, 2.0]]}


@pytest.mark.parametrize("command,config,count", [
    ("decompose", {"L": 3, "N": 5}, 4), ("verify", {"L": 3, "N": 5}, 4),
    ("sample", D3M2, 4), ("deriv", D3M2, 27), ("deriv", {"L": 3, "N": 5}, 33)])
def test_kernel_transforms_per_invocation(tmp_path, monkeypatch, command, config, count):
    """Every kernel is one multiplier_to_kernel of its table, made on
    demand, and a skipped level's is the shared zero kernel.  decompose
    and verify at d=2 L=3 N=5 (two skipped levels) make one per live
    scale, 4, in their one pass over the scales.  On the d=3 m=2 config of
    the CI smoke run, sample makes its 3 scales and the Green kernel, and
    deriv 27: 4 orders of 3 jet scale kernels, the Green kernels of the 3
    orders it reads (jet_origin at order 0, fd_agreement at order 1 and
    the written order 2), 2 finite-difference decompositions of 4 and
    decompose's 4.  Order 3's Green kernel is never read, so never made.
    deriv at d=2 L=3 N=5, order 1, makes 33: 4 orders of 4 live jet
    scales, the Green kernels of orders 0 and 1, each made once though
    order 1's is read twice, and 3 decompositions of 4 live scales and the
    Green kernel."""
    real = spectral.multiplier_to_kernel
    calls = []

    def counted(M):
        calls.append(M)
        return real(M)

    for name, module in list(sys.modules.items()):
        if name.startswith("frdlat") and getattr(module, "multiplier_to_kernel", None) is real:
            monkeypatch.setattr(module, "multiplier_to_kernel", counted)
    cfg = write_cfg(tmp_path, **config)
    assert main([command, "--config", cfg, "--out", outdir(tmp_path)]) == 0
    assert len(calls) == count


@pytest.mark.parametrize("command,config,walks", [
    ("decompose", {"L": 3, "N": 5}, 1), ("verify", {"L": 3, "N": 5}, 1), ("sample", D3M2, 2)])
def test_scale_walks_per_invocation(tmp_path, monkeypatch, command, config, walks):
    """A result stores no scale table: every one is made by the product
    walk (decomposition._scale_tables) when it is read.  decompose and
    verify read every table in their one pass over the scales, one walk;
    sample reads them twice, for the roots and then for the covariance
    references, two walks at most."""
    real = decomposition._scale_tables
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(decomposition, "_scale_tables", counted)
    cfg = write_cfg(tmp_path, **config)
    assert main([command, "--config", cfg, "--out", outdir(tmp_path)]) == 0
    if command == "sample":
        assert 0 < len(calls) <= walks
    else:
        assert len(calls) == walks


def test_verify_green_equation_catches_a_dropped_remainder(tmp_path, capsys, monkeypatch):
    """Zeroing the real-space remainder kernel leaves every multiplier-side
    check passing; only the Green equation sees it."""

    def dropped(A, g, sched):
        res = decompose(A, g, sched)
        made, scales = res.kernel_of, iter(range(1, res.n_scales + 1))
        # The kernel of scale N+1, made from the last table of the one walk,
        # comes out zero.
        res.kernel_of = lambda t: (Kernel(g, np.zeros(g.kernel_shape()))
                                   if next(scales) == res.n_scales else made(t))
        return res

    monkeypatch.setattr(cli, "decompose", dropped)
    cfg = write_cfg(tmp_path, L=5, N=2, schedule=[3, 5])
    out = outdir(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--out", out]) == 1
    assert "check failed: green_equation" in capsys.readouterr().err
    report = json.loads(Path(os.path.join(out, "verify_report.json")).read_text())
    assert [name for name, ok in report["checks"].items() if not ok] == ["green_equation"]


def test_sample_artifacts_and_thread_identity(tmp_path):
    cfg = write_cfg(tmp_path, samples=400)
    a = outdir(tmp_path, "a")
    b = outdir(tmp_path, "b")
    assert main(["sample", "--config", cfg, "--out", a, "--threads", "1"]) == 0
    assert main(["sample", "--config", cfg, "--out", b, "--threads", "4"]) == 0
    assert same_tree(a, b)
    report = json.loads(Path(os.path.join(a, "sample_report.json")).read_text())
    assert report["n"] == 400
    assert report["seed"] == 0
    assert report["gradient"]["1"] is None
    for name in (
        "covariance_k1.csv",
        "covariance_k1_se.csv",
        "covariance_k2.csv",
        "covariance_total.csv",
        "covariance_total_se.csv",
    ):
        assert os.path.exists(os.path.join(a, name))


def test_sample_seed_and_count_overrides(tmp_path):
    cfg = write_cfg(tmp_path)
    out = outdir(tmp_path)
    args = ["sample", "--config", cfg, "--out", out, "--samples", "64", "--seed", "9"]
    assert main(args) == 0
    report = json.loads(Path(os.path.join(out, "sample_report.json")).read_text())
    assert report["n"] == 64
    assert report["seed"] == 9


@pytest.mark.parametrize(
    "flag, value, key",
    [
        ("--seed", "-1", "seed"),
        ("--seed", str(2**64), "seed"),
        ("--samples", "0", "samples"),
        ("--samples", "1", "samples"),
        ("--out", "", "output"),
    ],
)
def test_rejected_flag_exits_config_naming_its_key(tmp_path, capsys, flag, value, key):
    """A flag obeys the rule of the config key it overrides."""
    args = ["sample", "--config", write_cfg(tmp_path), "--out", outdir(tmp_path)]
    capsys.readouterr()
    assert main(args + [flag, value]) == 2
    assert "config error: %s:" % key in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_threads_below_one_exit_config_before_any_draw(tmp_path, capsys, monkeypatch, value):
    """--threads has no config key; a count below 1 is a config error, not
    a silent one-thread run."""
    def no_draw(*args):
        raise AssertionError("drew with --threads %s" % value)

    monkeypatch.setattr(sampling, "_component_batch", no_draw)
    args = ["sample", "--config", write_cfg(tmp_path), "--out", outdir(tmp_path)]
    capsys.readouterr()
    assert main(args + ["--threads", value]) == 2
    assert "config error: --threads: %s is below the minimum 1" % value in capsys.readouterr().err


def test_sample_writes_fields_on_request(tmp_path):
    cfg = write_cfg(tmp_path, samples=8, write_samples=True)
    out = outdir(tmp_path)
    assert main(["sample", "--config", cfg, "--out", out]) == 0
    lines = Path(os.path.join(out, "samples.csv")).read_text().strip().split("\n")
    assert len(lines) == 1 + 8 * 9


def test_samples_csv_matches_per_index_totals(tmp_path):
    """samples.csv from the suite's batches equals the file built from
    sample_total one index at a time, across a batch boundary on the 9x9
    torus."""
    n = 300
    cfg_path = write_cfg(tmp_path, L=3, N=2, schedule=[3, 5], samples=n, seed=5,
                         write_samples=True)
    out = outdir(tmp_path)
    assert main(["sample", "--config", cfg_path, "--out", out, "--threads", "2"]) == 0
    cfg = parse_config(Path(cfg_path).read_text())
    g = cfg.geometry
    res = decompose(cfg.A, g, cfg.schedule)
    state = build_sampler(res, cfg.seed)
    expected = io.StringIO()
    samples_csv_writer(expected, g)([sample_total(state, i).values for i in range(n)])
    with open(os.path.join(out, "samples.csv")) as fh:
        assert fh.read() == expected.getvalue()


def test_write_samples_draws_each_field_once(tmp_path, monkeypatch):
    """samples.csv comes from the suite's draw: no (scale, index) is drawn
    a second time to write it."""
    drawn = []
    original = sampling._component_batch

    def counting(state, k, start, count):
        drawn.extend((k, start + i) for i in range(count))
        return original(state, k, start, count)

    monkeypatch.setattr(sampling, "_component_batch", counting)
    n = 300
    cfg = write_cfg(tmp_path, L=3, N=2, schedule=[3, 5], samples=n, write_samples=True)
    out = outdir(tmp_path)
    assert main(["sample", "--config", cfg, "--out", out, "--threads", "1"]) == 0
    assert os.path.exists(os.path.join(out, "samples.csv"))
    assert sorted(drawn) == [(k, i) for k in (1, 2, 3) for i in range(n)]


def test_threads_are_capped_at_the_core_count(tmp_path, monkeypatch):
    """--threads far above the core count builds a pool of core-count
    workers; the fake pool runs the batches serially and starts none."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(sampling, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    cfg = write_cfg(tmp_path, samples=600)
    a = outdir(tmp_path, "a")
    b = outdir(tmp_path, "b")
    assert main(["sample", "--config", cfg, "--out", a, "--threads", "8000"]) == 0
    assert pools == [3]
    assert main(["sample", "--config", cfg, "--out", b, "--threads", "1"]) == 0
    assert pools == [3, 1]
    assert same_tree(a, b)


def test_sampler_flags_only_on_sample(tmp_path, capsys):
    """--threads, --seed and --samples belong to sample; elsewhere they are
    usage errors rather than values that do nothing."""
    cfg = write_cfg(tmp_path, samples=16)
    out = outdir(tmp_path)
    for command in ("decompose", "verify", "deriv"):
        for flag in ("--threads", "--seed", "--samples"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", cfg, "--out", out, flag, "1"])
            assert exc.value.code == 2
    capsys.readouterr()
    args = ["--threads", "1", "--seed", "3", "--samples", "16"]
    assert main(["sample", "--config", cfg, "--out", out] + args) == 0
    report = json.loads(Path(out, "sample_report.json").read_text())
    assert (report["n"], report["seed"]) == (16, 3)


def test_deriv_report(tmp_path):
    cfg = write_cfg(tmp_path)
    out = outdir(tmp_path)
    assert main(["deriv", "--config", cfg, "--out", out]) == 0
    report = json.loads(Path(os.path.join(out, "deriv_report.json")).read_text())
    assert report["order"] == 1
    assert sorted(report["checks"]) == [
        "derivative_ratios", "derivative_telescoping", "fd_agreement", "jet_origin"]
    assert report["jet_origin"] <= 1e-11
    assert not {"r", "nodes", "convergence", "radius_diff"} & set(report)
    assert all(report["checks"].values())
    assert os.path.exists(os.path.join(out, "deriv_k1.csv"))
    assert os.path.exists(os.path.join(out, "deriv_green.csv"))


def test_exit_codes(tmp_path, capsys):
    out = outdir(tmp_path)
    assert main(["decompose", "--config", str(tmp_path / "nope.json"), "--out", out]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["decompose", "--config", str(bad), "--out", out]) == 2
    even = write_cfg(tmp_path, name="even.json", L=4)
    capsys.readouterr()
    assert main(["decompose", "--config", even, "--out", out]) == 2
    assert "odd" in capsys.readouterr().err
    cfg = write_cfg(tmp_path)
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "missing")]) == 3
    assert main(["decompose", "--config", cfg]) == 2
    # Only the contour oracle reads nodes: four are too few for its gate.
    shallow = write_cfg(tmp_path, name="nodes.json", derivative={"nodes": 4})
    assert main(["deriv", "--config", shallow, "--out", out]) == 0
    with open(shallow, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    with pytest.raises(NotConverged):
        contour_derivatives(cfg.path, cfg.geometry, cfg.schedule, [1, 2, 3],
                            r=cfg.derivative["r"], n_half=cfg.derivative["nodes"])
    # nor can they resolve order 6, which the contour rejects by itself.
    too_few = write_cfg(tmp_path, name="order.json", derivative={"order": 6, "nodes": 4})
    assert main(["deriv", "--config", too_few, "--out", out]) == 0
    with pytest.raises(ValueError, match="half-rule nodes"):
        contour_derivatives(cfg.path, cfg.geometry, cfg.schedule, [6], n_half=4)


@pytest.mark.parametrize("sizes", [{"L": 3, "N": 3000000}, {"d": 20000000, "N": 1}])
def test_oversized_torus_exits_config_at_once(tmp_path, capsys, sizes):
    """The site-count cap is checked without forming (L^N)^d."""
    cfg = write_cfg(tmp_path, **sizes)
    out = outdir(tmp_path)
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["decompose", "--config", cfg, "--out", out]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "config error: site count" in capsys.readouterr().err


def test_real_cube_above_2048_unknowns_runs(tmp_path):
    """(47 - 1)^2 = 2116 unknowns in the real Cholesky branch."""
    cfg = write_cfg(tmp_path, L=7, N=2, schedule=[3, 47])
    out = outdir(tmp_path)
    assert main(["decompose", "--config", cfg, "--out", out]) == 0


def test_cube_above_dense_limit_exits_numeric(tmp_path, capsys):
    """decompose takes cubes past the dense limit of 4096 unknowns: l=66
    has 4225.  Its layered blocks may hold (l-1)^3 <= 4096^2 words at
    d=2 m=1, so l=258 is rejected, before any frequency work."""
    cfg = write_cfg(tmp_path, L=9, N=2, schedule=[3, 66])
    assert main(["decompose", "--config", cfg, "--out", outdir(tmp_path)]) == 0
    cfg = write_cfg(tmp_path, L=3, N=6, schedule=[None] * 5 + [258])
    out = outdir(tmp_path, "too_large")
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["decompose", "--config", cfg, "--out", out]) == 4
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "CubeTooLarge" in err and "level 6:" in err and "l=258" in err


def test_oversized_cube_fails_before_frequency_work(tmp_path, capsys):
    """d=3, S=243, default schedule (-, -, 4, 11, 31): the l=31 cube has
    30^3 = 27000 unknowns.  The run must stop before building symbols over
    the 243^3 frequencies, which took seconds and gigabytes."""
    cfg = write_cfg(tmp_path, d=3, L=3, N=5)
    out = outdir(tmp_path)
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["decompose", "--config", cfg, "--out", out]) == 4
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert "CubeTooLarge" in err and "level 5:" in err and "l=31" in err


def test_unexpected_exception_exits_numeric(tmp_path, capsys, monkeypatch):
    def broken_runner(cfg, out_dir):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.RUNNERS, "decompose", broken_runner)
    cfg = write_cfg(tmp_path)
    out = outdir(tmp_path)
    capsys.readouterr()
    assert main(["decompose", "--config", cfg, "--out", out]) == 4
    assert "RuntimeError: boom" in capsys.readouterr().err


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(frdlat.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = 'import sys, frdlat.cli; sys.exit("scipy" in sys.modules)'
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
