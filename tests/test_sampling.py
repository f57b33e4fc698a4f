import tracemalloc
from concurrent.futures import Future
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from frdlat.decomposition import build_schedule, decompose
from frdlat.elliptic import identity_map, validate_map
from frdlat.errors import SampleTooLarge
from frdlat.lattice import TorusGeometry, rho_inf_grid
from frdlat.spectral import MultiplierTable
from frdlat import sampling
from frdlat.sampling import (
    BATCH,
    SamplerState,
    _component_batch,
    build_sampler,
    covariance_deviation,
    dense_reference_samples,
    run_sampling_suite,
    sample_component,
    sample_total,
)


def make_state(L=3, N=1, override=(None,), seed=0):
    g = TorusGeometry(d=2, m=1, L=L, N=N)
    res = decompose(identity_map(2, 1), g, build_schedule(g, override=list(override)))
    return build_sampler(res, seed=seed), res


def test_samples_are_real_zero_mean_and_reproducible():
    state, _ = make_state()
    a = sample_component(state, 2, 3)
    b = sample_component(state, 2, 3)
    assert np.array_equal(a.values, b.values)
    assert a.values.dtype == np.float64
    assert abs(np.sum(a.values)) < 1e-12
    c = sample_component(state, 2, 4)
    assert not np.array_equal(a.values, c.values)


def test_skipped_scale_samples_vanish():
    state, _ = make_state()
    assert np.max(np.abs(sample_component(state, 1, 0).values)) == 0.0


def test_scales_use_distinct_streams():
    state, _ = make_state(L=5, N=1, override=(3,))
    a = sample_component(state, 1, 0)
    b = sample_component(state, 2, 0)
    assert not np.allclose(a.values, b.values)
    # Equal roots isolate the noise: scales at one index draw different noise.
    white = white_state(state.geometry, n_scales=2)
    assert not np.allclose(_component_batch(white, 1, 0, 3), _component_batch(white, 2, 0, 3))


def test_different_seeds_decorrelate():
    s0, _ = make_state(seed=1)
    s1, _ = make_state(seed=2)
    a = sample_component(s0, 2, 0)
    b = sample_component(s1, 2, 0)
    assert not np.allclose(a.values, b.values)


def test_total_is_sum_of_components():
    state, _ = make_state(L=5, N=1, override=(3,))
    total = sample_total(state, 7)
    parts = sample_component(state, 1, 7).values + sample_component(state, 2, 7).values
    assert np.allclose(total.values, parts, atol=1e-15)


def test_component_variance_matches_kernel():
    """The remainder scale of the trivial schedule is the full Green
    kernel, so the variance at 0 must estimate C(0) = 2/9."""
    state, res = make_state()
    est = run_sampling_suite(state, n=4000)["component"][2]
    dev = covariance_deviation(est, res.kernel(2).values)
    assert dev < 5.0
    assert abs(est.mean[0, 0, 0, 0] - 2.0 / 9.0) < 5.0 * max(est.se[0, 0, 0, 0], 1e-12)


def test_total_covariance_matches_green():
    state, res = make_state(L=5, N=1, override=(3,))
    est = run_sampling_suite(state, n=4000)["total"]
    ref = res.kernel(1).values + res.kernel(2).values
    assert covariance_deviation(est, ref) < 5.0


def direct_correlations(a, b, g):
    """Per-sample S^-d sum_x a_r(x+z) b_s(x) for (n, c, *site) stacks,
    summed shift by shift in real space, shaped (n, c, c, *site)."""
    n, c = a.shape[:2]
    axes = tuple(range(2, 2 + g.d))
    flat_b = b.reshape(n, c, -1)
    out = np.empty((n, c, c) + g.site_shape)
    for z in product(range(g.side), repeat=g.d):
        shifted = np.roll(a, tuple(-v for v in z), axis=axes).reshape(n, c, -1)
        out[(slice(None),) * 3 + z] = np.einsum("nrx,nsx->nrs", shifted, flat_b) / g.site_count
    return out


def mean_and_se(est):
    """Per-entry mean over the sample axis and its standard error."""
    n = est.shape[0]
    return est.mean(axis=0), est.std(axis=0, ddof=1) / np.sqrt(n)


def estimates(suite):
    """The suite's scale estimates, then its total."""
    return list(suite["component"].values()) + [suite["total"]]


def combined_se_ratio(mean_a, se_a, mean_b, se_b):
    """Max per-entry |mean_a - mean_b| in combined-SE units."""
    diff = np.abs(mean_a - mean_b)
    width = np.sqrt(se_a**2 + se_b**2)
    return float(np.max(np.where(diff > 0.0, diff / np.maximum(width, 1e-300), 0.0)))


def null_variance_by_pairs(K, g):
    """Variance of one sample's estimate S^-d sum_x f_r(x + z) f_s(x) of
    Gaussian fields with the kernel K[r, s](u) = E f_r(x + u) f_s(x), by
    Isserlis' theorem summed over every site pair (x, y):
    S^-2d sum_{x,y} [K_rr(x - y) K_ss(x - y) + K_rs(x + z - y) K_rs(y + z - x)].
    Small tori only: S^2d terms per lag."""
    c, count = K.shape[0], g.site_count
    flat = K.reshape(c, c, count)
    sites = np.stack(np.unravel_index(np.arange(count), g.site_shape), axis=-1)
    diff = sites[:, None] - sites[None]

    def at(u):
        return np.ravel_multi_index(tuple(np.moveaxis(u % g.side, -1, 0)), g.site_shape)

    auto = flat[range(c), range(c)][:, at(diff)]
    first = np.einsum("rxy,sxy->rs", auto, auto)
    out = np.empty((c, c, count))
    for i, z in enumerate(sites):
        out[:, :, i] = first + np.sum(flat[:, :, at(diff + z)] * flat[:, :, at(z - diff)], axis=(2, 3))
    return out.reshape(K.shape) / count**2


def null_variance(K, g):
    """The same variance with the pair sum taken over u = x - y, one shift
    at a time: S^-d sum_u [K_rr(u) K_ss(u) + K_rs(z + u) K_rs(z - u)]."""
    c = K.shape[0]
    axes = tuple(range(2, 2 + g.d))
    auto = K[range(c), range(c)].reshape(c, -1)
    out = np.zeros_like(K)
    for u in product(range(g.side), repeat=g.d):
        out += np.roll(K, tuple(-v for v in u), axis=axes) * np.roll(K, u, axis=axes)
    out += np.einsum("rx,sx->rs", auto, auto).reshape((c, c) + (1,) * g.d)
    return out / g.site_count


def gradient_kernel(K, g):
    """Kernel of the forward-difference channels r * d + j of fields with
    kernel K, in real space: E grad_j f_r(x + u) grad_k f_s(x) is
    K_rs(u + e_j - e_k) - K_rs(u + e_j) - K_rs(u - e_k) + K_rs(u)."""
    c = K.shape[0]
    axes = tuple(range(2, 2 + g.d))
    out = np.empty((c * g.d, c * g.d) + g.site_shape)
    for j, k in product(range(g.d), repeat=2):
        plus_j = np.roll(K, -1, axis=2 + j)
        out[j :: g.d, k :: g.d] = (np.roll(plus_j, 1, axis=2 + k) - plus_j
                                   - np.roll(K, 1, axis=2 + k) + K)
    return out


def gradient_spectrum(prod, g):
    """Channel products of the forward differences, (m*d, m*d, *half), from
    those of the fields, (m, m, *half): channel r * d + j of a half
    spectrum is (e^{2 pi i n_j / S} - 1) x_hat_r, n_j the frequency index
    along site axis j."""
    phases = np.exp(2j * np.pi * np.indices(g.half_shape) / g.side) - 1.0
    out = prod[:, None, :, None] * (phases[:, None] * np.conj(phases))[None, :, None]
    return out.reshape((g.m * g.d, g.m * g.d) + g.half_shape)


def assert_null_se(est, K, g, n, variance=null_variance):
    """est.se equals sqrt(Var / n) of the oracle within 1e-12 relative."""
    assert np.allclose(est.se * np.sqrt(n), np.sqrt(variance(K, g)), rtol=1e-12, atol=0.0)


def test_null_se_matches_the_isserlis_double_sum():
    """The suite's standard errors times sqrt n against the pair-sum oracle
    at 1e-12 relative: every scale and the total at d=2 m=1 S=9, the 2 x 2
    components and the total at d=3 m=2 S=3 with a coupled A, and there
    the 6 gradient channels of each scale from the suite's own product
    spectrum of the scale.  The shift-sum oracle agrees with the pair sum."""
    g = TorusGeometry(d=2, m=1, L=3, N=2)
    res = decompose(identity_map(2, 1), g, build_schedule(g, override=[3, 5]))
    n = 7
    suite = run_sampling_suite(build_sampler(res, seed=2), n)
    kernels = [kern.values for kern in res.kernels()]
    for est, K in zip(estimates(suite), kernels + [sum(kernels)]):
        assert np.any(K)
        assert_null_se(est, K, g, n, null_variance_by_pairs)
        assert np.allclose(null_variance(K, g), null_variance_by_pairs(K, g), rtol=1e-12, atol=0.0)

    res = d3m2_result(N=1)
    g = res.geometry
    state = build_sampler(res, seed=3)
    suite = run_sampling_suite(state, n)
    kernels = [kern.values for kern in res.kernels()]
    for est, K in zip(estimates(suite), kernels + [sum(kernels)]):
        assert_null_se(est, K, g, n, null_variance_by_pairs)
    for spec, K in zip(sampling._spectra(state), kernels):
        est = sampling._estimate(np.zeros((6, 6) + g.half_shape), gradient_spectrum(spec, g), n, g)
        assert_null_se(est, gradient_kernel(K, g), g, n, null_variance_by_pairs)


def test_gradient_blocks_make_the_six_channel_estimate():
    """_gradient_blocks, one m x m block of directions at a time, make the
    whole 6-channel estimate at d=3 m=2 within 1e-12 relative (means within
    1e-13 of their largest), on the sums of 40 draws of each scale, and
    _gradient_report reads its far-site maxima."""
    state = make_d3m2_state()
    g = state.geometry
    far = rho_inf_grid(g) > 1
    for k, spec in enumerate(sampling._spectra(state)[:-1], start=1):
        sums = sampling._correlation_batch(_component_batch(state, k, 0, 40))
        est = sampling._estimate(gradient_spectrum(sums, g), gradient_spectrum(spec, g), 40, g)
        mean, se = np.empty_like(est.mean), np.empty_like(est.se)
        for j, i, block in sampling._gradient_blocks(sums, spec, 40, g):
            mean[j :: g.d, i :: g.d], se[j :: g.d, i :: g.d] = block.mean, block.se
        assert np.allclose(mean, est.mean, rtol=1e-12, atol=1e-13 * np.max(np.abs(est.mean)))
        assert np.allclose(se, est.se, rtol=1e-12, atol=0.0)
        report = sampling._gradient_report(sums, spec, 40, g, far, 7)
        diff = np.abs(est.mean[:, :, far])
        assert (report.r, report.far_sites) == (7, int(np.count_nonzero(far)))
        assert np.isclose(report.max_abs, np.max(diff), rtol=1e-12, atol=0.0)
        assert np.isclose(report.max_se_ratio, np.max(diff / est.se[:, :, far]), rtol=1e-12, atol=0.0)


def test_null_variance_matches_the_spread_of_the_draws():
    """20000 of the sampler's own draws at d=2 L=3 N=2, reduced one by one
    by the real-space shift sum: per lag, their empirical variance over the
    exact one lies in [0.85, 1.15] for every scale and the total, with a
    median within 0.03 of 1.  The lags of a scale move together (a few low
    modes carry the remainder scale), so the median is a noisy figure: at
    4000 draws it strayed up to 0.067 from 1 over seeds 1-8, at 20000 up
    to 0.025."""
    g = TorusGeometry(d=2, m=1, L=3, N=2)
    res = decompose(identity_map(2, 1), g, build_schedule(g, override=[3, 5]))
    state = build_sampler(res, seed=5)
    n = 20000
    ests = estimates(run_sampling_suite(state, n))
    total = None
    for k, est in enumerate(ests, start=1):
        if k <= state.n_scales:
            hat = _component_batch(state, k, 0, n)
            total = hat.copy() if total is None else total + hat
        else:
            hat = total
        vals = sampling._to_sites(hat, g)
        ratio = direct_correlations(vals, vals, g).var(axis=0, ddof=1) / (n * est.se**2)
        assert 0.85 <= np.min(ratio) and np.max(ratio) <= 1.15
        assert abs(np.median(ratio) - 1.0) <= 0.03


def test_empirical_covariance_of_white_noise():
    """Unit white noise with its p = 0 mode kept has the kernel delta_0 and
    the flat product spectrum 1.  Its null standard error is then exactly
    sqrt(2 / (S^d n)) at z = 0, where 2z = z, and sqrt(1 / (S^d n))
    elsewhere; the mean lies within 5 of them of delta_0."""
    g = TorusGeometry(d=2, m=1, L=3, N=1)
    n = 4000
    rng = np.random.default_rng(5)
    hat = np.fft.rfftn(rng.standard_normal((n, 1, 3, 3)), axes=(2, 3))
    flat = np.ones((1, 1) + g.half_shape, dtype=complex)
    est = sampling._estimate(sampling._correlation_batch(hat), flat, n, g)
    delta = np.zeros((1, 1, 3, 3))
    delta[0, 0, 0, 0] = 1.0
    assert np.allclose(est.se, np.sqrt((1.0 + delta) / (g.site_count * n)), rtol=1e-12, atol=0.0)
    assert covariance_deviation(est, delta) < 5.0


def white_state(g, n_scales=1, seed=0):
    """Sampler whose roots are identity stacks on the rfftn half grid, zero
    at p = 0: it draws the white noise with its p = 0 mode removed."""
    root = np.tile(np.eye(g.m), (g.half_count, 1, 1))
    root[0] = 0.0
    return SamplerState(geometry=g, seed=seed, roots=[root] * n_scales)


def test_white_noise_moments():
    """Projected unit white noise on 9x9: mean 0, variance 1 - S^-d,
    neighbour covariance -S^-d and Gaussian kurtosis, each within 5 SE
    over per-sample site averages."""
    g = TorusGeometry(d=2, m=1, L=3, N=2)
    n = 4000
    v = sampling._to_sites(_component_batch(white_state(g), 1, 0, n), g)[:, 0]
    assert np.max(np.abs(v.sum(axis=(1, 2)))) < 1e-12
    site_mean, site_se = mean_and_se(v)
    assert np.all(np.abs(site_mean) < 5.0 * site_se)
    var = 1.0 - 1.0 / g.site_count
    for per_sample, expected in (
        ((v * v).mean(axis=(1, 2)), var),
        ((v * np.roll(v, 1, axis=1)).mean(axis=(1, 2)), -1.0 / g.site_count),
        ((v * np.roll(v, 1, axis=2)).mean(axis=(1, 2)), -1.0 / g.site_count),
        ((v**4).mean(axis=(1, 2)), 3.0 * var**2),
    ):
        mean, se = mean_and_se(per_sample)
        assert abs(mean - expected) < 5.0 * se


@pytest.mark.parametrize("d, m, N", [(2, 1, 2), (3, 2, 1)])
def test_half_grid_draw_has_the_law_of_rfftn_white_noise(d, m, N):
    """w_hat is Hermitian on the plane of last index 0 (an irfftn round trip
    returns it), and at one frequency on that plane and one off it, Re and
    Im have variance S^d / 2 and E[w_hat^2] = 0, each within 5 SE."""
    g = TorusGeometry(d=d, m=m, L=3, N=N)
    n = 4000
    hat = _component_batch(white_state(g), 1, 0, n)
    axes = tuple(range(2, 2 + d))
    back = np.fft.rfftn(np.fft.irfftn(hat, s=g.site_shape, axes=axes), axes=axes)
    assert np.max(np.abs(back - hat)) <= 1e-12 * np.max(np.abs(hat))
    for p in ((1,) + (0,) * (d - 1), (2,) * (d - 1) + (1,)):
        for r in range(m):
            v = hat[(slice(None), r) + p]
            for per_sample, expected in (
                (v.real**2, g.site_count / 2.0),
                (v.imag**2, g.site_count / 2.0),
                ((v * v).real, 0.0),
                ((v * v).imag, 0.0),
            ):
                mean, se = mean_and_se(per_sample)
                assert abs(mean - expected) < 5.0 * se


def philox_reference(state, k, i):
    """Sample i of scale k rebuilt from its Philox counter blocks, with
    the plane pairs (p, -p) matched index by index; identity roots only."""
    g = state.geometry
    n = g.m * g.half_count
    blocks = -(-n // 2)
    bits = np.random.Philox(key=np.array([state.seed, k], dtype=np.uint64))
    bits.advance(i * blocks)
    u = (bits.random_raw(4 * blocks) >> 11) * 2.0**-53
    z = np.sqrt(-g.site_count * np.log1p(-u[0::2])) * np.exp(2j * np.pi * u[1::2])
    what = z[:n].reshape((g.m,) + g.half_shape)
    out = what.copy()
    for r, p in product(range(g.m), product(range(g.side), repeat=g.d - 1)):
        mirror = (r,) + tuple(-v % g.side for v in p) + (0,)
        out[(r,) + p + (0,)] = (what[(r,) + p + (0,)] + np.conj(what[mirror])) / np.sqrt(2.0)
    out[(slice(None),) + (0,) * g.d] = 0.0
    return out


def test_draw_reads_its_philox_counter_blocks():
    """_component_batch(state, k, i, 1) is the draw rebuilt from Philox
    (seed, k) advanced by i B blocks, B = ceil(m n / 2): n = 45 (odd) at
    d=2 m=1 and m n = 36 at d=3 m=2."""
    for g in (TorusGeometry(d=2, m=1, L=3, N=2), TorusGeometry(d=3, m=2, L=3, N=1)):
        state = white_state(g, n_scales=2, seed=11)
        for k, i in ((1, 0), (2, 0), (1, 37), (2, 300)):
            want = philox_reference(state, k, i)
            assert np.array_equal(_component_batch(state, k, i, 1)[0], want)


def test_sampler_rejects_a_table_that_is_not_hermitian(monkeypatch):
    """build_sampler takes the tables of the result's walk as they are; the
    root's own Hermitian check still refuses a broken one."""
    g = TorusGeometry(d=2, m=2, L=3, N=1)
    res = decompose(identity_map(2, 2), g, build_schedule(g, override=[3]))
    tables = list(res.walk())
    bad = tables[1].values.copy()
    bad[4, 0, 1] += 1e-6
    tables[1] = MultiplierTable(g, bad)
    monkeypatch.setattr(res, "walk", lambda: iter(tables))
    with pytest.raises(ValueError, match="not Hermitian"):
        build_sampler(res)


def test_null_se_is_finite_and_scales_as_root_n():
    """The exact null standard error needs no second sample: it is finite
    at n = 1, and at n = 16 it is the n = 1 one over 4, whatever the seed."""
    state, _ = make_state(L=5, N=1, override=(3,))
    one = run_sampling_suite(state, n=1)
    many = run_sampling_suite(replace(state, seed=9), n=16)
    for a, b in zip(estimates(one), estimates(many)):
        assert np.all(np.isfinite(a.se)) and np.any(a.se > 0.0)
        assert np.allclose(4.0 * b.se, a.se, rtol=1e-14, atol=0.0)


def test_zero_samples_are_rejected_before_any_draw(monkeypatch):
    state, _ = make_state()

    def no_draw(*args):
        raise AssertionError("drew a field for zero samples")

    monkeypatch.setattr(sampling, "_component_batch", no_draw)
    for n in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            run_sampling_suite(state, n)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_roots_are_conjugate_symmetric_eigh_roots_on_the_half_grid(m):
    """Every half-grid row is within 1e-12 of an eigh root, one matrix at a
    time, of the table's row C(p); p = 0 is zero."""
    g = TorusGeometry(d=2, m=m, L=3, N=2)
    rng = np.random.default_rng(40 + m)
    B = rng.standard_normal((2 * m, 2 * m))
    A = validate_map(B.T @ B / (2 * m) + 0.5 * np.eye(2 * m), 2, m)
    res = decompose(A, g, build_schedule(g, override=[3, 5]))
    state = build_sampler(res)
    for tab, root in zip(res.walk(), state.roots):
        assert root.shape == (g.half_count, m, m)
        assert not np.any(root[0])
        scale = max(np.max(np.abs(np.linalg.eigvalsh(tab.values))), 1e-300) ** 0.5
        for h, C in enumerate(tab.values, start=1):
            w, U = np.linalg.eigh(0.5 * (C + C.conj().T))
            want = (U * np.sqrt(np.maximum(w, 0.0))) @ U.conj().T
            assert np.max(np.abs(root[h] - want)) <= 1e-12 * scale


def test_single_sample_deviation_is_finite():
    """A one-sample estimate is scored at its exact null standard error like
    any other: finite against its kernel and zero against its own mean.  A
    skipped scale has zero error and zero mean, and any nonzero reference
    lies infinitely far from it."""
    state, res = make_state(L=5, N=1, override=(3,))
    est = run_sampling_suite(state, n=1)["component"][1]
    dev = covariance_deviation(est, res.kernel(1).values)
    assert np.isfinite(dev) and dev > 0.0
    assert covariance_deviation(est, est.mean) == 0.0
    state, res = make_state()
    skipped = run_sampling_suite(state, n=1)["component"][1]
    assert not np.any(skipped.se) and not np.any(skipped.mean)
    assert covariance_deviation(skipped, res.kernel(1).values) == 0.0
    assert covariance_deviation(skipped, res.kernel(2).values) == np.inf


def test_dense_reference_agrees_with_spectral_sampler():
    """The dense oracle's draws, reduced by the real-space shift sum, agree
    with the spectral suite's mean within 5 combined standard errors, and
    their per-lag empirical standard error lies within 15 % of the suite's
    exact null one."""
    state, res = make_state()
    g = state.geometry
    n = 2000
    spectral = run_sampling_suite(state, n=n)["component"][2]
    dense = np.stack([f.values for f in dense_reference_samples(res.kernel(2), n, seed=99)])
    mean, se = mean_and_se(direct_correlations(dense, dense, g))
    assert combined_se_ratio(spectral.mean, spectral.se, mean, se) < 5.0
    ratio = se / spectral.se
    assert 0.85 <= np.min(ratio) and np.max(ratio) <= 1.15


def test_shuffled_control_is_decorrelated():
    """Each sample correlated with its cyclic successor: mismatched pairs
    are independent, so the estimate vanishes within its errors."""
    state, _ = make_state()
    vals = sampling._to_sites(_component_batch(state, 2, 0, 2000), state.geometry)
    mean, se = mean_and_se(direct_correlations(vals, np.roll(vals, -1, axis=0), state.geometry))
    assert np.max(np.abs(mean) / np.maximum(se, 1e-12)) < 5.0


def test_gradient_range_check_far_region():
    """A scale's far region is the sites beyond r + 2; a scale with none
    reports None instead of a vacuous check."""
    state = make_ranged_state()
    suite = run_sampling_suite(state, n=64)
    assert state.ranges == (3, 11)
    report = suite["gradient"][1]
    assert report.far_sites == 25 * 25 - 11 * 11
    assert not report.trivial
    assert suite["gradient"][2] is None


def test_component_gradient_decorrelates_beyond_range():
    g = TorusGeometry(d=2, m=1, L=5, N=2)
    res = decompose(identity_map(2, 1), g, build_schedule(g, override=[3, 5]))
    state = build_sampler(res)
    suite = run_sampling_suite(state, n=2000)
    rep = suite["gradient"][1]
    assert rep is not None and not rep.trivial
    assert rep.max_se_ratio < 5.0
    assert suite["gradient"][2] is None
    assert {1, 2, 3} <= set(suite["component"])


def ranged_result():
    """25x25 torus where scale 1 has a far region and scale 2 has none."""
    g = TorusGeometry(d=2, m=1, L=5, N=2)
    return decompose(identity_map(2, 1), g, build_schedule(g, override=[3, 5]))


def make_ranged_state(res=None):
    return build_sampler(ranged_result() if res is None else res)


def test_suite_draws_each_field_once(monkeypatch):
    state = make_ranged_state()
    drawn = []
    original = sampling._component_batch

    def counting(state, k, start, count):
        drawn.extend((k, start + i) for i in range(count))
        return original(state, k, start, count)

    monkeypatch.setattr(sampling, "_component_batch", counting)
    run_sampling_suite(state, n=600)
    assert len(drawn) == 600 * state.n_scales
    assert sorted(drawn) == [(k, i) for k in range(1, state.n_scales + 1) for i in range(600)]


def same_estimate(a, b):
    return np.array_equal(a.mean, b.mean) and np.array_equal(a.se, b.se)


def gradient_channels(vals, g):
    """Forward differences of (n, m, *site) values, channel r * d + j."""
    return np.stack(
        [np.roll(vals[:, r], -1, axis=1 + j) - vals[:, r] for r in range(g.m) for j in range(g.d)],
        axis=1,
    )


def test_suite_matches_a_per_index_estimator():
    """Per-index draws reduced by a real-space shift sum, independent of
    the suite's FFT correlations and batched reducer, give its means; its
    standard errors and gradient scores match the Isserlis oracle on the
    decomposition's kernels."""
    res = ranged_result()
    state = make_ranged_state(res)
    g = state.geometry
    n = 300
    suite = run_sampling_suite(state, n=n)

    def check(est, vals, K):
        mean = direct_correlations(vals, vals, g).mean(axis=0)
        scale = max(float(np.max(np.abs(mean))), 1e-300)
        assert np.allclose(est.mean, mean, rtol=1e-12, atol=1e-13 * scale)
        assert_null_se(est, K, g, n)

    comps = {}
    kernels = [kern.values for kern in res.kernels()]
    for k in range(1, state.n_scales + 1):
        comps[k] = np.stack([sample_component(state, k, i).values for i in range(n)])
        check(suite["component"][k], comps[k], kernels[k - 1])
    check(suite["total"], np.stack([sample_total(state, i).values for i in range(n)]), sum(kernels))

    rho = rho_inf_grid(g)
    for k, r in enumerate(state.ranges, start=1):
        far = rho > r + 2
        report = suite["gradient"][k]
        if not np.any(far):
            assert report is None
            continue
        mean = direct_correlations(*[gradient_channels(comps[k], g)] * 2, g).mean(axis=0)
        se = np.sqrt(null_variance(gradient_kernel(kernels[k - 1], g), g) / n)
        diff = np.abs(mean[:, :, far])
        assert report.r == r
        assert report.far_sites == int(np.count_nonzero(far))
        assert np.isclose(report.max_abs, np.max(diff), rtol=1e-12, atol=0.0)
        assert np.isclose(report.max_se_ratio, np.max(diff / se[:, :, far]), rtol=1e-10, atol=0.0)
        assert not report.trivial
    assert suite["gradient"][1] is not None and suite["gradient"][2] is None


def d3m2_result(N=2):
    """d=3, m=2 on a (3^N)^3 torus with a coupled A: every root is a 2 x 2
    matrix and the half grid is 3-D (9 x 9 x 5 at N=2)."""
    A = np.diag([2.0] * 6) + np.diag([0.5] * 5, 1) + np.diag([0.5] * 5, -1)
    A[0, 5] = A[5, 0] = 0.3
    g = TorusGeometry(d=3, m=2, L=3, N=N)
    return decompose(validate_map(A, 3, 2), g, build_schedule(g, override=[3, 5][:N]))


def make_d3m2_state(res=None):
    return build_sampler(d3m2_result() if res is None else res, seed=3)


def test_d3m2_suite_matches_a_per_index_estimator():
    """The suite against per-index draws reduced by the real-space shift
    sum, across a batch boundary, at d=3 and m=2 on the 3^3 torus: the
    means match them and the standard errors the Isserlis oracle."""
    res = d3m2_result(N=1)
    state = make_d3m2_state(res)
    g = state.geometry
    n = BATCH + 44
    suite = run_sampling_suite(state, n=n)
    comps = [np.stack([sample_component(state, k, i).values for i in range(n)])
             for k in range(1, state.n_scales + 1)]
    totals = np.stack([sample_total(state, i).values for i in range(n)])
    kernels = [kern.values for kern in res.kernels()]
    for est, vals, K in zip(estimates(suite), comps + [totals], kernels + [sum(kernels)]):
        mean = direct_correlations(vals, vals, g).mean(axis=0)
        assert np.allclose(est.mean, mean, rtol=1e-12, atol=1e-13 * np.max(np.abs(mean)))
        assert_null_se(est, K, g, n)
    assert set(suite["gradient"].values()) == {None}


def test_d3m2_gradient_correlations_match_real_space():
    """Product sums taken one channel pair at a time, transformed once,
    match the real-space shift sums of the same fields within 1e-12
    relative: the 2 components (c = 2), one component alone (c = 1), and
    the 6 gradient channels, whose sums are the components' times the
    phases (against the real-space forward differences)."""
    state = make_d3m2_state()
    g = state.geometry
    hat = _component_batch(state, 1, 0, 40)
    vals = sampling._to_sites(hat, g)
    cases = [(sampling._correlation_batch(hat), vals),
             (sampling._correlation_batch(hat[:, :1]), vals[:, :1]),
             (gradient_spectrum(sampling._correlation_batch(hat), g), gradient_channels(vals, g))]
    for sums, real in cases:
        ref = direct_correlations(real, real, g).sum(axis=0)
        est = sampling._to_sites(sums, g) / g.site_count
        assert np.allclose(est, ref, rtol=1e-12, atol=1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize("count", [8, 64])
def test_one_channel_correlates_as_a_channel_of_two(count):
    """A channel's product sums do not depend on the channels beside it:
    one channel alone gives, bit for bit, the (0, 0) sums of the same
    field duplicated into two channels.  64 samples of the 25 x 25 torus
    hold 325 KiB of half spectra, above the 256 KiB from which numpy
    evaluates a product of temporaries in place, in its own operand order;
    8 samples hold 41 KiB."""
    state, _ = make_state(L=5, N=2, override=(3, 5))
    hat = _component_batch(state, 2, 0, count)
    one = sampling._correlation_batch(hat)
    two = sampling._correlation_batch(np.concatenate([hat, hat], axis=1))
    assert np.array_equal(one[0, 0], two[0, 0])


def test_batch_rows_equal_single_draws():
    """Row i of a batched draw is the single draw of index i, bit for bit,
    as a spectrum and as a field, and an unaligned slice equals the
    matching rows."""
    for state in (make_ranged_state(), build_sampler(decompose(
            identity_map(2, 2), TorusGeometry(d=2, m=2, L=3, N=1),
            build_schedule(TorusGeometry(d=2, m=2, L=3, N=1), override=[3])), seed=7),
            make_d3m2_state()):
        for k in range(1, state.n_scales + 1):
            batch = _component_batch(state, k, 0, 300)
            fields = sampling._to_sites(batch, state.geometry)
            for i in range(300):
                assert np.array_equal(batch[i], _component_batch(state, k, i, 1)[0])
                assert np.array_equal(fields[i], sample_component(state, k, i).values)
            assert np.array_equal(_component_batch(state, k, 5, 7), batch[5:12])


def test_in_order_bounds_batches_in_flight():
    """Results come back in item order with at most depth calls submitted
    ahead of the consumer, so a slow consumer cannot pile up batches."""
    submitted = []

    class RecordingPool:
        def submit(self, fn, item):
            submitted.append(item)
            future = Future()
            future.set_result(fn(item))
            return future

    seen = []
    for item in sampling._in_order(RecordingPool(), lambda i: 10 * i, range(9), 3):
        assert len(submitted) - len(seen) <= 3
        seen.append(item)
    assert seen == [10 * i for i in range(9)]


def suite_batch_bytes(state, sites=False):
    """_batch_bytes for the suite's estimates of state: each scale and the
    total."""
    return sampling._batch_bytes(state.geometry, state.n_scales + 1, sites)


def budget_for(sums, per_sample, batch):
    """The least BATCH_BYTES whose batches hold the given sample count."""
    return (sampling.IN_FLIGHT + 1) * sums + sampling.IN_FLIGHT * batch * per_sample


def counting_draws(monkeypatch):
    """Patch _component_batch to record the count of every draw."""
    counts = []
    original = sampling._component_batch

    def counting(state, k, start, count):
        counts.append(count)
        return original(state, k, start, count)

    monkeypatch.setattr(sampling, "_component_batch", counting)
    return counts


@pytest.mark.parametrize("make", [make_ranged_state, make_d3m2_state])
def test_budget_batches_match_full_batches(monkeypatch, make):
    """A budget that holds 5 samples a batch, total fields included: the
    pool keeps IN_FLIGHT batches, the draws come 5 at a time, one and two
    threads agree bit for bit, the total fields equal those of the
    full-budget batches bit for bit (two of 150: the 300 samples are
    spread evenly over the two batches of at most 256 they need), and the
    estimates stay within the
    stated tolerance of them (they sum in other groups): means within
    1e-13 of the largest |mean| and gradient figures within 1e-10
    relative.  The standard errors do not depend on the batches: they are
    the same bits, and the Isserlis oracle's within 1e-12 relative."""
    res = {make_ranged_state: ranged_result, make_d3m2_state: d3m2_result}[make]()
    state = make(res)
    n = 300
    fields = {"full": [], 1: [], 2: []}
    counts = counting_draws(monkeypatch)
    full = run_sampling_suite(state, n=n, on_total=fields["full"].append)
    assert counts == [150] * 2 * state.n_scales
    counts.clear()
    sums, per_sample = suite_batch_bytes(state, sites=True)
    monkeypatch.setattr(sampling, "BATCH_BYTES", budget_for(sums, per_sample, 5))
    assert sampling._batch_plan(sums, per_sample, 2) == (5, sampling.IN_FLIGHT)
    a = run_sampling_suite(state, n=n, threads=1, on_total=fields[1].append)
    assert set(counts) == {5} and len(counts) == state.n_scales * n // 5
    b = run_sampling_suite(state, n=n, threads=2, on_total=fields[2].append)
    totals = {key: np.concatenate(batches) for key, batches in fields.items()}
    assert np.array_equal(totals[1], totals["full"]) and np.array_equal(totals[2], totals["full"])
    for k in a["component"]:
        assert same_estimate(a["component"][k], b["component"][k])
    assert same_estimate(a["total"], b["total"])
    assert a["gradient"] == b["gradient"]
    kernels = [kern.values for kern in res.kernels()]
    for est, ref, K in zip(estimates(a), estimates(full), kernels + [sum(kernels)]):
        assert np.allclose(est.mean, ref.mean, rtol=0.0, atol=1e-13 * np.max(np.abs(ref.mean)))
        assert np.array_equal(est.se, ref.se)
        assert_null_se(ref, K, state.geometry, n)
    for rep, ref in zip(a["gradient"].values(), full["gradient"].values()):
        assert (rep is None) == (ref is None)
        if rep is not None:
            assert np.isclose(rep.max_abs, ref.max_abs, rtol=1e-10, atol=0.0)
            assert np.isclose(rep.max_se_ratio, ref.max_se_ratio, rtol=1e-10, atol=0.0)


def loop_peak(monkeypatch, state, batch):
    """Traced peak of a one-thread suite of two batches of the given size,
    read when its first estimate is made, after the batches."""
    monkeypatch.setattr(sampling, "BATCH", batch)
    original = sampling._estimate
    peaks = []

    def reading(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return original(*args)

    monkeypatch.setattr(sampling, "_estimate", reading)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_sampling_suite(state, n=2 * batch)
    finally:
        if not tracing:
            tracemalloc.stop()
    return peaks[0] - base


def coupled_d2m2_state():
    """d=2 m=2 L=3 N=4 (S=81), default schedule, coupled A."""
    A = np.array([[2.0, 0.5, 0.0, 0.3], [0.5, 2.0, 0.5, 0.0],
                  [0.0, 0.5, 2.0, 0.5], [0.3, 0.0, 0.5, 2.0]])
    g = TorusGeometry(d=2, m=2, L=3, N=4)
    return build_sampler(decompose(validate_map(A, 2, 2), g, build_schedule(g)))


def default_s243_state():
    g = TorusGeometry(d=2, m=1, L=3, N=5)
    return build_sampler(decompose(identity_map(2, 1), g, build_schedule(g)))


@pytest.mark.parametrize("make, small, large", [
    (make_d3m2_state, 32, 128), (coupled_d2m2_state, 16, 64), (default_s243_state, 8, 32)])
def test_batch_bytes_bound_the_traced_peak_per_sample(monkeypatch, make, small, large):
    """_batch_bytes' per-sample bytes bound the traced batch-loop peak per
    sample and exceed it by at most 30 %.  The peak per sample is the slope
    between two batch sizes, after a warm-up run, so that the sums and the
    fixed arrays cancel; it may exceed them by 0.1 %, for the few hundred
    bytes of Python objects by which two runs' peaks differ.  The count is exact
    here, 3m rows of 16 n bytes: 6, 6 and 3 at d=3 m=2 S=9, d=2 m=2 S=81
    and d=2 m=1 S=243."""
    state = make()
    per_sample = suite_batch_bytes(state)[1]
    loop_peak(monkeypatch, state, small)
    slope = (loop_peak(monkeypatch, state, large) - loop_peak(monkeypatch, state, small)) / (
        large - small)
    assert slope <= 1.001 * per_sample and per_sample <= 1.3 * slope


@pytest.mark.parametrize("sites", [False, True])
def test_budget_below_one_sample_fails_before_any_draw(monkeypatch, sites):
    """One byte short of one sample per batch raises SampleTooLarge with
    no draw; at the exact budget the suite runs one sample a batch."""
    state = make_ranged_state()
    sums, per_sample = suite_batch_bytes(state, sites)
    counts = counting_draws(monkeypatch)
    on_total = (lambda total: None) if sites else None
    monkeypatch.setattr(sampling, "BATCH_BYTES", budget_for(sums, per_sample, 1) - 1)
    with pytest.raises(SampleTooLarge):
        run_sampling_suite(state, n=4, on_total=on_total)
    assert counts == []
    monkeypatch.setattr(sampling, "BATCH_BYTES", budget_for(sums, per_sample, 1))
    run_sampling_suite(state, n=4, on_total=on_total)
    assert counts == [1] * 4 * state.n_scales


def test_threaded_estimates_are_identical():
    state = make_ranged_state()
    a = run_sampling_suite(state, n=600, threads=1)
    b = run_sampling_suite(state, n=600, threads=4)
    assert a["component"].keys() == b["component"].keys()
    for k in a["component"]:
        assert same_estimate(a["component"][k], b["component"][k])
    assert same_estimate(a["total"], b["total"])
    assert a["gradient"] == b["gradient"]
