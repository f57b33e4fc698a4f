from concurrent.futures import Future
from itertools import product

import numpy as np

from frdlat.decomposition import build_schedule, decompose
from frdlat.elliptic import identity_map
from frdlat.lattice import TorusGeometry, rho_inf_grid
from frdlat import sampling
from frdlat.sampling import (
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


def combined_se_ratio(mean_a, se_a, mean_b, se_b):
    """Max per-entry |mean_a - mean_b| in combined-SE units."""
    diff = np.abs(mean_a - mean_b)
    width = np.sqrt(se_a**2 + se_b**2)
    return float(np.max(np.where(diff > 0.0, diff / np.maximum(width, 1e-300), 0.0)))


def test_empirical_covariance_of_white_noise():
    g = TorusGeometry(d=2, m=1, L=3, N=1)
    rng = np.random.default_rng(5)
    mean, se = mean_and_se(sampling._correlation_batch(rng.standard_normal((4000, 1, 3, 3)), g))
    assert abs(mean[0, 0, 0, 0] - 1.0) < 5.0 * se[0, 0, 0, 0]
    assert abs(mean[0, 0, 1, 2]) < 5.0 * max(se[0, 0, 1, 2], 1e-12)


def white_state(g, n_scales=1, seed=0):
    """Sampler whose roots are identity stacks: it draws the white noise
    with its p = 0 mode removed."""
    root = np.tile(np.eye(g.m), (g.site_count - 1, 1, 1))
    return SamplerState(geometry=g, seed=seed, roots=[root] * n_scales)


def test_white_noise_moments():
    """Projected unit white noise on 9x9: mean 0, variance 1 - S^-d,
    neighbour covariance -S^-d and Gaussian kurtosis, each within 5 SE
    over per-sample site averages."""
    g = TorusGeometry(d=2, m=1, L=3, N=2)
    n = 4000
    v = _component_batch(white_state(g), 1, 0, n)[:, 0]
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


def test_single_sample_has_infinite_width():
    state, _ = make_state(L=5, N=1, override=(3,))
    suite = run_sampling_suite(state, n=1)
    for est in list(suite["component"].values()) + [suite["total"]]:
        assert est.n == 1
        assert np.all(np.isinf(est.se))


def test_dense_reference_agrees_with_spectral_sampler():
    state, res = make_state()
    g = state.geometry
    spectral = run_sampling_suite(state, n=2000)["component"][2]
    dense = np.stack([f.values for f in dense_reference_samples(res.kernel(2), 2000, seed=99)])
    mean, se = mean_and_se(direct_correlations(dense, dense, g))
    assert combined_se_ratio(spectral.mean, spectral.se, mean, se) < 5.0


def test_shuffled_control_is_decorrelated():
    """Each sample correlated with its cyclic successor: mismatched pairs
    are independent, so the estimate vanishes within its errors."""
    state, _ = make_state()
    vals = _component_batch(state, 2, 0, 2000)
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


def make_ranged_state():
    """25x25 torus where scale 1 has a far region and scale 2 has none."""
    g = TorusGeometry(d=2, m=1, L=5, N=2)
    res = decompose(identity_map(2, 1), g, build_schedule(g, override=[3, 5]))
    return build_sampler(res)


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
    the suite's FFT correlations and batched reducer."""
    state = make_ranged_state()
    g = state.geometry
    n = 300
    suite = run_sampling_suite(state, n=n)

    def check(est, vals):
        mean, se = mean_and_se(direct_correlations(vals, vals, g))
        scale = max(float(np.max(np.abs(mean))), 1e-300)
        assert est.n == n
        assert np.allclose(est.mean, mean, rtol=1e-12, atol=1e-13 * scale)
        assert np.allclose(est.se, se, rtol=1e-10, atol=1e-13 * scale)

    comps = {}
    for k in range(1, state.n_scales + 1):
        comps[k] = np.stack([sample_component(state, k, i).values for i in range(n)])
        check(suite["component"][k], comps[k])
    check(suite["total"], np.stack([sample_total(state, i).values for i in range(n)]))

    rho = rho_inf_grid(g)
    for k, r in enumerate(state.ranges, start=1):
        far = rho > r + 2
        report = suite["gradient"][k]
        if not np.any(far):
            assert report is None
            continue
        mean, se = mean_and_se(direct_correlations(*[gradient_channels(comps[k], g)] * 2, g))
        diff = np.abs(mean[:, :, far])
        assert report.r == r
        assert report.far_sites == int(np.count_nonzero(far))
        assert np.isclose(report.max_abs, np.max(diff), rtol=1e-12, atol=0.0)
        assert np.isclose(report.max_se_ratio, np.max(diff / se[:, :, far]), rtol=1e-10, atol=0.0)
        assert not report.trivial
    assert suite["gradient"][1] is not None and suite["gradient"][2] is None


def test_batch_rows_equal_single_draws():
    """Row i of a batched draw is the single draw of index i, bit for bit,
    and an unaligned slice equals the matching rows."""
    for state in (make_ranged_state(), build_sampler(decompose(
            identity_map(2, 2), TorusGeometry(d=2, m=2, L=3, N=1),
            build_schedule(TorusGeometry(d=2, m=2, L=3, N=1), override=[3])), seed=7)):
        for k in range(1, state.n_scales + 1):
            batch = _component_batch(state, k, 0, 300)
            for i in range(300):
                assert np.array_equal(batch[i], sample_component(state, k, i).values)
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


def test_threaded_estimates_are_identical():
    state = make_ranged_state()
    a = run_sampling_suite(state, n=600, threads=1)
    b = run_sampling_suite(state, n=600, threads=4)
    assert a["component"].keys() == b["component"].keys()
    for k in a["component"]:
        assert same_estimate(a["component"][k], b["component"][k])
    assert same_estimate(a["total"], b["total"])
    assert a["gradient"] == b["gradient"]
