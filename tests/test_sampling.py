from concurrent.futures import Future
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


def combined_se_ratio(mean_a, se_a, mean_b, se_b):
    """Max per-entry |mean_a - mean_b| in combined-SE units."""
    diff = np.abs(mean_a - mean_b)
    width = np.sqrt(se_a**2 + se_b**2)
    return float(np.max(np.where(diff > 0.0, diff / np.maximum(width, 1e-300), 0.0)))


def test_empirical_covariance_of_white_noise():
    g = TorusGeometry(d=2, m=1, L=3, N=1)
    rng = np.random.default_rng(5)
    hat = np.fft.rfftn(rng.standard_normal((4000, 1, 3, 3)), axes=(2, 3))
    est = sampling._estimate(*sampling._correlation_batch(hat, g), len(hat))
    assert abs(est.mean[0, 0, 0, 0] - 1.0) < 5.0 * est.se[0, 0, 0, 0]
    assert abs(est.mean[0, 0, 1, 2]) < 5.0 * max(est.se[0, 0, 1, 2], 1e-12)


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


def test_single_sample_has_infinite_width():
    state, _ = make_state(L=5, N=1, override=(3,))
    suite = run_sampling_suite(state, n=1)
    for est in list(suite["component"].values()) + [suite["total"]]:
        assert np.all(np.isinf(est.se))


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


def test_single_sample_deviation_is_infinite():
    """An infinite standard error must not read as zero deviations: a
    one-sample estimate passes no covariance limit."""
    state, res = make_state(L=5, N=1, override=(3,))
    est = run_sampling_suite(state, n=1)["component"][1]
    assert covariance_deviation(est, res.kernel(1).values) == np.inf
    assert covariance_deviation(est, est.mean) == np.inf


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


def make_d3m2_state(N=2):
    """d=3, m=2 on a (3^N)^3 torus with a coupled A: every root is a 2 x 2
    matrix and the half grid is 3-D (9 x 9 x 5 at N=2)."""
    A = np.diag([2.0] * 6) + np.diag([0.5] * 5, 1) + np.diag([0.5] * 5, -1)
    A[0, 5] = A[5, 0] = 0.3
    g = TorusGeometry(d=3, m=2, L=3, N=N)
    sched = build_schedule(g, override=[3, 5][:N])
    return build_sampler(decompose(validate_map(A, 3, 2), g, sched), seed=3)


def test_d3m2_suite_matches_a_per_index_estimator():
    """The suite against per-index draws reduced by the real-space shift
    sum, across a batch boundary, at d=3 and m=2 on the 3^3 torus."""
    state = make_d3m2_state(N=1)
    g = state.geometry
    n = BATCH + 44
    suite = run_sampling_suite(state, n=n)
    comps = [np.stack([sample_component(state, k, i).values for i in range(n)])
             for k in range(1, state.n_scales + 1)]
    totals = np.stack([sample_total(state, i).values for i in range(n)])
    for est, vals in zip(list(suite["component"].values()) + [suite["total"]], comps + [totals]):
        mean, se = mean_and_se(direct_correlations(vals, vals, g))
        assert np.allclose(est.mean, mean, rtol=1e-12, atol=1e-13 * np.max(np.abs(mean)))
        assert np.allclose(est.se, se, rtol=1e-10, atol=1e-13 * np.max(np.abs(mean)))
    assert set(suite["gradient"].values()) == {None}


def test_d3m2_gradient_correlations_match_real_space():
    """Correlation sums taken one channel pair at a time match the
    real-space shift sums of the same fields, within 1e-12 relative: the
    6 gradient channels formed on the half spectrum (c = 6, against the
    real-space forward differences), the 2 components (c = 2) and one
    component alone (c = 1)."""
    state = make_d3m2_state()
    g = state.geometry
    hat = _component_batch(state, 1, 0, 40)
    vals = sampling._to_sites(hat, g)
    cases = [(sampling._gradient_channels(hat, g), gradient_channels(vals, g)),
             (hat, vals), (hat[:, :1], vals[:, :1])]
    for channels, real in cases:
        s, ss = sampling._correlation_batch(channels, g)
        ref = direct_correlations(real, real, g)
        scale = np.max(np.abs(ref))
        assert np.allclose(s, ref.sum(axis=0), rtol=1e-12, atol=40 * 1e-13 * scale)
        assert np.allclose(ss, (ref * ref).sum(axis=0), rtol=1e-12, atol=40 * 1e-13 * scale**2)


@pytest.mark.parametrize("count", [8, 64])
def test_one_channel_correlates_as_a_channel_of_two(count):
    """A channel's correlation sums do not depend on the channels beside
    it: one channel alone gives, bit for bit, the (0, 0) sums of the same
    field duplicated into two channels.  64 samples of the 25 x 25 torus
    hold 325 KiB of half spectra, above the 256 KiB from which numpy
    evaluates a product of temporaries in place, in its own operand order;
    8 samples hold 41 KiB."""
    state, _ = make_state(L=5, N=2, override=(3, 5))
    g = state.geometry
    hat = _component_batch(state, 2, 0, count)
    one, one_sq = sampling._correlation_batch(hat, g)
    two, two_sq = sampling._correlation_batch(np.concatenate([hat, hat], axis=1), g)
    assert np.array_equal(one[0, 0], two[0, 0])
    assert np.array_equal(one_sq[0, 0], two_sq[0, 0])


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
    total, then the gradient channels of each scale with a far region."""
    g = state.geometry
    rho = rho_inf_grid(g)
    checked = sum(bool(np.any(rho > r + 2)) for r in state.ranges)
    return sampling._batch_bytes(g, [g.m] * (state.n_scales + 1) + [g.m * g.d] * checked, sites)


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
    256-sample batches bit for bit, and the estimates stay within the
    stated tolerance of them (they sum in other groups): means within
    1e-13 of the largest |mean|, standard errors and gradient figures
    within 1e-10 relative."""
    state = make()
    n = 300
    fields = {"full": [], 1: [], 2: []}
    full = run_sampling_suite(state, n=n, on_total=fields["full"].append)
    sums, per_sample = suite_batch_bytes(state, sites=True)
    monkeypatch.setattr(sampling, "BATCH_BYTES", budget_for(sums, per_sample, 5))
    assert sampling._batch_plan(sums, per_sample, 2) == (5, sampling.IN_FLIGHT)
    counts = counting_draws(monkeypatch)
    a = run_sampling_suite(state, n=n, threads=1, on_total=fields[1].append)
    assert set(counts) == {5} and len(counts) == state.n_scales * n // 5
    b = run_sampling_suite(state, n=n, threads=2, on_total=fields[2].append)
    totals = {key: np.concatenate(batches) for key, batches in fields.items()}
    assert np.array_equal(totals[1], totals["full"]) and np.array_equal(totals[2], totals["full"])
    for k in a["component"]:
        assert same_estimate(a["component"][k], b["component"][k])
    assert same_estimate(a["total"], b["total"])
    assert a["gradient"] == b["gradient"]
    for est, ref in zip(list(a["component"].values()) + [a["total"]],
                        list(full["component"].values()) + [full["total"]]):
        assert np.allclose(est.mean, ref.mean, rtol=0.0, atol=1e-13 * np.max(np.abs(ref.mean)))
        assert np.allclose(est.se, ref.se, rtol=1e-10, atol=0.0)
    for rep, ref in zip(a["gradient"].values(), full["gradient"].values()):
        assert (rep is None) == (ref is None)
        if rep is not None:
            assert np.isclose(rep.max_abs, ref.max_abs, rtol=1e-10, atol=0.0)
            assert np.isclose(rep.max_se_ratio, ref.max_se_ratio, rtol=1e-10, atol=0.0)


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
