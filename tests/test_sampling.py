import numpy as np
import pytest

from frdlat.decomposition import build_schedule, decompose
from frdlat.elliptic import identity_map
from frdlat.errors import EmptyFarRegion
from frdlat.fields import Field
from frdlat.lattice import TorusGeometry, centered
from frdlat import sampling
from frdlat.sampling import (
    _half_set,
    build_sampler,
    covariance_deviation,
    dense_reference_samples,
    empirical_covariance,
    estimate_agreement,
    gradient_range_check,
    run_sampling_suite,
    sample_component,
    sample_total,
    shuffled_control,
)


def make_state(L=3, N=1, override=(None,), seed=0):
    g = TorusGeometry(d=2, m=1, L=L, N=N)
    res = decompose(identity_map(2, 1), g, build_schedule(g, override=list(override)))
    return build_sampler(res, seed=seed), res


def test_half_set_hand_values():
    """On the 3x3 torus H = {(0,1), (1,-1), (1,0), (1,1)} in centered
    lexicographic order."""
    g = TorusGeometry(d=2, m=1, L=3, N=1)
    pos, neg = _half_set(g)
    coords = np.stack(np.unravel_index(pos, g.site_shape), axis=-1)
    cc = centered(coords, 3)
    assert cc.tolist() == [[0, 1], [1, -1], [1, 0], [1, 1]]
    nc = centered(np.stack(np.unravel_index(neg, g.site_shape), axis=-1), 3)
    assert np.array_equal(nc, -cc)


def test_half_set_partitions_nonzero_frequencies():
    g = TorusGeometry(d=2, m=1, L=5, N=1)
    pos, neg = _half_set(g)
    assert len(pos) == len(neg) == (25 - 1) // 2
    zero_flat = np.ravel_multi_index((0, 0), g.site_shape)
    all_idx = sorted(pos.tolist() + neg.tolist() + [zero_flat])
    assert all_idx == list(range(25))


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


def test_empirical_covariance_of_white_noise():
    g = TorusGeometry(d=2, m=1, L=3, N=1)
    rng = np.random.default_rng(5)
    samples = [Field(g, rng.standard_normal((1, 3, 3))) for _ in range(4000)]
    est = empirical_covariance(samples)
    assert est.n == 4000
    assert not est.infinite_width
    assert abs(est.mean[0, 0, 0, 0] - 1.0) < 5.0 * est.se[0, 0, 0, 0]
    off = est.mean[0, 0, 1, 2]
    assert abs(off) < 5.0 * max(est.se[0, 0, 1, 2], 1e-12)


def test_single_sample_has_infinite_width():
    g = TorusGeometry(d=2, m=1, L=3, N=1)
    est = empirical_covariance([Field(g, np.ones((1, 3, 3)))])
    assert est.infinite_width
    assert np.all(np.isinf(est.se))


def test_dense_reference_agrees_with_spectral_sampler():
    state, res = make_state()
    spectral = [sample_component(state, 2, i) for i in range(2000)]
    dense = dense_reference_samples(res.kernel(2), 2000, seed=99)
    a = empirical_covariance(spectral)
    b = empirical_covariance(dense)
    assert estimate_agreement(a, b) < 5.0


def test_shuffled_control_is_decorrelated():
    state, _ = make_state()
    samples = [sample_component(state, 2, i) for i in range(2000)]
    est = shuffled_control(samples)
    width = np.maximum(est.se, 1e-12)
    assert np.max(np.abs(est.mean) / width) < 5.0


def test_gradient_range_check_far_region():
    g9 = TorusGeometry(d=2, m=1, L=3, N=2)
    res9 = decompose(identity_map(2, 1), g9, build_schedule(g9, override=[3, 3]))
    state9 = build_sampler(res9)
    samples = [sample_component(state9, 1, i) for i in range(64)]
    with pytest.raises(EmptyFarRegion):
        gradient_range_check(samples, 3)
    report = gradient_range_check(samples, 1)
    assert report.far_sites > 0
    assert not report.trivial


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


def test_suite_matches_the_list_api_bit_for_bit():
    state = make_ranged_state()
    n = 600
    suite = run_sampling_suite(state, n=n)
    for k in range(1, state.n_scales + 1):
        samples = [sample_component(state, k, i) for i in range(n)]
        assert same_estimate(suite["component"][k], empirical_covariance(samples))
        if k > len(state.ranges):
            continue
        if suite["gradient"][k] is None:
            with pytest.raises(EmptyFarRegion):
                gradient_range_check(samples, state.ranges[k - 1])
        else:
            assert suite["gradient"][k] == gradient_range_check(samples, state.ranges[k - 1])
    assert suite["gradient"][1] is not None and suite["gradient"][2] is None
    totals = [sample_total(state, i) for i in range(n)]
    assert same_estimate(suite["total"], empirical_covariance(totals))


def test_threaded_estimates_are_identical():
    state = make_ranged_state()
    a = run_sampling_suite(state, n=600, threads=1)
    b = run_sampling_suite(state, n=600, threads=4)
    assert a["component"].keys() == b["component"].keys()
    for k in a["component"]:
        assert same_estimate(a["component"][k], b["component"][k])
    assert same_estimate(a["total"], b["total"])
    assert a["gradient"] == b["gradient"]
