import numpy as np
import pytest

from frdlat.decomposition import build_schedule, decompose
from frdlat.elliptic import identity_map, symbol_flat, validate_map
from frdlat.errors import InsufficientScales, TooLargeForOracle
from frdlat.lattice import TorusGeometry
from frdlat.spectral import multiplier_to_kernel, pair_rows
from frdlat.verification import (
    _annulus_index,
    brute_force_green,
    check_finite_range,
    check_psd,
    check_sum,
    check_symmetry,
    decay_table,
    envelope_report,
    eta,
)


def small_result(L=5, N=1, override=(3,), m=1, seed=None):
    g = TorusGeometry(d=2, m=m, L=L, N=N)
    if seed is None:
        A = identity_map(2, m)
    else:
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((2 * m, 2 * m))
        A = validate_map(B.T @ B + 0.2 * np.eye(2 * m), 2, m)
    return decompose(A, g, build_schedule(g, override=list(override)))


def test_brute_force_green_hand_values():
    """On the 3x3 torus with A = I: C(0) = 2/9, axis neighbors vanish,
    diagonal neighbors carry -1/18."""
    g = TorusGeometry(d=2, m=1, L=3, N=1)
    kern = brute_force_green(identity_map(2, 1), g)
    v = kern.values[0, 0]
    assert v[0, 0] == pytest.approx(2.0 / 9.0, abs=1e-14)
    for site in [(0, 1), (1, 0), (0, 2), (2, 0)]:
        assert v[site] == pytest.approx(0.0, abs=1e-14)
    for site in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        assert v[site] == pytest.approx(-1.0 / 18.0, abs=1e-14)
    assert np.sum(v) == pytest.approx(0.0, abs=1e-13)


def test_brute_force_green_matches_spectral_inverse():
    g = TorusGeometry(d=2, m=2, L=5, N=1)
    rng = np.random.default_rng(15)
    B = rng.standard_normal((4, 4))
    A = validate_map(B.T @ B + 0.3 * np.eye(4), 2, 2)
    res = decompose(A, g, build_schedule(g, override=[3]))
    direct = brute_force_green(A, g)
    spectral = multiplier_to_kernel(res.green_table)
    assert np.max(np.abs(direct.values - spectral.values)) < 1e-10


def test_brute_force_green_size_guard():
    g = TorusGeometry(d=2, m=1, L=3, N=5)
    with pytest.raises(TooLargeForOracle):
        brute_force_green(identity_map(2, 1), g)


def test_check_sum_and_symmetry_are_tiny():
    res = small_result(L=5, N=2, override=(3, 5), m=2, seed=21)
    assert check_sum(res) < 1e-12
    assert check_symmetry(res) < 1e-12
    assert min(check_psd(res)) > -1e-10


def test_check_finite_range_values_and_empty():
    res = small_result(L=5, N=2, override=(3, 5))
    values = check_finite_range(res)
    assert len(values) == 2
    assert all(v is not None and v < 1e-10 for v in values)
    g3 = TorusGeometry(d=2, m=1, L=3, N=1)
    res3 = decompose(identity_map(2, 1), g3, build_schedule(g3, override=[3]))
    assert check_finite_range(res3) == [None]


def test_eta_values():
    assert eta(0, 2) == 10.0
    assert eta(1, 2) == 11.0
    assert eta(2, 2) == 12.0
    assert eta(7, 2) == 18.0


def test_decay_table_requires_two_live_scales():
    res = small_result(L=5, N=1, override=(3,))
    with pytest.raises(InsufficientScales):
        decay_table(res)


def test_decay_table_slopes_and_shapes():
    res = small_result(L=5, N=2, override=(3, 5))
    report = decay_table(res)
    zero = (0, 0)
    assert report.sup(1, zero) > report.sup(2, zero) > 0.0
    assert report.slopes[zero] < 0.0
    row = next(r for r in report.rows if r.k == 2 and r.alpha == (1, 0))
    L, d = 5, 2
    assert row.envelope_shape == pytest.approx(L ** (-(2 - 1) * (d - 2 + 1)) * L ** eta(1, d))
    assert row.constant == pytest.approx(row.sup_norm / row.envelope_shape)
    assert all(np.isfinite(v) for v in report.fitted_constants.values())


def test_envelope_report_counts_and_bounds():
    res = small_result(L=5, N=2, override=(3, 5))
    rep = envelope_report(res)
    g = res.geometry
    assert sum(rep.annulus_counts) == g.side**g.d - 1
    assert rep.annulus_counts == np.bincount(_annulus_index(g), minlength=g.N + 1).tolist()
    assert len(rep.annulus_counts) == g.N + 1
    assert rep.contraction_max <= 1.0 + 1e-12
    for c in (rep.c_product, rep.c_tm, rep.c_low, rep.c_high):
        assert np.isfinite(c) and c >= 0.0
    assert all(v <= 1.0 + 1e-12 for v in rep.product_max.values())


@pytest.mark.parametrize("d, m", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_envelope_norms_match_independent_roots(d, m):
    """envelope_report measures the Ahat^{1/2}-conjugates through a Cholesky
    similarity; the same norms with Ahat^{+-1/2} from eigh, per frequency,
    for random SPD A and a skipped level."""
    g = TorusGeometry(d=d, m=m, L=3, N=3)
    rng = np.random.default_rng(10 * d + m)
    n = m * d
    B = rng.standard_normal((n, n))
    A = validate_map(B.T @ B / n + 0.5 * np.eye(n), d, m)
    res = decompose(A, g, build_schedule(g, override=[3, None, 5]))
    rep = envelope_report(res)

    w, U = np.linalg.eigh(symbol_flat(A.tensor, g)[1:])
    Uh = np.conj(np.swapaxes(U, -1, -2))
    rows, _ = pair_rows(g)  # the rows of the stored symbols and products
    root = ((U * np.sqrt(w)[:, None, :]) @ Uh)[rows]
    invroot = ((U / np.sqrt(w)[:, None, :]) @ Uh)[rows]

    def norms(Y):
        return np.linalg.norm(root @ Y @ invroot, ord=2, axis=(-2, -1))

    ann = _annulus_index(g)[rows]

    def close(got, want):
        assert abs(got - want) <= 1e-12 * want

    for (k, j), got in rep.product_max.items():
        close(got, np.max(norms(res.products[k])[ann == j]))
    for (k, j), got in rep.tm_max.items():
        close(got, np.max(norms(res.symbols[k] @ res.products[k])[ann == j]))
    assert sorted(rep.level_t_max) == sorted(rep.level_r_max) == [1, 3]
    for k in (1, 3):
        close(rep.level_t_max[k], np.max(norms(res.symbols[k - 1])))
        close(rep.level_r_max[k], np.max(norms(np.eye(m) - res.symbols[k - 1])))
