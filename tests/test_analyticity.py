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
from frdlat.decomposition import build_schedule, decompose
from frdlat.elliptic import ComplexEllipticPath, identity_map, validate_map
from frdlat.errors import NotConverged, OutsideDisc
from frdlat.lattice import TorusGeometry


def setup_path(m=1, seed=None):
    g = TorusGeometry(d=2, m=m, L=5, N=2)
    sched = build_schedule(g, override=[3, 5])
    if seed is None:
        A = identity_map(2, m)
        direction = np.eye(2 * m)
    else:
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((2 * m, 2 * m))
        A = validate_map(B.T @ B + 0.3 * np.eye(2 * m), 2, m)
        D = rng.standard_normal((2 * m, 2 * m))
        D = 0.5 * (D + D.T)
        direction = D / np.max(np.abs(np.linalg.eigvalsh(D)))
    return ComplexEllipticPath.from_direction(A, direction), g, sched


def test_contour_guard_errors():
    path, g, sched = setup_path()
    with pytest.raises(OutsideDisc):
        contour_derivatives(path, g, sched, [1], r=1.0)
    with pytest.raises(ValueError):
        contour_derivatives(path, g, sched, [-1])
    with pytest.raises(ValueError):
        contour_derivatives(path, g, sched, [])
    with pytest.raises(ValueError):
        contour_derivatives(path, g, sched, [5], n_half=4)


def test_too_few_nodes_fail_the_doubling_gate():
    path, g, sched = setup_path()
    with pytest.raises(NotConverged):
        contour_derivatives(path, g, sched, [1], n_half=2)


def test_order_zero_recovers_decomposition():
    path, g, sched = setup_path()
    res = contour_derivatives(path, g, sched, [0])[0]
    base = decompose(path.A0, g, sched)
    for k in range(1, sched.N + 2):
        a = res.kernel(k).values
        b = base.kernel(k).values
        assert np.max(np.abs(a - b)) < 1e-11
    assert res.convergence < 1e-9
    assert res.n_nodes == 64


def test_shared_sweep_matches_single_order():
    path, g, sched = setup_path()
    both = contour_derivatives(path, g, sched, [0, 1])
    single = contour_derivatives(path, g, sched, [1])[1]
    assert np.array_equal(both[1].kernel(1).values, single.kernel(1).values)


def test_first_derivative_matches_finite_differences():
    path, g, sched = setup_path(m=2, seed=31)
    res = contour_derivatives(path, g, sched, [1])[1]
    fd_kernels, fd_green = fd_derivative(path, g, sched)
    assert fd_agreement(res, fd_kernels, fd_green) < 1e-6


def test_radius_independence():
    path, g, sched = setup_path()
    a = contour_derivatives(path, g, sched, [1], r=0.5)[1]
    b = contour_derivatives(path, g, sched, [1], r=0.25)[1]
    assert radius_agreement(a, b) < 1e-8


def test_derivative_telescoping():
    path, g, sched = setup_path()
    res = contour_derivatives(path, g, sched, [1])[1]
    assert derivative_sum_residual(res) < 1e-10


def test_derivative_growth_is_bounded():
    path, g, sched = setup_path()
    base = decompose(path.A0, g, sched)
    derivs = contour_derivatives(path, g, sched, [1, 2, 3])
    report = derivative_bound_check(base, list(derivs.values()), alphas=[(0, 0), (1, 0)])
    assert report.max_ratio < 10.0
    orders = {row.order for row in report.rows}
    assert orders == {0, 1, 2, 3}
