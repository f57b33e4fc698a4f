import json
import math

import numpy as np
import pytest

from frdlat.analyticity import (
    contour_derivatives,
    derivative_bound_check,
    derivative_sum_residual,
    fd_agreement,
    fd_derivative,
    jet_derivatives,
    origin_agreement,
    radius_agreement,
)
from frdlat.config import parse_config
from frdlat.decomposition import build_schedule, complex_at, complex_sweep, decompose
from frdlat.elliptic import ComplexEllipticPath, identity_map, validate_map
from frdlat.errors import NotConverged, OutsideDisc
from frdlat.lattice import TorusGeometry
from frdlat.spectral import _hermitize
from frdlat import analyticity, decomposition


def setup_path(m=1, seed=None, d=2):
    g = TorusGeometry(d=d, m=m, L=5 if d == 2 else 3, N=2)
    sched = build_schedule(g, override=[3, 5])
    n = d * m
    if seed is None:
        A = identity_map(d, m)
        direction = np.eye(n)
    else:
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n, n))
        A = validate_map(B.T @ B + 0.3 * np.eye(n), d, m)
        D = rng.standard_normal((n, n))
        D = 0.5 * (D + D.T)
        direction = D / np.max(np.abs(np.linalg.eigvalsh(D)))
    return ComplexEllipticPath.from_direction(A, direction), g, sched


def oracle_kernel(table, g):
    """The kernel of a half-grid table's Hermitian part, zero at p = 0,
    without multiplier_to_kernel's Hermitian-defect check."""
    grid = np.zeros((g.half_count, g.m, g.m), dtype=np.complex128)
    grid[1:] = _hermitize(table)
    grid = np.moveaxis(grid.reshape(g.half_shape + (g.m, g.m)), (-2, -1), (0, 1))
    return np.fft.irfftn(grid, s=g.site_shape, axes=tuple(range(2, 2 + g.d)))


def full_circle_oracle(path, g, sched, orders, r, n_half):
    """Trapezoid sums over all 2 * n_half nodes of the circle, lower half
    included: per order, the N+1 scale kernels and then the Green kernel."""
    sweep = complex_sweep(path, g, sched)
    total = 2 * n_half
    sums = {j: 0.0 for j in orders}
    for t in range(total):
        theta = np.pi * t / n_half
        stack = complex_at(sweep, r * np.exp(1j * theta))
        for j in orders:
            sums[j] += np.exp(-1j * j * theta) / total * stack
    out = {}
    for j in orders:
        fac = math.factorial(j) / r**j * (2.0 / path.A0.c0) ** j
        out[j] = [oracle_kernel(fac * X, g) for X in sums[j]]
    return out


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
    """Each order of a shared sweep is bitwise its own single-order sweep."""
    path, g, sched = setup_path(m=2, seed=31)
    shared = contour_derivatives(path, g, sched, [0, 1, 3])
    assert sorted(shared) == [0, 1, 3]
    for j, res in shared.items():
        single = contour_derivatives(path, g, sched, [j])[j]
        assert len(res.kernels) == len(single.kernels) == sched.N + 1
        for a, b in zip(res.kernels, single.kernels):
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(res.green_kernel.values, single.green_kernel.values)
        assert res.convergence == single.convergence


@pytest.mark.parametrize("n_half", [16, 17])
@pytest.mark.parametrize("d,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_half_sweep_matches_full_circle_oracle(monkeypatch, d, m, n_half):
    """n_half + 1 node evaluations give the kernels of the 2 * n_half node
    sum; n_half = 17 leaves z = -r out of the half rule, whose gate must
    still pass."""
    path, g, sched = setup_path(m=m, seed=31, d=d)
    calls = []
    node = analyticity.complex_at

    def counted(sweep, z):
        calls.append(z)
        return node(sweep, z)

    monkeypatch.setattr(analyticity, "complex_at", counted)
    got = contour_derivatives(path, g, sched, [0, 1, 3], r=0.5, n_half=n_half)
    assert len(calls) == n_half + 1
    want = full_circle_oracle(path, g, sched, [0, 1, 3], 0.5, n_half)
    # A Cauchy sum's round-off is absolute, about eps * fac_j times the size
    # of C on the circle, so order 3's smallest kernels sit near that floor.
    size = max(np.max(np.abs(b)) for b in want[0])
    for j, res in got.items():
        assert res.n_nodes == 2 * n_half
        floor = 1e-14 * math.factorial(j) / 0.5**j * (2.0 / path.A0.c0) ** j * size
        for a, b in zip(res.kernels + [res.green_kernel], want[j]):
            assert np.max(np.abs(a.values - b)) <= 1e-11 * np.max(np.abs(b)) + floor


def test_derivative_tables_are_exactly_conjugate_symmetric():
    """Every row of every scale and Green table is exactly Hermitian,
    values^T == conj values bitwise, so the kernels' Hermitian defect
    (imag_residue) is 0.  A full-circle sum leaves 1e-10 of the order-3
    kernels' max here."""
    path, g, sched = setup_path(m=2, seed=31, d=3)
    for res in contour_derivatives(path, g, sched, [0, 1, 3], n_half=16).values():
        for tab in res.tables + [res.green_table]:
            assert np.array_equal(np.swapaxes(tab.values, -1, -2), np.conj(tab.values))
        for k in res.kernels + [res.green_kernel]:
            assert k.imag_residue == 0.0


def test_nan_in_a_contour_sum_fails_the_doubling_gate(monkeypatch):
    path, g, sched = setup_path()
    node = analyticity.complex_at

    def poisoned(sweep, z):
        stack = node(sweep, z)
        stack[0, 0] = np.nan
        return stack

    monkeypatch.setattr(analyticity, "complex_at", poisoned)
    with pytest.raises(NotConverged):
        contour_derivatives(path, g, sched, [1])


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
    report = derivative_bound_check(base, list(derivs.values()))
    assert report.max_ratio < 10.0
    orders = {row.order for row in report.rows}
    assert orders == {0, 1, 2, 3}


def test_sweep_assembles_each_cube_once_per_tensor(monkeypatch):
    """Two live levels, two coefficient tensors: the jets make four
    assemblies in all, whatever the order, and solve no member's
    stiffness."""
    path, g, sched = setup_path(m=2, seed=5)
    calls = []
    assemble = decomposition.assemble_stiffness

    def counted(A, cube):
        calls.append(cube.l)
        return assemble(A, cube)

    def no_member(factor, g):
        raise AssertionError("local_green_flat called by the jets")

    monkeypatch.setattr(decomposition, "assemble_stiffness", counted)
    monkeypatch.setattr(decomposition, "local_green_flat", no_member)
    jet_derivatives(path, g, sched, 4)
    assert sorted(calls) == [3, 3, 5, 5]


def test_jets_telescope_and_match_the_real_branch():
    """Order 0 is decompose, order 1 its finite differences, every order
    telescopes to the Green derivative and the growth ratios stay small."""
    path, g, sched = setup_path(m=2, seed=31)
    base = decompose(path.A0, g, sched)
    jets = jet_derivatives(path, g, sched, 3)
    assert sorted(jets) == [0, 1, 2, 3]
    assert origin_agreement(jets[0], base) <= 1e-11
    assert fd_agreement(jets[1], *fd_derivative(path, g, sched)) < 1e-6
    for res in jets.values():
        assert derivative_sum_residual(res) < 1e-10
        assert (res.n_nodes, res.convergence) == (0, 0.0)
        for tab in res.tables + [res.green_table]:
            assert np.array_equal(np.swapaxes(tab.values, -1, -2), np.conj(tab.values))
    assert derivative_bound_check(base, [jets[1], jets[2], jets[3]]).max_ratio < 10.0


D3M2_CI = {
    "d": 3, "m": 2, "L": 3, "N": 2,
    "A": [[2.0, 0.5, 0.0, 0.0, 0.0, 0.3],
          [0.5, 2.0, 0.5, 0.0, 0.0, 0.0],
          [0.0, 0.5, 2.0, 0.5, 0.0, 0.0],
          [0.0, 0.0, 0.5, 2.0, 0.5, 0.0],
          [0.0, 0.0, 0.0, 0.5, 2.0, 0.5],
          [0.3, 0.0, 0.0, 0.0, 0.5, 2.0]],
    "schedule": [3, 5],
}


def workload_config(seed):
    """The config of the deriv-d3m2 benchmark workload for a seed: d=3 m=2
    S=9, A = B^T B / 6 + 0.5 I and a unit direction from one generator."""
    rng = np.random.default_rng([seed, 0x66726C])
    B = rng.standard_normal((6, 6))
    A = B.T @ B / 6 + 0.5 * np.eye(6)
    D = rng.standard_normal((6, 6))
    D = 0.5 * (D + D.T)
    return {"d": 3, "m": 2, "L": 3, "N": 2, "A": (0.5 * (A + A.T)).tolist(),
            "schedule": [3, 5], "derivative": {"direction": (D / np.max(np.abs(
                np.linalg.eigvalsh(D)))).tolist()}}


ORACLE_CASES = {
    "d3m2-seed1": (workload_config(1), 0.8, 48),
    "d3m2-seed2": (workload_config(2), 0.8, 48),
    # CI's d=3 m=2 smoke config at an odd node count: z = -r is in the full
    # rule only.
    "ci-d3m2-odd": (D3M2_CI, 0.5, 17),
    "d2m1-skipped": ({"d": 2, "m": 1, "L": 3, "N": 3, "A": [[1.5, 0.3], [0.3, 0.8]],
                      "schedule": [3, None, 5],
                      "derivative": {"direction": [[0.2, 0.7], [0.7, -0.4]]}}, 0.8, 48),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_jets_match_contour_oracle(case):
    """Every order-j table of the jets within 1e-13, 1e-12 and 1e-11 of
    its own max of the contour's, for j = 1, 2, 3.  The contour's round-off
    floor is eps j! (2/c0)^j / r^j of the largest table on the circle, so
    small order-3 tables need the larger radius: at r = 0.5 the d3m2 seed-2
    gap reaches 1.3e-11 on C_1, at r = 0.8 it is 3.6e-12."""
    doc, r, n_half = ORACLE_CASES[case]
    cfg = parse_config(json.dumps(doc))
    g, sched, path = cfg.geometry, cfg.schedule, cfg.path
    jets = jet_derivatives(path, g, sched, 3)
    contour = contour_derivatives(path, g, sched, [1, 2, 3], r=r, n_half=n_half)
    for j, tol in ((1, 1e-13), (2, 1e-12), (3, 1e-11)):
        got, want = jets[j], contour[j]
        for a, b in zip(got.tables + [got.green_table], want.tables + [want.green_table]):
            scale = np.max(np.abs(b.values))
            assert np.max(np.abs(a.values - b.values)) <= tol * scale
