import numpy as np
import pytest

from frdlat.decomposition import (
    CubeSchedule,
    build_schedule,
    complex_decompose,
    decompose,
    far_field_constant,
    kernel_sup_norm,
)
from frdlat.elliptic import ComplexEllipticPath, identity_map, validate_map
from frdlat.errors import EmptyFarRegion, InvalidSchedule
from frdlat.lattice import TorusGeometry
from frdlat.spectral import flat_table
from frdlat.verification import diagnostics


def test_default_schedule_small_sides():
    g = TorusGeometry(d=2, m=1, L=3, N=3)
    sched = build_schedule(g)
    assert sched.levels == (None, None, 4)
    assert sched.ranges == (-1, -1, 5)
    assert sched.is_skipped(1) and sched.is_skipped(2) and not sched.is_skipped(3)


def test_default_schedule_medium_side():
    g = TorusGeometry(d=2, m=1, L=7, N=2)
    sched = build_schedule(g)
    assert sched.levels == (3, 7)
    assert sched.ranges == (3, 15)


def test_default_schedule_large_side():
    g = TorusGeometry(d=2, m=1, L=17, N=1)
    assert build_schedule(g).levels == (3,)


def test_override_ranges():
    g = TorusGeometry(d=2, m=1, L=5, N=2)
    assert build_schedule(g, override=[3, 5]).ranges == (3, 11)
    g4 = TorusGeometry(d=2, m=1, L=3, N=4)
    sched = build_schedule(g4, override=[3, 5, 9, 17])
    assert sched.ranges == (3, 11, 27, 59)


def test_override_validation():
    g = TorusGeometry(d=2, m=1, L=5, N=2)
    with pytest.raises(InvalidSchedule):
        build_schedule(g, override=[3])
    with pytest.raises(InvalidSchedule):
        build_schedule(g, override=[2, 5])
    with pytest.raises(InvalidSchedule):
        build_schedule(g, override=[3, 27])


def test_range_reaching_half_side_warns():
    g = TorusGeometry(d=2, m=1, L=3, N=2)
    with pytest.warns(UserWarning):
        build_schedule(g, override=[5, 5])


def test_schedule_mismatch_rejected():
    g = TorusGeometry(d=2, m=1, L=5, N=1)
    sched = CubeSchedule((3,), S=3)
    with pytest.raises(InvalidSchedule):
        decompose(identity_map(2, 1), g, sched)


def test_all_skipped_levels_reduce_to_green():
    """With every level skipped, C_1..C_N vanish and the remainder is C."""
    g = TorusGeometry(d=2, m=1, L=3, N=1)
    sched = build_schedule(g, override=[None])
    res = decompose(identity_map(2, 1), g, sched)
    assert np.max(np.abs(res.table(1).values)) == 0.0
    assert np.allclose(res.table(2).values, res.green_table.values)
    assert res.n_scales == 2


def test_telescoping_and_psd():
    g = TorusGeometry(d=2, m=1, L=5, N=2)
    res = decompose(identity_map(2, 1), g, build_schedule(g, override=[3, 5]))
    diag = diagnostics(res)
    assert diag["sum_residual"] < 1e-12
    assert all(v is not None and v < 1e-10 for v in diag["range_residual"])
    assert min(diag["min_psd_eig"]) > -1e-10
    assert diag["imag_residue"] < 1e-12
    assert diag["ranges"] == [3, 11]


def test_matrix_valued_decomposition():
    g = TorusGeometry(d=2, m=2, L=3, N=1)
    rng = np.random.default_rng(7)
    B = rng.standard_normal((4, 4))
    A = validate_map(B.T @ B + 0.2 * np.eye(4), 2, 2)
    res = decompose(A, g, build_schedule(g, override=[3]))
    diag = diagnostics(res)
    assert diag["sum_residual"] < 1e-12
    assert min(diag["min_psd_eig"]) > -1e-10
    k = res.kernel(1)
    vals = k.values
    assert np.max(np.abs(vals - np.conj(vals))) == 0.0
    assert vals.shape == (2, 2, 3, 3)


def test_kernels_have_zero_mean():
    g = TorusGeometry(d=2, m=1, L=5, N=1)
    res = decompose(identity_map(2, 1), g, build_schedule(g, override=[3]))
    for k in range(1, res.n_scales + 1):
        assert abs(np.sum(res.kernel(k).values)) < 1e-13


def test_far_field_constant_empty_region():
    g = TorusGeometry(d=2, m=1, L=3, N=1)
    res = decompose(identity_map(2, 1), g, build_schedule(g, override=[3]))
    with pytest.raises(EmptyFarRegion):
        far_field_constant(res.kernel(1), 1)
    assert diagnostics(res)["range_residual"] == [None]


def test_kernel_sup_norm_matches_direct_max():
    g = TorusGeometry(d=2, m=1, L=5, N=1)
    res = decompose(identity_map(2, 1), g, build_schedule(g, override=[3]))
    k = res.kernel(1)
    assert kernel_sup_norm(k) == pytest.approx(float(np.max(np.abs(k.values))))


def test_complex_branch_matches_real_at_zero():
    g = TorusGeometry(d=2, m=1, L=5, N=2)
    sched = build_schedule(g, override=[3, 5])
    A = identity_map(2, 1)
    res = decompose(A, g, sched)
    cres = complex_decompose(ComplexEllipticPath.from_direction(A, np.eye(2)), 0.0, g, sched)
    worst = 0.0
    for k in range(1, res.n_scales + 1):
        a = res.table(k).values
        b = cres.table(k).values
        worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst < 1e-11


def test_complex_branch_telescopes_exactly():
    g = TorusGeometry(d=2, m=1, L=5, N=2)
    sched = build_schedule(g, override=[3, 5])
    path = ComplexEllipticPath.from_direction(identity_map(2, 1), np.eye(2))
    z = 0.3 + 0.4j
    cres = complex_decompose(path, z, g, sched)
    total = np.sum([flat_table(t.values, g)[1:] for t in cres.tables], axis=0)
    green = flat_table(cres.green_table.values, g)[1:]
    assert np.max(np.abs(total - green)) < 1e-12 * np.max(np.abs(green))
