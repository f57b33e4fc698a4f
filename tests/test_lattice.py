import numpy as np
import pytest

from frdlat.errors import CubeTooLarge
from frdlat.lattice import (
    Cube,
    TorusGeometry,
    centered,
    cube,
    p_flat,
    p_norms,
    rho_inf,
    rho_inf_grid,
)


def test_geometry_basics():
    g = TorusGeometry(d=2, m=1, L=3, N=2)
    assert g.side == 9
    assert g.site_count == 81
    assert g.site_shape == (9, 9)
    assert g.field_shape() == (1, 9, 9)
    assert g.gradient_shape() == (1, 2, 9, 9)
    assert g.kernel_shape() == (1, 1, 9, 9)


def test_geometry_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TorusGeometry(d=1, m=1, L=3, N=1)
    with pytest.raises(ValueError):
        TorusGeometry(d=2, m=0, L=3, N=1)
    with pytest.raises(ValueError):
        TorusGeometry(d=2, m=1, L=4, N=1)
    with pytest.raises(ValueError):
        TorusGeometry(d=2, m=1, L=1, N=1)
    with pytest.raises(ValueError):
        TorusGeometry(d=2, m=1, L=3, N=0)
    with pytest.raises(ValueError):
        TorusGeometry(d=2, m=1, L=3, N=20)


@pytest.mark.parametrize("sizes", [dict(d=2, N=3000000), dict(d=20000000, N=1)])
def test_site_cap_is_checked_without_the_exact_count(sizes):
    cap = r"site count L\^\(N\*d\) = 3\^\d+ exceeds the cap 16777216"
    with pytest.raises(ValueError, match=cap):
        TorusGeometry(m=1, L=3, **sizes)


def test_site_cap_boundary():
    assert TorusGeometry(d=3, m=1, L=3, N=5).site_count == 3 ** 15
    with pytest.raises(ValueError, match="site count"):
        TorusGeometry(d=2, m=1, L=3, N=8)


def test_centered_representatives():
    got = centered(np.arange(9), 9)
    assert got.tolist() == [0, 1, 2, 3, 4, -4, -3, -2, -1]
    assert centered(np.array([5, -5]), 3).tolist() == [-1, 1]


def test_cube_site_sets():
    c = Cube(l=3, d=2)
    assert c.interior_count == 4
    assert c.volume == 9
    assert c.interior.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]
    g = TorusGeometry(d=2, m=1, L=3, N=1)
    with pytest.raises(CubeTooLarge):
        cube(4, g)
    assert cube(3, g).l == 3


def test_rho_inf_values():
    g = TorusGeometry(d=2, m=1, L=3, N=2)
    assert rho_inf((0, 0), (5, 5), g) == 4
    assert rho_inf((0, 0), (8, 0), g) == 1
    assert rho_inf((1, 2), (1, 2), g) == 0
    assert rho_inf((1, 11), (10, 2), g) == 0


def test_rho_inf_triangle_inequality():
    g = TorusGeometry(d=3, m=1, L=5, N=1)
    rng = np.random.default_rng(3)
    pts = rng.integers(0, 5, size=(1000, 3, 3))
    for x, y, z in pts:
        assert rho_inf(x, z, g) <= rho_inf(x, y, g) + rho_inf(y, z, g)


def test_rho_inf_grid_matches_pointwise():
    g = TorusGeometry(d=2, m=1, L=5, N=1)
    grid = rho_inf_grid(g)
    for x0 in range(5):
        for x1 in range(5):
            assert grid[x0, x1] == rho_inf((x0, x1), (0, 0), g)


def test_rho_inf_grid_matches_pointwise_in_three_dimensions():
    g = TorusGeometry(d=3, m=1, L=3, N=1)
    grid = rho_inf_grid(g)
    assert grid.shape == (3, 3, 3) and grid.dtype == np.int64
    for x in np.ndindex(grid.shape):
        assert grid[x] == rho_inf(x, (0, 0, 0), g)


def test_p_flat_layout():
    g = TorusGeometry(d=2, m=1, L=3, N=1)
    P = p_flat(g)
    assert g.half_shape == (3, 2) and g.half_count == 6
    assert P.shape == (6, 2)
    assert np.all(P[0] == 0.0)
    norms = p_norms(g)
    assert norms[0] == 0.0
    assert np.all(norms[1:] > 0.0)
    # row order ravels the rfftn half grid: the last index runs over 0..S//2
    w = 2.0 * np.pi / 3.0
    assert np.array_equal(P, [[0, 0], [0, w], [w, 0], [w, w], [-w, 0], [-w, w]])
