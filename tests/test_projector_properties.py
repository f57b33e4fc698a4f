"""Property tests of the block-sum local Green symbol.

Random SPD coefficients (real, and complex members of the analytic
family) on small tori: the FFT of the folded block kernel must agree with
the per-frequency plane-wave solve, and its inverse transform must vanish
beyond the cube's range l - 2.  The Taylor jets of K0 + z K1 must sum to
local_green_flat of the assembled family member near z = 0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frdlat.elliptic import ComplexEllipticPath, symbol_flat, validate_map
from frdlat.lattice import TorusGeometry, cube, p_flat, rho_inf_grid
from frdlat.projector import (assemble_stiffness, local_green_flat, local_green_jets,
                              projector_symbol)
from frdlat.spectral import reflect_sites

# (d, L, N) with small enough tori and cubes to keep each example cheap.
TORI = [(2, 3, 1), (2, 5, 1), (2, 7, 1), (2, 3, 2), (3, 3, 1), (3, 5, 1)]


@st.composite
def projector_cases(draw):
    d, L, N = draw(st.sampled_from(TORI))
    m = draw(st.sampled_from([1, 2]))
    g = TorusGeometry(d=d, m=m, L=L, N=N)
    l = draw(st.integers(min_value=2, max_value=g.side))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = m * d
    B = rng.standard_normal((n, n))
    A = validate_map(B.T @ B / n + 0.5 * np.eye(n), d, m)
    if draw(st.booleans()):
        D = rng.standard_normal((n, n))
        D = D + D.T
        D /= np.max(np.abs(np.linalg.eigvalsh(D)))
        radius = draw(st.floats(min_value=0.0, max_value=0.95))
        angle = draw(st.floats(min_value=0.0, max_value=2.0 * np.pi))
        coefficients = ComplexEllipticPath.from_direction(A, D).tensor_at(
            radius * np.exp(1j * angle)
        )
    else:
        coefficients = A
    rows = draw(st.lists(st.integers(min_value=1, max_value=g.half_count - 1), min_size=1, max_size=4))
    return g, cube(l, g), coefficients, rows


@settings(max_examples=40, deadline=None)
@given(projector_cases())
def test_block_sum_matches_plane_wave_solve(case):
    g, Q, coefficients, rows = case
    factor = assemble_stiffness(coefficients, Q)
    green = local_green_flat(factor, g)
    sym = symbol_flat(factor.tensor, g)
    ps = p_flat(g)
    for row in rows:
        expected = projector_symbol(factor, ps[row])
        got = green[row] @ sym[row] / Q.volume
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@settings(max_examples=40, deadline=None)
@given(projector_cases())
def test_block_kernel_vanishes_beyond_cube_range(case):
    g, Q, coefficients, _ = case
    reach = Q.l - 2
    if 2 * reach >= g.side:
        return
    green = local_green_flat(assemble_stiffness(coefficients, Q), g)
    h = g.side // 2 + 1
    grid = np.zeros(g.kernel_shape(), dtype=np.complex128)
    grid[..., :h] = np.moveaxis(green.reshape(g.half_shape + (g.m, g.m)), (-2, -1), (0, 1))
    # K is symmetric, so Ghat_Q(-p) = Ghat_Q(p)^T fills the rest of the full grid.
    grid[..., h:] = np.swapaxes(reflect_sites(grid, g), 0, 1)[..., h:]
    kernel = np.fft.fftn(grid, axes=tuple(range(2, 2 + g.d)), norm="forward")
    far = rho_inf_grid(g) > reach
    assert np.max(np.abs(kernel[..., ~far])) > 0.0
    assert np.all(np.abs(kernel[..., far]) <= 1e-13 * np.max(np.abs(kernel)))


@st.composite
def jet_cases(draw):
    d = draw(st.sampled_from([2, 3]))
    m = draw(st.sampled_from([1, 2]))
    g = TorusGeometry(d=d, m=m, L=5, N=1)
    l = draw(st.sampled_from([3, 5]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = m * d
    B = rng.standard_normal((n, n))
    A = validate_map(B.T @ B / n + 0.5 * np.eye(n), d, m)
    D = rng.standard_normal((n, n))
    D = D + D.T
    D /= np.max(np.abs(np.linalg.eigvalsh(D)))
    path = ComplexEllipticPath.from_direction(A, D)
    z = draw(st.floats(min_value=0.0, max_value=0.1)) * np.exp(
        1j * draw(st.floats(min_value=0.0, max_value=2.0 * np.pi))
    )
    return g, cube(l, g), path, z


@settings(max_examples=30, deadline=None)
@given(jet_cases())
def test_jets_sum_to_assembled_family_member(case):
    """|A1| <= c0/2 keeps the spectrum of K0^-1 K1 in [-1/2, 1/2], so at
    |z| <= 0.1 the terms of the series fall by 0.05 or faster and twelve of
    them leave a tail below 1e-15 of the symbol; order 0 is K0 alone."""
    g, Q, path, z = case
    m, d = g.m, g.d
    jets = local_green_jets(assemble_stiffness(path.A0.tensor, Q),
                            assemble_stiffness(path.A1.reshape(m, d, m, d), Q), g, 12)
    assert jets.shape == (g.half_count, 12, m, m)
    for point in (0.0, z):
        expected = local_green_flat(assemble_stiffness(path.tensor_at(point), Q), g)
        got = np.einsum("n,fnst->fst", point ** np.arange(12), jets)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_deep_layer_recursion_matches_plane_wave_solve():
    """l=41 on S=81: 40 layers and n=1600 unknowns, far deeper than the
    property tori reach, for a real SPD A and a complex family member."""
    g = TorusGeometry(d=2, m=1, L=9, N=2)
    rng = np.random.default_rng(41)
    B = rng.standard_normal((2, 2))
    A = validate_map(B.T @ B / 2 + 0.5 * np.eye(2), 2, 1)
    D = rng.standard_normal((2, 2))
    D = D + D.T
    D /= np.max(np.abs(np.linalg.eigvalsh(D)))
    Q = cube(41, g)
    ps = p_flat(g)
    for coefficients in (A, ComplexEllipticPath.from_direction(A, D).tensor_at(0.3 + 0.4j)):
        factor = assemble_stiffness(coefficients, Q)
        green = local_green_flat(factor, g)
        sym = symbol_flat(factor.tensor, g)
        for row in (1, 3000):
            expected = projector_symbol(factor, ps[row])
            got = green[row] @ sym[row] / Q.volume
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
