from itertools import product

import numpy as np
import pytest

from frdlat.errors import ImaginaryResidue, OrderTooHigh, ShapeMismatch
from frdlat.lattice import TorusGeometry
from frdlat.spectral import (
    Kernel,
    MultiplierTable,
    _hermitize,
    flat_table,
    kernel_derivative,
    multiplier_to_kernel,
    reflect_sites,
    spectral_norms,
    stack_inv,
    stack_matmul,
)

G3 = TorusGeometry(d=2, m=1, L=3, N=1)
G5 = TorusGeometry(d=2, m=2, L=5, N=1)


def test_p_nonzero_indicator_is_the_centered_delta():
    # the indicator of p != 0 transforms back to delta_0 - 1/9
    K = multiplier_to_kernel(MultiplierTable(G3, np.ones((5, 1, 1))))
    delta = np.zeros((1, 3, 3))
    delta[0, 0, 0] = 1.0
    assert np.allclose(K.values[0], delta - 1.0 / 9.0)


def test_multiplier_rejects_grid_and_full_layouts():
    """The grid, the p = 0 embedded full stack, the S^d - 1 full-grid rows
    p != 0, the 12 rows of one p per pair +-p and the half grid with
    p = 0 are rejected; the n - 1 = 14 half-grid rows p != 0 are the one
    layout."""
    for shape in ((2, 2, 5, 5), (25, 2, 2), (24, 2, 2), (12, 2, 2), (15, 2, 2)):
        with pytest.raises(ShapeMismatch):
            MultiplierTable(G5, np.ones(shape, dtype=np.complex128))
    assert MultiplierTable(G5, np.ones((14, 2, 2))).values.dtype == np.complex128


def test_kernel_multiplier_round_trip():
    rng = np.random.default_rng(2)
    raw = rng.standard_normal(G5.kernel_shape())
    # symmetrize so the multiplier is that of a real kernel with K(-x) = K(x)^T
    sym = 0.5 * (raw + np.swapaxes(reflect_sites(raw, G5), 0, 1))
    sym -= sym.mean(axis=(2, 3), keepdims=True)
    half = np.moveaxis(np.fft.rfftn(sym, axes=(2, 3)), (0, 1), (-2, -1)).reshape(-1, 2, 2)
    assert np.max(np.abs(half[0])) < 1e-13
    back = multiplier_to_kernel(MultiplierTable(G5, half[1:]))
    assert np.max(np.abs(back.values - sym)) < 1e-13
    assert back.imag_residue < 1e-13


def test_multiplier_to_kernel_rejects_complex_kernels():
    vals = np.zeros((5, 1, 1), dtype=np.complex128)
    vals[0] = 1j  # not Hermitian: the transpose 1j at -p is not the conjugate
    with pytest.raises(ImaginaryResidue):
        multiplier_to_kernel(MultiplierTable(G3, vals))


def test_kernel_derivative_forward_difference():
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(G3.kernel_shape())
    K = Kernel(G3, vals)
    d1 = kernel_derivative(K, (1, 0)).values
    assert np.allclose(d1, np.roll(vals, -1, axis=2) - vals)
    d11 = kernel_derivative(K, (1, 1)).values
    step0 = np.roll(vals, -1, axis=2) - vals
    assert np.allclose(d11, np.roll(step0, -1, axis=3) - step0)
    with pytest.raises(OrderTooHigh):
        kernel_derivative(K, (3, 2))


def test_reflect_sites():
    vals = np.zeros((1, 1, 3, 3))
    vals[0, 0, 1, 2] = 7.0
    ref = reflect_sites(vals, G3)
    assert ref[0, 0, 2, 1] == 7.0
    assert np.sum(np.abs(ref)) == 7.0


def direct_sum_kernel(table, g):
    """S^-d sum over every p of the full grid of C(p) e^{i<p,x>}, one
    frequency at a time: C(p) is the table's row where p lies on the half
    grid, C(-p)^T elsewhere, and zero at p = 0."""
    S, m = g.side, g.m
    half = np.concatenate([np.zeros((1, m, m)), table]).reshape(g.half_shape + (m, m))
    sites = np.indices(g.site_shape)
    out = np.zeros((m, m, g.site_count), dtype=np.complex128)
    for k in product(range(S), repeat=g.d):
        C = half[k] if k[-1] <= S // 2 else half[tuple(-np.array(k) % S)].T
        phase = np.exp(2j * np.pi * np.tensordot(k, sites, axes=1) / S)
        out += C[:, :, None] * phase.ravel()
    return out / g.site_count


@pytest.mark.parametrize("d, m, L", list(product((2, 3), (1, 2), (3, 5))))
def test_multiplier_to_kernel_matches_direct_sum(d, m, L):
    """multiplier_to_kernel against the direct-sum inverse DFT on a random
    table of a real kernel with K(-x) = K(x)^T: the Hermitian part of
    X(p) + X(-p)^T, so its two rows at +-p on the plane of last index 0
    agree with the transposes the oracle puts off the half grid."""
    g = TorusGeometry(d=d, m=m, L=L, N=1)
    rng = np.random.default_rng(10 * d + m + L)
    X = rng.standard_normal(g.kernel_shape()) + 1j * rng.standard_normal(g.kernel_shape())
    Y = X + np.swapaxes(reflect_sites(X, g), 0, 1)
    full = _hermitize(np.moveaxis(Y, (0, 1), (-2, -1)))
    table = full[..., : g.side // 2 + 1, :, :].reshape(-1, m, m)[1:]
    K = multiplier_to_kernel(MultiplierTable(g, table))
    want = direct_sum_kernel(table, g).reshape(K.values.shape)
    scale = np.max(np.abs(table))
    assert K.imag_residue == 0.0
    assert np.max(np.abs(want.imag)) <= 1e-13 * scale
    assert np.max(np.abs(K.values - want.real)) <= 1e-13 * scale


def test_flat_grid_round_trip_and_norms():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((2, 2, 5, 5)) + 1j * rng.standard_normal((2, 2, 5, 5))
    flat = flat_table(vals, G5)
    assert flat.shape == (25, 2, 2)
    assert np.allclose(np.moveaxis(flat.reshape(5, 5, 2, 2), (-2, -1), (0, 1)), vals)
    norms = spectral_norms(flat)
    want = np.array([np.linalg.norm(flat[i], ord=2) for i in range(25)])
    np.testing.assert_allclose(norms, want, rtol=1e-14, atol=0)
    herm = flat + np.conj(np.swapaxes(flat, -1, -2))
    nh = spectral_norms(herm, hermitian=True)
    wanth = np.array([np.linalg.norm(herm[i], ord=2) for i in range(25)])
    np.testing.assert_allclose(nh, wanth, rtol=1e-14, atol=0)


def two_by_two_stack(case):
    """(F, 2, 2) stacks whose norms are hard for a closed form."""
    rng = np.random.default_rng(11)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    scales = 10.0 ** np.linspace(-150.0, 150.0, 31)[:, None, None]
    if case == "zero":
        return np.zeros((3, 2, 2), dtype=np.complex128)
    if case == "rank_one":
        return cplx(20, 2, 1) @ cplx(20, 1, 2)
    if case == "scaled_unitary":
        return cplx(20, 1, 1) * np.linalg.qr(cplx(20, 2, 2))[0]
    if case == "real":
        return rng.standard_normal((20, 2, 2))
    if case == "tiny_to_huge":
        return scales * cplx(31, 2, 2)
    if case == "hermitian_tiny_to_huge":
        x = cplx(31, 2, 2)
        return scales * (x + np.conj(np.swapaxes(x, -1, -2)))
    if case == "hermitian_rank_one":
        u = cplx(20, 2, 1)
        return rng.standard_normal((20, 1, 1)) * (u @ np.conj(np.swapaxes(u, -1, -2)))
    raise ValueError(case)


@pytest.mark.parametrize(
    "case",
    ["zero", "rank_one", "scaled_unitary", "real", "tiny_to_huge",
     "hermitian_tiny_to_huge", "hermitian_rank_one"],
)
def test_two_by_two_norms_match_lapack(case):
    flat = two_by_two_stack(case)
    want = np.array([np.linalg.norm(x, ord=2) for x in flat])
    np.testing.assert_allclose(spectral_norms(flat), want, rtol=1e-14, atol=0)
    if case.startswith("hermitian") or case == "zero":
        np.testing.assert_allclose(spectral_norms(flat, hermitian=True), want, rtol=1e-14, atol=0)


def test_two_by_two_hermitian_norm_reads_the_lower_triangle():
    indefinite = np.array([[[1.0, 0.0], [0.0, -3.0]]])
    assert spectral_norms(indefinite, hermitian=True)[0] == 3.0
    assert spectral_norms(indefinite)[0] == 3.0
    rng = np.random.default_rng(4)
    x = rng.standard_normal((10, 2, 2)) + 1j * rng.standard_normal((10, 2, 2))
    x[:, 0, 0] = x[:, 0, 0].real
    x[:, 1, 1] = x[:, 1, 1].real
    want = np.max(np.abs(np.linalg.eigvalsh(x)), axis=-1)
    np.testing.assert_allclose(spectral_norms(x, hermitian=True), want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("hermitian", [False, True])
def test_nan_matrix_has_nan_norm(m, hermitian):
    """The contour's doubling gate relies on a NaN sum giving a NaN norm."""
    flat = np.tile(np.eye(m, dtype=np.complex128), (3, 1, 1))
    flat[1, m - 1, 0] = np.nan
    norms = spectral_norms(flat, hermitian=hermitian)
    assert np.isnan(norms[1])
    assert np.array_equal(norms[[0, 2]], [1.0, 1.0])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stack_matmul_matches_matmul(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((50, m, m)) + 1j * rng.standard_normal((50, m, m))
    b = rng.standard_normal((50, m, m)) + 1j * rng.standard_normal((50, m, m))
    got = stack_matmul(a, b)
    want = a @ b
    if m == 1:
        assert np.array_equal(got, a * b)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # mixed real and complex factors keep the complex result
    assert np.max(np.abs(stack_matmul(a.real, b) - a.real @ b)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stack_inv_matches_lapack(m):
    """Within 1e-13 of each inverse's size times its condition number, on
    random complex matrices, some scaled by 1e-100..1e100 and some nearly
    singular."""
    rng = np.random.default_rng(20 + m)
    a = rng.standard_normal((300, m, m)) + 1j * rng.standard_normal((300, m, m))
    a[:100] *= 10.0 ** rng.uniform(-100, 100, size=(100, 1, 1))
    if m > 1:
        a[100:150, :, 0] = a[100:150, :, 1] * (1 + 1e-9 * rng.standard_normal((50, m)))
    want = np.linalg.inv(a)
    err = np.max(np.abs(stack_inv(a) - want), axis=(-2, -1))
    assert np.all(err <= 1e-13 * np.linalg.cond(a) * np.max(np.abs(want), axis=(-2, -1)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stack_inv_flags_nan_and_singular_matrices(m):
    """A matrix holding a NaN, or with a zero determinant, has a non-finite
    inverse and raises nothing (no LinAlgError, no RuntimeWarning), so the
    contour's doubling gate still fails on it."""
    a = np.tile(np.eye(m, dtype=np.complex128), (4, 1, 1))
    a[1, m - 1, 0] = np.nan
    a[2] = 1.0 if m > 1 else 0.0
    with np.errstate(all="raise"):
        out = stack_inv(a)
    assert not np.isfinite(out[1]).all()
    assert not np.isfinite(out[2]).all()
    assert np.array_equal(out[[0, 3]], a[[0, 3]])
