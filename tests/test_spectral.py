import numpy as np
import pytest

from frdlat.errors import ImaginaryResidue, OrderTooHigh, ShapeMismatch
from frdlat.lattice import TorusGeometry
from frdlat.spectral import (
    Kernel,
    MultiplierTable,
    _grid_table,
    flat_table,
    kernel_derivative,
    multiplier_to_kernel,
    reflect_sites,
    spectral_norms,
)

G3 = TorusGeometry(d=2, m=1, L=3, N=1)
G5 = TorusGeometry(d=2, m=2, L=5, N=1)


def test_p_nonzero_indicator_is_the_centered_delta():
    # the indicator of p != 0 transforms back to delta_0 - 1/9
    K = multiplier_to_kernel(MultiplierTable(G3, np.ones((8, 1, 1))))
    delta = np.zeros((1, 3, 3))
    delta[0, 0, 0] = 1.0
    assert np.allclose(K.values[0], delta - 1.0 / 9.0)


def test_multiplier_rejects_grid_and_full_layouts():
    for shape in ((2, 2, 5, 5), (25, 2, 2)):
        with pytest.raises(ShapeMismatch):
            MultiplierTable(G5, np.ones(shape, dtype=np.complex128))
    assert MultiplierTable(G5, np.ones((24, 2, 2))).values.dtype == np.complex128


def test_kernel_multiplier_round_trip():
    rng = np.random.default_rng(2)
    raw = rng.standard_normal(G5.kernel_shape())
    # symmetrize so the multiplier is that of a real kernel with K(-x) = K(x)^T
    sym = 0.5 * (raw + np.swapaxes(reflect_sites(raw, G5), 0, 1))
    sym -= sym.mean(axis=(2, 3), keepdims=True)
    flat = flat_table(np.fft.fftn(sym, axes=(2, 3)), G5)
    assert np.max(np.abs(flat[0])) < 1e-13
    back = multiplier_to_kernel(MultiplierTable(G5, flat[1:]))
    assert np.max(np.abs(back.values - sym)) < 1e-13
    assert back.imag_residue < 1e-13


def test_multiplier_to_kernel_rejects_complex_kernels():
    vals = np.zeros((8, 1, 1), dtype=np.complex128)
    vals[0] = 1.0  # no conjugate partner at -p
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


def test_flat_grid_round_trip_and_norms():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((2, 2, 5, 5)) + 1j * rng.standard_normal((2, 2, 5, 5))
    flat = flat_table(vals, G5)
    assert flat.shape == (25, 2, 2)
    assert np.allclose(_grid_table(flat, G5), vals)
    norms = spectral_norms(flat)
    want = np.array([np.linalg.norm(flat[i], ord=2) for i in range(25)])
    assert np.allclose(norms, want)
    herm = flat + np.conj(np.swapaxes(flat, -1, -2))
    nh = spectral_norms(herm, hermitian=True)
    wanth = np.array([np.linalg.norm(herm[i], ord=2) for i in range(25)])
    assert np.allclose(nh, wanth)
