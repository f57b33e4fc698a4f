import numpy as np
import pytest

from frdlat.elliptic import (
    ComplexEllipticPath,
    green_from_body,
    green_symbol,
    hermitian_sqrt_flat,
    identity_map,
    symbol_flat,
    symbol_from_tensor,
    validate_map,
)
from frdlat.errors import NotPSD, NotPositiveDefinite, NotSymmetric, OutsideDisc
from frdlat.lattice import TorusGeometry, p_flat, p_norms
from frdlat.spectral import _hermitize

G3 = TorusGeometry(d=2, m=1, L=3, N=1)


def test_validate_map_identity():
    A = identity_map(2, 2)
    assert A.c0 == pytest.approx(1.0)
    assert A.opnorm == pytest.approx(1.0)
    assert A.tensor.shape == (2, 2, 2, 2)


def test_validate_map_rejects_asymmetry_naming_entry():
    raw = np.eye(4)
    raw[0, 2] = 0.5
    with pytest.raises(NotSymmetric) as info:
        validate_map(raw, 2, 2)
    assert "(0, 2)" in str(info.value) or "(2, 0)" in str(info.value)


def test_validate_map_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        validate_map(-np.eye(2), 2, 1)


def test_symbol_hand_value():
    A = identity_map(2, 1)
    val = symbol_from_tensor(A.tensor, (2.0 * np.pi / 3.0, 0.0))
    assert val.shape == (1, 1)
    assert val[0, 0] == pytest.approx(3.0)
    assert symbol_from_tensor(A.tensor, (0.0, 0.0))[0, 0] == pytest.approx(0.0)


def test_symbol_bounds():
    """|Ahat(p)| <= |A| |p|^2 and min eig >= (4/pi^2) c0 |p|^2 for all p."""
    g = TorusGeometry(d=2, m=2, L=5, N=1)
    rng = np.random.default_rng(9)
    B = rng.standard_normal((4, 4))
    A = validate_map(B.T @ B + 0.3 * np.eye(4), 2, 2)
    flat = symbol_flat(A.tensor, g)[1:]
    norms2 = p_norms(g)[1:] ** 2
    eigs = np.linalg.eigvalsh(flat)
    assert np.all(eigs[:, -1] <= A.opnorm * norms2 * (1.0 + 1e-12))
    assert np.all(eigs[:, 0] >= (4.0 / np.pi**2) * A.c0 * norms2 * (1.0 - 1e-12))


def test_symbol_hermitian():
    g = TorusGeometry(d=2, m=2, L=5, N=1)
    A = identity_map(2, 2)
    flat = symbol_flat(A.tensor, g)
    assert np.max(np.abs(flat - np.conj(np.swapaxes(flat, -1, -2)))) < 1e-12


def test_green_symbol_inverts_body():
    g = G3
    A = identity_map(2, 1)
    green = green_symbol(A, g).values
    sym = symbol_flat(A.tensor, g)[1:]
    assert green.shape == sym.shape == (g.half_count - 1, 1, 1)
    assert np.allclose(green * sym, 1.0)


@pytest.mark.parametrize("d, N", [(2, 5), (3, 3)])
def test_green_from_body_m1_is_lapack_bitwise(d, N):
    """At m = 1 green_from_body reads the eigenvalue off the real part and
    inverts by 1/x.  On symbol bodies, whose imaginary parts are round-off
    (below 1e-12 of the real part up to cond(A) = 1e10), eigvalsh gives the
    same eigenvalue bits and inv the same bits of the Hermitian part."""
    g = TorusGeometry(d=d, m=1, L=3, N=N)
    rng = np.random.default_rng(d)
    for cond in (1.0, 1e2, 1e6, 1e10):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A = validate_map(Q @ np.diag(np.geomspace(1.0, 1.0 / cond, d)) @ Q.T, d, 1)
        body = symbol_flat(A.tensor, g)[1:]
        assert np.array_equal(np.linalg.eigvalsh(body)[:, 0], body[:, 0, 0].real)
        got = green_from_body(body)
        assert np.array_equal(got.view(np.uint64), _hermitize(np.linalg.inv(body)).view(np.uint64))


def test_hermitian_sqrt():
    rng = np.random.default_rng(10)
    B = rng.standard_normal((3, 3))
    M = B @ B.T + 0.1 * np.eye(3)
    R = hermitian_sqrt_flat(M[None].astype(np.complex128))[0]
    assert np.allclose(R, np.conj(R.T))
    assert np.allclose(R @ R, M)
    # Round-off below zero is clamped; a clearly negative eigenvalue is not.
    tiny = hermitian_sqrt_flat(np.diag([1.0, -1e-14])[None].astype(np.complex128))[0]
    assert np.allclose(tiny, np.diag([1.0, 0.0]))
    with pytest.raises(NotPSD):
        hermitian_sqrt_flat(np.diag([1.0, -1.0])[None].astype(np.complex128))


def test_complex_path_construction():
    A = identity_map(2, 1)
    path = ComplexEllipticPath.from_direction(A, np.eye(2))
    assert np.allclose(path.A1, 0.5 * np.eye(2))
    assert np.allclose(path.direction, np.eye(2))
    with pytest.raises(ValueError):
        ComplexEllipticPath.from_direction(A, 3.0 * np.eye(2))
    with pytest.raises(ValueError):
        ComplexEllipticPath(A0=A, A1=0.9 * np.eye(2))
    with pytest.raises(NotSymmetric):
        ComplexEllipticPath(A0=A, A1=np.array([[0.0, 0.3], [-0.3, 0.0]]))


def test_complex_symbol_reduces_at_zero():
    A = identity_map(2, 1)
    path = ComplexEllipticPath.from_direction(A, np.eye(2))
    p = (2.0 * np.pi / 3.0, 0.0)
    row = np.flatnonzero(np.all(np.isclose(p_flat(G3), p), axis=1))[0]
    expected = symbol_from_tensor(A.tensor, p)[0, 0]
    assert symbol_flat(path.tensor_at(0.0), G3)[row, 0, 0] == pytest.approx(expected)
    with pytest.raises(OutsideDisc):
        path.tensor_at(1.0)


def test_complex_symbol_invertible_inside_disc():
    g = TorusGeometry(d=2, m=2, L=5, N=1)
    rng = np.random.default_rng(12)
    B = rng.standard_normal((4, 4))
    A = validate_map(B.T @ B + 0.5 * np.eye(4), 2, 2)
    direction = np.diag([1.0, -0.5, 0.3, -0.2])
    path = ComplexEllipticPath.from_direction(A, direction)
    for z in (0.9, -0.9, 0.6j, 0.5 - 0.7j):
        M = symbol_flat(path.tensor_at(z), g)[1:]
        assert np.max(np.linalg.cond(M)) < 1e9
