import numpy as np
import pytest

from frdlat.elliptic import identity_map, validate_map
from frdlat.errors import ShapeMismatch
from frdlat.fields import (
    Field,
    apply_elliptic,
    backward_divergence,
    delta_field,
    dirichlet_form,
    forward_gradient,
    inner,
)
from frdlat.lattice import TorusGeometry

G3 = TorusGeometry(d=2, m=1, L=3, N=1)
G5 = TorusGeometry(d=2, m=2, L=5, N=1)


def rand_field(g, rng, complex_mode=False):
    vals = rng.standard_normal(g.field_shape())
    if complex_mode:
        vals = vals + 1j * rng.standard_normal(g.field_shape())
    return Field(g, vals)


def test_field_shape_validation():
    with pytest.raises(ShapeMismatch):
        Field(G3, np.zeros((2, 3, 3)))
    with pytest.raises(ShapeMismatch):
        Field(G3, np.zeros((1, 3)))


def test_forward_gradient_of_delta():
    phi = delta_field(G3, (0, 0))
    grad = forward_gradient(phi).values
    # (grad phi)_j(x) = phi(x + e_j) - phi(x)
    assert grad[0, 0, 0, 0] == -1.0
    assert grad[0, 0, 2, 0] == 1.0
    assert grad[0, 1, 0, 2] == 1.0
    assert np.sum(np.abs(grad)) == 4.0


def test_summation_by_parts():
    rng = np.random.default_rng(5)
    for complex_mode in (False, True):
        phi = rand_field(G5, rng, complex_mode)
        F = forward_gradient(rand_field(G5, rng, complex_mode))
        lhs = np.sum(np.conj(F.values) * forward_gradient(phi).values)
        rhs = np.sum(np.conj(backward_divergence(F).values) * phi.values)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_apply_elliptic_identity_is_laplacian():
    A = identity_map(2, 1)
    out = apply_elliptic(A, delta_field(G3, (0, 0))).values
    assert out[0, 0, 0] == pytest.approx(4.0)
    for site in ((1, 0), (2, 0), (0, 1), (0, 2)):
        assert out[(0,) + site] == pytest.approx(-1.0)
    assert abs(np.sum(out)) < 1e-14


def test_dirichlet_form_matches_operator():
    rng = np.random.default_rng(6)
    B = rng.standard_normal((4, 4))
    A = validate_map(B.T @ B + 0.5 * np.eye(4), 2, 2)
    phi = rand_field(G5, rng)
    psi = rand_field(G5, rng)
    direct = dirichlet_form(A, phi, psi)
    via_op = inner(apply_elliptic(A, psi), phi)
    assert direct == pytest.approx(np.real(via_op), rel=1e-12)


def test_dirichlet_form_coercive():
    rng = np.random.default_rng(7)
    A = identity_map(2, 2)
    for _ in range(20):
        phi = rand_field(G5, rng)
        grad = forward_gradient(phi).values
        energy = dirichlet_form(A, phi, phi)
        gnorm = float(np.sum(grad**2))
        assert energy >= A.c0 * gnorm - 1e-10
        assert energy <= A.opnorm * gnorm + 1e-10


def test_dirichlet_form_conjugates_complex():
    rng = np.random.default_rng(8)
    A = identity_map(2, 1)
    phi = rand_field(G3, rng, complex_mode=True)
    energy = dirichlet_form(A, phi, phi)
    assert abs(np.imag(energy)) < 1e-12
    assert np.real(energy) >= 0.0


def test_delta_field_components():
    f = delta_field(G5, (1, 2), component=1)
    assert f.values[1, 1, 2] == 1.0
    assert np.sum(np.abs(f.values)) == 1.0
