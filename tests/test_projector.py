from types import SimpleNamespace

import numpy as np
import pytest

from frdlat.elliptic import (
    ComplexEllipticPath,
    identity_map,
    symbol_flat,
    validate_map,
)
from frdlat import projector
from frdlat.errors import CubeTooLarge, FactorizationFailure, ShapeMismatch, ZeroFrequency
from frdlat.fields import Field, apply_elliptic, dirichlet_form
from frdlat.lattice import Cube, TorusGeometry, cube, p_flat
from frdlat.projector import (
    assemble_stiffness,
    local_green_flat,
    oracle_projection,
    projector_symbol,
)

G5 = TorusGeometry(d=2, m=1, L=5, N=1)


def test_single_interior_site_stiffness():
    """For l=2, d=2, A=I the interior is one site and K = [[4]]."""
    factor = assemble_stiffness(identity_map(2, 1), cube(2, G5))
    assert factor.matrix.shape == (1, 1)
    assert factor.matrix[0, 0] == pytest.approx(4.0)


def test_single_site_projector_symbol():
    """That(p) = Ahat(p) / (K l^d) = Ahat(p)/16 when K = [[4]], l = 2."""
    factor = assemble_stiffness(identity_map(2, 1), cube(2, G5))
    p = (2.0 * np.pi / 3.0, 0.0)
    val = projector_symbol(factor, p)
    assert val.shape == (1, 1)
    assert val[0, 0] == pytest.approx(3.0 / 16.0)


def test_l3_stiffness_matrix():
    expected = np.array(
        [
            [4.0, -1.0, -1.0, 0.0],
            [-1.0, 4.0, 0.0, -1.0],
            [-1.0, 0.0, 4.0, -1.0],
            [0.0, -1.0, -1.0, 4.0],
        ]
    )
    factor = assemble_stiffness(identity_map(2, 1), cube(3, G5))
    assert np.allclose(factor.matrix, expected)


@pytest.mark.parametrize(
    "d, m, l, complex_member",
    [
        (2, 1, 2, False),
        (2, 1, 5, False),
        (2, 2, 3, False),
        (2, 2, 4, True),
        (3, 1, 4, False),
        (3, 2, 2, False),
        (3, 2, 3, False),
    ],
)
def test_stiffness_entries_match_dirichlet_form(d, m, l, complex_member):
    """K[(z,s),(z',t)] = <A grad delta_{z'} e_t, grad delta_z e_s> for every
    entry, with the delta fields on a torus of side >= l + 1 so that no
    pair couples across the wrap.  A complex member needs complex delta
    fields: dirichlet_form keeps only the real part on real ones."""
    rng = np.random.default_rng([d, m, l])
    n = m * d
    B = rng.standard_normal((n, n))
    coef = validate_map(B.T @ B / n + 0.5 * np.eye(n), d, m)
    dtype = np.float64
    if complex_member:
        D = rng.standard_normal((n, n))
        D = D + D.T
        D /= np.max(np.abs(np.linalg.eigvalsh(D)))
        tensor = ComplexEllipticPath.from_direction(coef, D).tensor_at(0.3 + 0.4j)
        coef = SimpleNamespace(d=d, m=m, tensor=tensor)
        dtype = np.complex128
    g = TorusGeometry(d=d, m=m, L=5 if l <= 4 else 7, N=1)
    Q = cube(l, g)
    K = assemble_stiffness(coef.tensor, Q).matrix
    deltas = []
    for z in Q.interior:
        for s in range(m):
            values = np.zeros(g.field_shape(), dtype=dtype)
            values[(s,) + tuple(z)] = 1.0
            deltas.append(Field(g, values))
    oracle = np.array([[dirichlet_form(coef, col, row) for col in deltas] for row in deltas])
    assert K.shape == oracle.shape
    assert np.max(np.abs(K - oracle)) <= 1e-13 * np.max(np.abs(K))


def test_local_green_matches_per_frequency_symbol():
    A = identity_map(2, 1)
    Q = cube(3, G5)
    factor = assemble_stiffness(A, Q)
    green = local_green_flat(factor, G5)
    sym = symbol_flat(A.tensor, G5)
    for row in (1, 4, 13, 24):
        expected = green[row] @ sym[row] / Q.volume
        got = projector_symbol(factor, p_flat(G5)[row])
        assert np.allclose(got, expected, atol=1e-13)


def test_projector_symbol_rejects_zero_frequency():
    factor = assemble_stiffness(identity_map(2, 1), cube(3, G5))
    with pytest.raises(ZeroFrequency):
        projector_symbol(factor, (0.0, 0.0))


def test_projection_fixes_fields_supported_inside():
    A = identity_map(2, 1)
    Q = cube(3, G5)
    rng = np.random.default_rng(3)
    vals = np.zeros((1, 5, 5))
    for z in Q.interior:
        vals[0, z[0], z[1]] = rng.standard_normal()
    phi = Field(G5, vals)
    out = oracle_projection(A, Q, phi)
    assert np.max(np.abs(out.values - vals)) < 1e-12


def test_projection_is_variational():
    """A(out - phi) must vanish on the cube interior for any input field."""
    A = identity_map(2, 1)
    Q = cube(3, G5)
    rng = np.random.default_rng(4)
    phi = Field(G5, rng.standard_normal((1, 5, 5)))
    out = oracle_projection(A, Q, phi)
    resid = apply_elliptic(A, Field(G5, out.values - phi.values))
    sel = tuple(Q.interior.T)
    assert np.max(np.abs(resid.values[0][sel])) < 1e-10
    outside = np.ones((5, 5), dtype=bool)
    outside[sel] = False
    assert np.max(np.abs(out.values[0][outside])) == 0.0


def test_symbol_agrees_with_plane_wave_projection():
    """l^-d sum_z e^{-ipz} (P e^{ipx})(z) equals That(p).

    Plane waves are eigenfunctions of the periodic operator, so the
    projection of one reduces to the symbol after pairing with the same
    wave over the cube.
    """
    A = identity_map(2, 1)
    Q = cube(3, G5)
    factor = assemble_stiffness(A, Q)
    p = p_flat(G5)[7]
    coords = np.indices((5, 5)).reshape(2, -1).T
    wave = np.exp(1j * (coords @ p)).reshape(1, 5, 5)
    out = oracle_projection(A, Q, Field(G5, wave))
    sel = tuple(Q.interior.T)
    paired = np.sum(np.exp(-1j * (Q.interior @ p)) * out.values[0][sel]) / Q.volume
    assert abs(paired - projector_symbol(factor, p)[0, 0]) < 1e-12


def test_symbol_is_a_contraction_after_conjugation():
    """Ahat^{1/2} Ghat_Q Ahat^{1/2} / l^d lies in [0, 1] at every p != 0."""
    A = identity_map(2, 1)
    Q = cube(3, G5)
    factor = assemble_stiffness(A, Q)
    green = local_green_flat(factor, G5)[1:, 0, 0]
    sym = symbol_flat(A.tensor, G5)[1:, 0, 0]
    vals = green * sym / Q.volume
    assert np.max(np.abs(vals.imag)) < 1e-13
    assert np.min(vals.real) >= -1e-12
    assert np.max(vals.real) <= 1.0 + 1e-12


def test_complex_coefficients_factorize():
    A = identity_map(2, 1)
    path = ComplexEllipticPath.from_direction(A, np.eye(2))
    factor = assemble_stiffness(path.tensor_at(0.5j), cube(3, G5))
    green = local_green_flat(factor, G5)
    assert np.all(np.isfinite(green))


def test_stiffness_rejects_mismatched_cube():
    with pytest.raises(ShapeMismatch):
        assemble_stiffness(identity_map(3, 1), cube(3, G5))


def test_indefinite_coefficients_fail_factorization():
    bad = identity_map(2, 1)
    object.__setattr__(bad, "entries", -np.eye(2))
    with pytest.raises(FactorizationFailure):
        assemble_stiffness(bad, cube(3, G5))


def test_dense_limit_is_checked_before_assembly(monkeypatch):
    """The layered blocks may hold (l-1) b^2 <= DENSE_LIMIT^2 = 4096^2
    words, b = (l-1)^(d-1) m: d=2 m=1 reaches assembly up to l=257
    (256^3 words) and d=3 m=1 up to l=28 (27 * 729^2); one side more is
    rejected before assembly.  The dense oracle projection still needs
    n = (l-1)^d m <= 4096, so l=66 (4225 unknowns) is rejected when it
    builds the dense K."""

    def assembly_started(tensor):
        raise AssertionError("assembly started")

    monkeypatch.setattr(projector, "_offset_blocks", assembly_started)
    for d, fits in ((2, 257), (3, 28)):
        with pytest.raises(AssertionError):
            assemble_stiffness(identity_map(d, 1), Cube(l=fits, d=d))
        with pytest.raises(CubeTooLarge, match="l=%d" % (fits + 1)):
            assemble_stiffness(identity_map(d, 1), Cube(l=fits + 1, d=d))
    monkeypatch.undo()
    G81 = TorusGeometry(d=2, m=1, L=9, N=2)
    phi = Field(G81, np.zeros(G81.field_shape()))
    with pytest.raises(CubeTooLarge, match="dense limit"):
        oracle_projection(identity_map(2, 1), Cube(l=66, d=2), phi)
