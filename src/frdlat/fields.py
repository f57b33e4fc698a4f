"""Vector fields on the torus, discrete calculus, and energy forms.

A field is an m-vector per site; its gradient is an m x d matrix per site.
The forward difference (grad phi)_j^r(x) = phi^r(x+e_j) - phi^r(x) wraps
periodically, and the divergence below is its exact adjoint under the full
lattice inner product, which fixes the sign convention:
(div F)^r(x) = sum_j [F_j^r(x-e_j) - F_j^r(x)].

One field type serves the real and complex branches: the scalar mode is
carried by the dtype, and the sesquilinear form conjugates its second
argument only in complex mode.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .lattice import TorusGeometry


@dataclass
class Field:
    geometry: TorusGeometry
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.geometry.field_shape():
            raise ShapeMismatch(
                "field values %s do not match geometry %s"
                % (self.values.shape, self.geometry.field_shape())
            )
        if not np.issubdtype(self.values.dtype, np.complexfloating):
            self.values = self.values.astype(np.float64, copy=False)

    @property
    def complex_mode(self) -> bool:
        return np.issubdtype(self.values.dtype, np.complexfloating)


@dataclass
class GradientField:
    geometry: TorusGeometry
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.geometry.gradient_shape():
            raise ShapeMismatch(
                "gradient values %s do not match geometry %s"
                % (self.values.shape, self.geometry.gradient_shape())
            )


def forward_gradient(phi: Field) -> GradientField:
    g = phi.geometry
    out = np.empty((g.m, g.d) + g.site_shape, dtype=phi.values.dtype)
    for j in range(g.d):
        axis = 1 + j
        out[:, j] = np.roll(phi.values, -1, axis=axis) - phi.values
    return GradientField(g, out)


def backward_divergence(F: GradientField) -> Field:
    g = F.geometry
    out = np.zeros((g.m,) + g.site_shape, dtype=F.values.dtype)
    for j in range(g.d):
        axis = 1 + j
        out += np.roll(F.values[:, j], 1, axis=axis) - F.values[:, j]
    return Field(g, out)


def _apply_coefficients(A, F: GradientField) -> GradientField:
    # A.tensor has shape (m, d, m, d) in (component, direction) ordering.
    out = np.einsum("rjsk,sk...->rj...", A.tensor, F.values)
    return GradientField(F.geometry, out)


def apply_elliptic(A, phi: Field) -> Field:
    """div(A grad phi).  Maps zero-mean fields to zero-mean fields."""
    if A.d != phi.geometry.d or A.m != phi.geometry.m:
        raise ShapeMismatch(
            "elliptic map is (d=%d, m=%d) but field is (d=%d, m=%d)"
            % (A.d, A.m, phi.geometry.d, phi.geometry.m)
        )
    return backward_divergence(_apply_coefficients(A, forward_gradient(phi)))


def dirichlet_form(A, phi: Field, psi: Field):
    """sum_x <A grad phi(x), grad psi(x)>, conjugating psi in complex mode.

    Equals <div(A grad phi), psi> under the same pairing.
    """
    if phi.geometry != psi.geometry:
        raise ShapeMismatch("fields live on different geometries")
    if A.d != phi.geometry.d or A.m != phi.geometry.m:
        raise ShapeMismatch("elliptic map does not match field geometry")
    gphi = forward_gradient(phi).values
    gpsi = forward_gradient(psi).values
    if phi.complex_mode or psi.complex_mode:
        gpsi = np.conj(gpsi)
    value = np.sum(np.einsum("rjsk,sk...->rj...", A.tensor, gphi) * gpsi)
    if not (phi.complex_mode or psi.complex_mode):
        return float(value)
    return complex(value)


def inner(phi: Field, psi: Field):
    """Site inner product, conjugating psi in complex mode."""
    if phi.geometry != psi.geometry:
        raise ShapeMismatch("fields live on different geometries")
    if phi.complex_mode or psi.complex_mode:
        return complex(np.sum(phi.values * np.conj(psi.values)))
    return float(np.sum(phi.values * psi.values))


def delta_field(g: TorusGeometry, site, component: int = 0) -> Field:
    """Indicator of one (site, component) pair; convenience constructor."""
    vals = np.zeros(g.field_shape())
    idx = (component,) + tuple(int(c) % g.side for c in site)
    vals[idx] = 1.0
    return Field(g, vals)
